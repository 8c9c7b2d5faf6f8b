#include "stats/series.hh"

#include <cmath>

namespace middlesim::stats
{

double
Series::yAt(double x, double fallback) const
{
    for (const auto &p : points) {
        if (std::abs(p.x - x) < 1e-9)
            return p.y;
    }
    return fallback;
}

double
Series::maxY() const
{
    double best = 0.0;
    bool first = true;
    for (const auto &p : points) {
        if (first || p.y > best) {
            best = p.y;
            first = false;
        }
    }
    return best;
}

} // namespace middlesim::stats
