/**
 * @file
 * Named (x, y ± err) series — the unit of figure reproduction.
 *
 * Every bench binary produces one or more Series per figure; the
 * report module renders them side by side with the digitized paper
 * data.
 */

#ifndef STATS_SERIES_HH
#define STATS_SERIES_HH

#include <string>
#include <vector>

namespace middlesim::stats
{

/** One measured point with an optional error bar. */
struct Point
{
    double x = 0.0;
    double y = 0.0;
    double err = 0.0;
};

/** A named sequence of points, e.g. one line in a paper figure. */
struct Series
{
    std::string name;
    std::vector<Point> points;

    Series() = default;
    explicit Series(std::string n) : name(std::move(n)) {}

    void
    add(double x, double y, double err = 0.0)
    {
        points.push_back({x, y, err});
    }

    /** y value at the given x (exact match), or fallback. */
    double yAt(double x, double fallback = 0.0) const;

    /** Largest y over all points (0 if empty). */
    double maxY() const;
};

} // namespace middlesim::stats

#endif // STATS_SERIES_HH
