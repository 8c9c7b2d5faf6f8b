#include "workload/zipf.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"

namespace middlesim::workload
{

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n)
{
    if (n == 0)
        fatal("zipf: need at least one key");
    cdf_.resize(n);
    double sum = 0.0;
    for (std::uint64_t k = 0; k < n; ++k) {
        sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = sum;
    }
    for (auto &v : cdf_)
        v /= sum;
}

std::uint64_t
ZipfSampler::sample(sim::Rng &rng) const
{
    const double u = rng.real();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end())
        return n_ - 1;
    return static_cast<std::uint64_t>(it - cdf_.begin());
}

} // namespace middlesim::workload
