/**
 * @file
 * Zipf-distributed key sampling.
 *
 * Bean/entity popularity in middleware follows a heavily skewed
 * distribution; we use a classical Zipf(s) sampler with a
 * precomputed inverse-CDF table.
 */

#ifndef WORKLOAD_ZIPF_HH
#define WORKLOAD_ZIPF_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"

namespace middlesim::workload
{

/** Zipf(s) sampler over keys [0, n). */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double s);

    /** Draw one key; key 0 is the most popular. */
    std::uint64_t sample(sim::Rng &rng) const;

  private:
    std::uint64_t n_;
    /** Cumulative probability up to each key. */
    std::vector<double> cdf_;
};

} // namespace middlesim::workload

#endif // WORKLOAD_ZIPF_HH
