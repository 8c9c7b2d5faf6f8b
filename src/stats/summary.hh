/**
 * @file
 * Streaming summary statistics.
 *
 * RunningStat implements Welford's online algorithm; it backs the
 * multi-run variability methodology (Alameldeen & Wood [2]) used for
 * every measured point: experiments are repeated with perturbed seeds
 * and reported as mean with a standard-deviation error bar.
 */

#ifndef STATS_SUMMARY_HH
#define STATS_SUMMARY_HH

#include <cstdint>

namespace middlesim::stats
{

/** Online mean / variance accumulator. */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples observed. */
    std::uint64_t count() const { return n_; }

    /** Sample mean (0 if empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance (0 if fewer than two samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

} // namespace middlesim::stats

#endif // STATS_SUMMARY_HH
