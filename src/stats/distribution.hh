/**
 * @file
 * Per-key count distributions and concentration curves.
 *
 * The paper's communication-footprint analysis (Figures 14 and 15)
 * ranks cache lines by the number of cache-to-cache transfers they
 * caused and plots the cumulative share of all transfers against the
 * fraction (Fig 14) or absolute number (Fig 15) of touched lines.
 * KeyCounts holds the per-line counts; ConcentrationCurve is the
 * sorted cumulative view.
 */

#ifndef STATS_DISTRIBUTION_HH
#define STATS_DISTRIBUTION_HH

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace middlesim::stats
{

/** Cumulative concentration view over descending-sorted key counts. */
class ConcentrationCurve
{
  public:
    explicit ConcentrationCurve(std::vector<std::uint64_t> sorted_desc);

    /** Number of distinct keys. */
    std::size_t numKeys() const { return counts_.size(); }

    /** The descending-sorted per-key counts (serialization). */
    const std::vector<std::uint64_t> &counts() const { return counts_; }

    /** Sum over all keys. */
    std::uint64_t total() const { return total_; }

    /** Share of the total contributed by the top k keys. */
    double shareOfTopK(std::size_t k) const;

    /** Share of the single largest key. */
    double maxShare() const;

    /**
     * Smallest number of keys that together contribute at least
     * `share` (0..1) of the total.
     */
    std::size_t keysForShare(double share) const;

  private:
    std::vector<std::uint64_t> counts_; // descending
    std::vector<std::uint64_t> cumulative_;
    std::uint64_t total_ = 0;
};

/** Sparse per-key event counter (e.g. per-cache-line c2c transfers). */
class KeyCounts
{
  public:
    void add(std::uint64_t key, std::uint64_t weight = 1);

    std::size_t numKeys() const { return counts_.size(); }
    std::uint64_t total() const { return total_; }

    /** All (key, count) pairs sorted by key (exact comparison). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    sortedItems() const;

    ConcentrationCurve concentration() const;

    void reset();

  private:
    std::unordered_map<std::uint64_t, std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace middlesim::stats

#endif // STATS_DISTRIBUTION_HH
