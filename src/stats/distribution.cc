#include "stats/distribution.hh"

#include <algorithm>
#include <cmath>

namespace middlesim::stats
{

ConcentrationCurve::ConcentrationCurve(std::vector<std::uint64_t> sorted_desc)
    : counts_(std::move(sorted_desc))
{
    std::sort(counts_.begin(), counts_.end(), std::greater<>());
    cumulative_.reserve(counts_.size());
    std::uint64_t run = 0;
    for (auto c : counts_) {
        run += c;
        cumulative_.push_back(run);
    }
    total_ = run;
}

double
ConcentrationCurve::shareOfTopK(std::size_t k) const
{
    if (total_ == 0 || k == 0)
        return 0.0;
    k = std::min(k, cumulative_.size());
    return static_cast<double>(cumulative_[k - 1]) /
           static_cast<double>(total_);
}

double
ConcentrationCurve::maxShare() const
{
    return shareOfTopK(1);
}

std::size_t
ConcentrationCurve::keysForShare(double share) const
{
    if (total_ == 0)
        return 0;
    const auto target = static_cast<std::uint64_t>(
        std::ceil(share * static_cast<double>(total_)));
    auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(),
                               target);
    if (it == cumulative_.end())
        return cumulative_.size();
    return static_cast<std::size_t>(it - cumulative_.begin()) + 1;
}

void
KeyCounts::add(std::uint64_t key, std::uint64_t weight)
{
    counts_[key] += weight;
    total_ += weight;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
KeyCounts::sortedItems() const
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> items(
        counts_.begin(), counts_.end());
    std::sort(items.begin(), items.end());
    return items;
}

ConcentrationCurve
KeyCounts::concentration() const
{
    std::vector<std::uint64_t> values;
    values.reserve(counts_.size());
    for (const auto &[key, count] : counts_)
        values.push_back(count);
    return ConcentrationCurve(std::move(values));
}

void
KeyCounts::reset()
{
    counts_.clear();
    total_ = 0;
}

} // namespace middlesim::stats
