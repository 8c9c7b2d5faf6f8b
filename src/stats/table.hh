/**
 * @file
 * Aligned text tables for figure reports.
 */

#ifndef STATS_TABLE_HH
#define STATS_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace middlesim::stats
{

/** Simple column-aligned text table builder. */
class Table
{
  public:
    Table() = default;
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Render with padded, right-aligned numeric-style columns. */
    void print(std::ostream &os) const;

    std::size_t numRows() const { return rows_.size(); }

    /** Format a double with the given precision. */
    static std::string num(double v, int precision = 2);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace middlesim::stats

#endif // STATS_TABLE_HH
