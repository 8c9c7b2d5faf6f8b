#include "stats/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "sim/log.hh"

namespace middlesim::stats
{

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        panic("table row has ", cells.size(), " cells, expected ",
              headers_.size());
    rows_.push_back(std::move(cells));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto emitRow = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "" : "  ")
               << std::setw(static_cast<int>(widths[c])) << row[c];
        }
        os << '\n';
    };

    emitRow(headers_);
    std::size_t dashes = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        dashes += widths[c] + (c == 0 ? 0 : 2);
    os << std::string(dashes, '-') << '\n';
    for (const auto &row : rows_)
        emitRow(row);
}

std::string
Table::num(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

} // namespace middlesim::stats
