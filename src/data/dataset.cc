#include "data/dataset.hh"

#include <cmath>
#include <unordered_set>

#include "util/logging.hh"

namespace wct
{

Dataset::Dataset(std::vector<std::string> column_names)
    : names_(std::move(column_names))
{
    wct_assert(!names_.empty(), "dataset needs at least one column");
    std::unordered_set<std::string> seen;
    for (const auto &name : names_) {
        wct_assert(!name.empty(), "empty column name");
        wct_assert(seen.insert(name).second,
                   "duplicate column name '", name, "'");
    }
}

Dataset::Dataset(std::vector<std::string> column_names,
                 std::vector<double> cells)
    : Dataset(std::move(column_names))
{
    wct_assert(cells.size() % names_.size() == 0, "cell count ",
               cells.size(), " is not a multiple of the schema arity ",
               names_.size());
    values_ = std::move(cells);
}

bool
Dataset::hasColumn(const std::string &name) const
{
    for (const auto &candidate : names_)
        if (candidate == name)
            return true;
    return false;
}

std::size_t
Dataset::columnIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return i;
    wct_fatal("dataset has no column named '", name, "'");
}

void
Dataset::addRow(const std::vector<double> &row)
{
    addRow(std::span<const double>(row.data(), row.size()));
}

void
Dataset::addRow(std::span<const double> row)
{
    wct_assert(row.size() == names_.size(),
               "row arity ", row.size(), " != schema arity ",
               names_.size());
    values_.insert(values_.end(), row.begin(), row.end());
}

double
Dataset::at(std::size_t row, std::size_t col) const
{
    wct_assert(row < numRows() && col < numColumns(),
               "out of range cell (", row, ", ", col, ")");
    return values_[row * names_.size() + col];
}

double &
Dataset::at(std::size_t row, std::size_t col)
{
    wct_assert(row < numRows() && col < numColumns(),
               "out of range cell (", row, ", ", col, ")");
    return values_[row * names_.size() + col];
}

std::span<const double>
Dataset::row(std::size_t r) const
{
    wct_assert(r < numRows(), "out of range row ", r);
    return {values_.data() + r * names_.size(), names_.size()};
}

std::vector<double>
Dataset::column(std::size_t c) const
{
    wct_assert(c < numColumns(), "out of range column ", c);
    std::vector<double> out;
    out.reserve(numRows());
    for (std::size_t r = 0; r < numRows(); ++r)
        out.push_back(values_[r * names_.size() + c]);
    return out;
}

std::vector<double>
Dataset::column(const std::string &name) const
{
    return column(columnIndex(name));
}

Dataset
Dataset::selectRows(const std::vector<std::size_t> &rows) const
{
    Dataset out(names_);
    out.reserveRows(rows.size());
    for (std::size_t r : rows)
        out.addRow(row(r));
    return out;
}

Dataset
Dataset::selectColumns(const std::vector<std::string> &names) const
{
    std::vector<std::size_t> cols;
    cols.reserve(names.size());
    for (const auto &name : names)
        cols.push_back(columnIndex(name));

    Dataset out(names);
    out.reserveRows(numRows());
    std::vector<double> scratch(cols.size());
    for (std::size_t r = 0; r < numRows(); ++r) {
        for (std::size_t i = 0; i < cols.size(); ++i)
            scratch[i] = at(r, cols[i]);
        out.addRow(scratch);
    }
    return out;
}

void
Dataset::append(const Dataset &other)
{
    wct_assert(other.names_ == names_,
               "appending dataset with a different schema");
    values_.insert(values_.end(), other.values_.begin(),
                   other.values_.end());
}

void
Dataset::reserveRows(std::size_t rows)
{
    values_.reserve(values_.size() + rows * names_.size());
}

ColumnStore
Dataset::columnMajor() const
{
    return ColumnStore(*this);
}

ColumnStore::ColumnStore(const Dataset &data)
    : rows_(data.numRows()), cols_(data.numColumns())
{
    values_.resize(rows_ * cols_);
    // Row-major pass over the source: sequential reads, strided
    // writes; with cols_ ~ 20 every write stream stays cache-resident.
    for (std::size_t r = 0; r < rows_; ++r) {
        const std::span<const double> row = data.row(r);
        for (std::size_t c = 0; c < cols_; ++c)
            values_[c * rows_ + r] = row[c];
    }
}

ColumnSummary
Dataset::summarize(std::size_t col) const
{
    wct_assert(col < numColumns(), "out of range column ", col);
    ColumnSummary s;
    s.count = numRows();
    if (s.count == 0)
        return s;

    double sum = 0.0;
    s.min = at(0, col);
    s.max = s.min;
    for (std::size_t r = 0; r < s.count; ++r) {
        const double v = at(r, col);
        sum += v;
        s.min = std::min(s.min, v);
        s.max = std::max(s.max, v);
    }
    s.mean = sum / static_cast<double>(s.count);

    double ss = 0.0;
    for (std::size_t r = 0; r < s.count; ++r) {
        const double d = at(r, col) - s.mean;
        ss += d * d;
    }
    s.stddev = s.count > 1
        ? std::sqrt(ss / static_cast<double>(s.count - 1)) : 0.0;
    return s;
}

} // namespace wct
