/**
 * @file
 * Tabular sample container used throughout the toolkit.
 *
 * A Dataset holds the per-interval PMU samples: one named numeric
 * column per metric (Table I of the paper) and one row per measurement
 * interval. It deliberately stays dumb — modeling code addresses
 * columns by index after a single name lookup.
 */

#ifndef WCT_DATA_DATASET_HH
#define WCT_DATA_DATASET_HH

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace wct
{

/** Five-number-ish descriptive summary of one dataset column. */
struct ColumnSummary
{
    std::size_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
};

class ColumnStore;

/**
 * Row-major table of doubles with named columns.
 *
 * Rows are stored contiguously so per-sample access (prediction,
 * model fitting) touches one cache line per narrow sample. Columnar
 * scans — the split-search hot loop of tree training — go through the
 * derived column-major ColumnStore (columnMajor()) instead, which
 * streams one attribute contiguously.
 */
class Dataset
{
  public:
    Dataset() = default;

    /** Create an empty dataset with the given column schema. */
    explicit Dataset(std::vector<std::string> column_names);

    /** Adopt row-major cells; their count must be a multiple of the
     * column count. */
    Dataset(std::vector<std::string> column_names,
            std::vector<double> cells);

    /** Number of columns in the schema. */
    std::size_t numColumns() const { return names_.size(); }

    /** Number of sample rows. */
    std::size_t numRows() const
    {
        return names_.empty() ? 0 : values_.size() / names_.size();
    }

    bool empty() const { return values_.empty(); }

    /** Column schema, in storage order. */
    const std::vector<std::string> &columnNames() const { return names_; }

    /** True when a column with this name exists. */
    bool hasColumn(const std::string &name) const;

    /** Index of a column; fatal error when absent. */
    std::size_t columnIndex(const std::string &name) const;

    /** Append a row; must match the schema arity. */
    void addRow(const std::vector<double> &row);

    /** Append a row given as a span (no copy of the caller's buffer). */
    void addRow(std::span<const double> row);

    /** Cell accessor. */
    double at(std::size_t row, std::size_t col) const;

    /** Mutable cell accessor. */
    double &at(std::size_t row, std::size_t col);

    /** View of one full row. */
    std::span<const double> row(std::size_t r) const;

    /** Copy of one full column. */
    std::vector<double> column(std::size_t c) const;

    /** Copy of one full column by name. */
    std::vector<double> column(const std::string &name) const;

    /** New dataset holding only the given rows (in the given order). */
    Dataset selectRows(const std::vector<std::size_t> &rows) const;

    /** New dataset holding only the named columns. */
    Dataset selectColumns(const std::vector<std::string> &names) const;

    /** Append all rows of another dataset with an identical schema. */
    void append(const Dataset &other);

    /** Reserve storage for the given number of rows. */
    void reserveRows(std::size_t rows);

    /** Descriptive summary of one column. */
    ColumnSummary summarize(std::size_t col) const;

    /** Column-major (SoA) copy of the table for columnar scans. */
    ColumnStore columnMajor() const;

  private:
    std::vector<std::string> names_;
    std::vector<double> values_;
};

/**
 * Column-major (structure-of-arrays) snapshot of a Dataset.
 *
 * Each column is one contiguous array, so a scan over one attribute
 * across all rows — the inner loop of SDR split search — streams
 * sequentially instead of striding numColumns() doubles per element.
 * The store is an immutable copy: it does not observe later addRow
 * calls on the source dataset. Cells are bit-identical to the source
 * (plain copies), so algorithms may mix row-major and column-major
 * access without floating-point divergence.
 */
class ColumnStore
{
  public:
    ColumnStore() = default;

    /** Transpose a dataset into columnar storage. */
    explicit ColumnStore(const Dataset &data);

    std::size_t numRows() const { return rows_; }
    std::size_t numColumns() const { return cols_; }

    /** Contiguous storage of one column (numRows() doubles). */
    const double *
    columnData(std::size_t c) const
    {
        return values_.data() + c * rows_;
    }

    /** Span view of one column. */
    std::span<const double>
    column(std::size_t c) const
    {
        return {columnData(c), rows_};
    }

    /** Cell accessor (bit-identical to Dataset::at on the source). */
    double
    at(std::size_t row, std::size_t col) const
    {
        return values_[col * rows_ + row];
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> values_; ///< column-major, cols_ * rows_
};

} // namespace wct

#endif // WCT_DATA_DATASET_HH
