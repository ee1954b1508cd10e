#include "core/similarity.hh"

#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/text_table.hh"

namespace wct
{

SimilarityMatrix::SimilarityMatrix(const ProfileTable &table,
                                   std::vector<std::string> subset)
{
    if (subset.empty())
        for (const BenchmarkProfileRow &row : table.rows())
            subset.push_back(row.name);
    names_ = std::move(subset);

    const std::size_t n = names_.size();
    wct_assert(n >= 2, "similarity needs at least two benchmarks");
    matrix_.assign(n * n, 0.0);
    toSuite_.assign(n, 0.0);

    // row() searches by name, so each row is looked up once.
    std::vector<const BenchmarkProfileRow *> rows;
    rows.reserve(n);
    for (const std::string &name : names_)
        rows.push_back(&table.row(name));

    for (std::size_t i = 0; i < n; ++i) {
        toSuite_[i] = ProfileTable::distance(*rows[i], table.suiteRow());
        for (std::size_t j = i + 1; j < n; ++j) {
            const double d = ProfileTable::distance(*rows[i], *rows[j]);
            matrix_[i * n + j] = d;
            matrix_[j * n + i] = d;
        }
    }
}

double
SimilarityMatrix::at(std::size_t i, std::size_t j) const
{
    wct_assert(i < names_.size() && j < names_.size(),
               "similarity index out of range");
    return matrix_[i * names_.size() + j];
}

double
SimilarityMatrix::distanceToSuite(std::size_t i) const
{
    wct_assert(i < names_.size(), "similarity index out of range");
    return toSuite_[i];
}

std::pair<std::size_t, std::size_t>
SimilarityMatrix::mostSimilarPair() const
{
    std::pair<std::size_t, std::size_t> best = {0, 1};
    for (std::size_t i = 0; i < names_.size(); ++i)
        for (std::size_t j = i + 1; j < names_.size(); ++j)
            if (at(i, j) < at(best.first, best.second))
                best = {i, j};
    return best;
}

std::pair<std::size_t, std::size_t>
SimilarityMatrix::mostDissimilarPair() const
{
    std::pair<std::size_t, std::size_t> best = {0, 1};
    for (std::size_t i = 0; i < names_.size(); ++i)
        for (std::size_t j = i + 1; j < names_.size(); ++j)
            if (at(i, j) > at(best.first, best.second))
                best = {i, j};
    return best;
}

std::string
SimilarityMatrix::render() const
{
    std::vector<std::string> headers = {"vs"};
    for (const std::string &name : names_)
        headers.push_back(name);
    TextTable table(std::move(headers));
    for (std::size_t i = 0; i < names_.size(); ++i) {
        std::vector<std::string> cells = {names_[i]};
        for (std::size_t j = 0; j < names_.size(); ++j)
            cells.push_back(i == j ? "-" : formatDouble(at(i, j), 1));
        table.addRow(std::move(cells));
    }
    table.addRule();
    std::vector<std::string> suite_cells = {"Suite"};
    for (std::size_t i = 0; i < names_.size(); ++i)
        suite_cells.push_back(formatDouble(toSuite_[i], 1));
    table.addRow(std::move(suite_cells));
    return table.render();
}

} // namespace wct
