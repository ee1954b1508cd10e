/**
 * @file
 * Benchmark similarity from linear-model profiles (Table III of the
 * paper): pairwise L1 distances between the per-benchmark leaf
 * distributions, plus each benchmark's distance to the whole suite.
 */

#ifndef WCT_CORE_SIMILARITY_HH
#define WCT_CORE_SIMILARITY_HH

#include <string>
#include <vector>

#include "core/profile_table.hh"

namespace wct
{

/** Pairwise profile-distance matrix over a set of benchmarks. */
class SimilarityMatrix
{
  public:
    /**
     * Build from a profile table.
     * @param subset Names to include; empty selects every benchmark.
     */
    explicit SimilarityMatrix(const ProfileTable &table,
                              std::vector<std::string> subset = {});

    const std::vector<std::string> &names() const { return names_; }

    /** Distance (percent, Equation 4) between benchmarks i and j. */
    double at(std::size_t i, std::size_t j) const;

    /** Distance between a benchmark and the pooled suite profile. */
    double distanceToSuite(std::size_t i) const;

    /** Indices of the most similar pair (i < j). */
    std::pair<std::size_t, std::size_t> mostSimilarPair() const;

    /** Indices of the most dissimilar pair (i < j). */
    std::pair<std::size_t, std::size_t> mostDissimilarPair() const;

    /** Render in the paper's Table III layout (with a Suite row). */
    std::string render() const;

  private:
    std::vector<std::string> names_;
    std::vector<double> matrix_; ///< n x n, row-major
    std::vector<double> toSuite_;
};

} // namespace wct

#endif // WCT_CORE_SIMILARITY_HH
