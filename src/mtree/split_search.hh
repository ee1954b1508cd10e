/**
 * @file
 * SDR split search over one attribute — the innermost loop of M5'
 * tree induction, exposed as a standalone function so the
 * differential-oracle tests (tests/support/oracles.hh) can exercise
 * the prefix-sum implementation against a naive O(n²) reference on
 * arbitrary inputs.
 *
 * Determinism contract (relied on by serialization goldens and the
 * property suite): given the same observations in the same order the
 * search is bit-reproducible, and ties in SDR are broken toward the
 * boundary with the lowest split value. Callers scanning several
 * attributes break cross-attribute ties toward the lowest attribute
 * index by iterating attributes in ascending order and replacing the
 * incumbent only on strict improvement.
 */

#ifndef WCT_MTREE_SPLIT_SEARCH_HH
#define WCT_MTREE_SPLIT_SEARCH_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace wct
{

/** Outcome of a single-attribute SDR split search. */
struct SplitCandidate
{
    /** False when no admissible boundary exists (constant attribute
     * or every boundary violates the minimum-leaf constraint). */
    bool valid = false;

    /** Split threshold: the midpoint between the two adjacent
     * distinct attribute values around the chosen boundary. Rows with
     * value <= threshold go left. */
    double value = 0.0;

    /**
     * Standard deviation reduction of the chosen boundary:
     *   SDR = sd(node) - nl/n * sd(left) - nr/n * sd(right)
     * where the side deviations are population standard deviations
     * (the M5 convention this codebase uses throughout).
     */
    double sdr = 0.0;

    /** Number of observations on the <= side of the boundary. */
    std::size_t leftCount = 0;
};

/**
 * One attribute's working set for the presorted tree builder: the
 * node's attribute values sorted ascending (equal values in ascending
 * row order), the matching targets, and the matching row ids — three
 * parallel arrays, kept contiguous so the split sweep streams instead
 * of gathering. Built once at the root from a ColumnStore and stably
 * partitioned down the tree (stablePartitionPresorted), which keeps
 * the sort invariant at every node without re-sorting.
 */
struct PresortedColumn
{
    std::vector<double> values;
    std::vector<double> targets;
    std::vector<std::uint32_t> rows;
};

/**
 * Find the best SDR boundary of one attribute over one node's slice
 * of a PresortedColumn: `values` already sorted ascending (stably:
 * equal values in ascending row order) and `targets` aligned with
 * them. One linear pass scans every boundary between distinct values
 * with prefix sums of the target and its square; boundaries leaving
 * fewer than `min_leaf` observations on either side are skipped.
 *
 * @param node_sd  Standard deviation of the target over the node
 *                 (the caller's convention; it only shifts SDR by a
 *                 constant and never changes the argmax).
 * @param min_leaf Minimum observations per side (>= 1).
 */
SplitCandidate findBestSdrSplitPresorted(std::span<const double> values,
                                         std::span<const double> targets,
                                         double node_sd,
                                         std::size_t min_leaf);

/**
 * Stable in-place partition of one PresortedColumn range [lo, hi):
 * entries whose row has `goes_left[row] != 0` move to the front, the
 * rest to the back, each side keeping its relative order — which is
 * what preserves the "sorted by attribute, ties by row index"
 * invariant of every attribute's working set across a tree split (the
 * CART / XGBoost presorted scheme). The left/right decision is a
 * per-row byte mask (computed once per node from the split attribute)
 * rather than a comparison against the split column, so partitioning
 * A attributes costs A streaming passes and one byte-gather per
 * element.
 *
 * @param column    The attribute working set; [lo, hi) is one node.
 * @param lo, hi    Node range within the arrays.
 * @param goes_left Byte per dataset row: non-zero = left child.
 * @param scratch   Reused temporaries for the right-hand side.
 * @return Number of entries on the left side.
 */
std::size_t stablePartitionPresorted(PresortedColumn &column,
                                     std::size_t lo, std::size_t hi,
                                     const unsigned char *goes_left,
                                     PresortedColumn &scratch);

} // namespace wct

#endif // WCT_MTREE_SPLIT_SEARCH_HH
