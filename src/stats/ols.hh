/**
 * @file
 * Dense Cholesky solve of the ridge-stabilised normal equations under
 * every least-squares fit in the codebase: the model-tree leaf models
 * and the global linear-regression baseline fit through
 * GramAccumulator (mtree/linear_model.hh), which calls this kernel.
 * Small systems (at most ~20 predictors, Table I) fitted many times,
 * so a dense normal-equation solve is both adequate and fast.
 */

#ifndef WCT_STATS_OLS_HH
#define WCT_STATS_OLS_HH

#include <cstddef>
#include <vector>

namespace wct
{

/**
 * Dense symmetric positive definite solver (in-place Cholesky).
 * Returns false when the matrix is not positive definite even after
 * the caller's ridge adjustment.
 *
 * @param a Row-major n x n symmetric matrix (destroyed).
 * @param b Right-hand side (replaced by the solution).
 */
bool choleskySolveInPlace(std::vector<double> &a, std::vector<double> &b,
                          std::size_t n);

} // namespace wct

#endif // WCT_STATS_OLS_HH
