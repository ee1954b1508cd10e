/**
 * @file
 * Sparse linear models over dataset columns, and the Gram-matrix
 * machinery used to fit and simplify them.
 *
 * Every leaf of an M5' tree carries one of these models. Following
 * Quinlan's M5, a model is first fitted on all candidate attributes
 * and then simplified by greedy backward elimination under the
 * (n + v)/(n - v) error-compensation factor, which is what produces
 * the compact published equations (some leaves keep one attribute,
 * some collapse to a constant).
 */

#ifndef WCT_MTREE_LINEAR_MODEL_HH
#define WCT_MTREE_LINEAR_MODEL_HH

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hh"

namespace wct
{

/** y = intercept + sum coefficients[i] * row[attributes[i]]. */
struct LinearModel
{
    double intercept = 0.0;
    std::vector<std::size_t> attributes; ///< dataset column indices
    std::vector<double> coefficients;    ///< parallel to attributes

    /**
     * Evaluate on a full dataset row. The row must cover every
     * attribute index; the sanitizer CI preset (-DWCT_SANITIZE=ON)
     * catches violations in the otherwise unchecked hot loop.
     */
    double
    predict(std::span<const double> row) const
    {
        double y = intercept;
        for (std::size_t i = 0; i < attributes.size(); ++i)
            y += coefficients[i] * row[attributes[i]];
        return y;
    }

    /** Render as "CPI = 0.53 + 4.73 * L1DMiss + ..." */
    std::string describe(const std::vector<std::string> &column_names,
                         const std::string &target_name) const;
};

/**
 * Accumulated second moments of a sample subset: enough to fit any
 * attribute-subset OLS model and compute its residual sum of squares
 * without revisiting the rows.
 *
 * Degenerate-input contract (pinned by the property suite): fitting
 * with zero accumulated rows panics ("fit on empty accumulator");
 * non-finite observations poison the moments, make the Cholesky
 * factorization fail at every ridge escalation, and end in a fatal
 * "normal equations unsolvable" error rather than silent garbage.
 */
class GramAccumulator
{
  public:
    /**
     * @param attributes Candidate predictor columns.
     * @param target     Target column index.
     */
    GramAccumulator(std::vector<std::size_t> attributes,
                    std::size_t target);

    /** Fold one dataset row into the moments. */
    void add(std::span<const double> row);

    /** Fold a set of rows of a dataset. */
    void addRows(const Dataset &data,
                 std::span<const std::size_t> rows);

    std::size_t count() const { return count_; }
    double targetMean() const;

    /** Unbiased standard deviation of the target. */
    double targetStddev() const;

    /**
     * Fit a model on a subset of the candidate attributes (indices
     * into the candidate list), with ridge stabilisation.
     *
     * @param subset     Positions within the candidate attribute list.
     * @param out_rss    Residual sum of squares of the fit.
     * @return The fitted model with dataset column indices.
     */
    LinearModel fitSubset(std::span<const std::size_t> subset,
                          double &out_rss) const;

    /**
     * Fit on all candidates, then greedily drop attributes while the
     * compensated error sqrt(RSS/n) * (n + v + 1)/(n - v - 1) does
     * not increase.
     *
     * @param out_adjusted_error The final compensated error.
     */
    LinearModel fitSimplified(double &out_adjusted_error) const;

    /** Compensated error for a given RSS and attribute count. */
    double adjustedError(double rss, std::size_t num_attrs) const;

    /** The candidate attribute columns. */
    const std::vector<std::size_t> &attributes() const
    {
        return attributes_;
    }

  private:
    std::vector<std::size_t> attributes_;
    std::size_t target_;
    std::size_t count_ = 0;

    // Augmented moments over [1, x_0 .. x_{p-1}]: gram_ is the
    // (p+1)x(p+1) matrix of cross products, xy_ the cross products
    // with y, yy_ the target second moment.
    std::vector<double> gram_;
    std::vector<double> xy_;
    double yy_ = 0.0;
};

} // namespace wct

#endif // WCT_MTREE_LINEAR_MODEL_HH
