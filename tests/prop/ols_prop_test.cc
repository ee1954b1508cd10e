/**
 * @file
 * Differential properties of the least-squares fit every leaf model
 * runs, GramAccumulator::fitSubset (mtree/linear_model: accumulated
 * normal equations, ridge-stabilised Cholesky), against closed-form
 * Cramer's-rule oracles, plus the intercept/residual identities every
 * least-squares fit must satisfy.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "mtree/linear_model.hh"
#include "tests/support/oracles.hh"
#include "tests/support/prop.hh"

namespace wct
{
namespace
{

using prop::CheckResult;
using prop::Config;

prop::DatasetGenConfig
shapeWithPredictors(std::size_t predictors)
{
    prop::DatasetGenConfig shape;
    shape.minRows = 8;
    shape.maxRows = 120;
    shape.minPredictors = predictors;
    shape.maxPredictors = predictors;
    shape.noise = 0.5;
    return shape;
}

/**
 * Fit the target (the last column) on `predictors` (dataset column
 * indices, in this candidate order) over every row.
 */
LinearModel
fitColumns(const Dataset &data, std::vector<std::size_t> predictors,
           double *rss = nullptr)
{
    GramAccumulator gram(std::move(predictors),
                         data.numColumns() - 1);
    std::vector<std::size_t> rows(data.numRows());
    std::iota(rows.begin(), rows.end(), std::size_t(0));
    gram.addRows(data, rows);
    std::vector<std::size_t> all(gram.attributes().size());
    std::iota(all.begin(), all.end(), std::size_t(0));
    double fit_rss = 0.0;
    LinearModel model = gram.fitSubset(all, fit_rss);
    if (rss != nullptr)
        *rss = fit_rss;
    return model;
}

bool
close(double a, double b, double rel)
{
    return std::abs(a - b) <=
        rel * std::max({1.0, std::abs(a), std::abs(b)});
}

TEST(OlsProp, OnePredictorMatchesClosedForm)
{
    const Config config = Config::fromEnv(0x0151, 100);
    const CheckResult result = prop::check<Dataset>(
        config, prop::datasets(shapeWithPredictors(1)),
        [](const Dataset &data) -> std::optional<std::string> {
            const std::vector<double> x = data.column("x0");
            const std::vector<double> y = data.column("y");
            const auto want = oracle::ols1(x, y);
            if (!want)
                return std::nullopt; // constant predictor
            // The ridge starts at 1e-9 of the mean predictor energy,
            // far below the tolerance: on well-conditioned data the
            // fit is the exact least-squares solution.
            const LinearModel got = fitColumns(data, {0});
            if (!close(got.intercept, want->b0, 1e-6))
                return "intercept " + prop::showDouble(got.intercept) +
                    " vs oracle " + prop::showDouble(want->b0);
            if (got.coefficients.size() != 1 ||
                !close(got.coefficients[0], want->b1, 1e-6))
                return "slope " +
                    prop::showDouble(got.coefficients[0]) +
                    " vs oracle " + prop::showDouble(want->b1);
            return std::nullopt;
        });
    WCT_EXPECT_PROP(result, config);
}

TEST(OlsProp, TwoPredictorsMatchClosedForm)
{
    const Config config = Config::fromEnv(0x0152, 100);
    const CheckResult result = prop::check<Dataset>(
        config, prop::datasets(shapeWithPredictors(2)),
        [](const Dataset &data) -> std::optional<std::string> {
            const std::vector<double> x1 = data.column("x0");
            const std::vector<double> x2 = data.column("x1");
            const std::vector<double> y = data.column("y");
            const auto want = oracle::ols2(x1, x2, y);
            if (!want)
                return std::nullopt; // near-singular system
            const LinearModel got = fitColumns(data, {0, 1});
            if (!close(got.intercept, want->b0, 1e-6))
                return "intercept " + prop::showDouble(got.intercept) +
                    " vs oracle " + prop::showDouble(want->b0);
            if (!close(got.coefficients[0], want->b1, 1e-6) ||
                !close(got.coefficients[1], want->b2, 1e-6))
                return "coefficients (" +
                    prop::showDouble(got.coefficients[0]) + ", " +
                    prop::showDouble(got.coefficients[1]) +
                    ") vs oracle (" + prop::showDouble(want->b1) +
                    ", " + prop::showDouble(want->b2) + ")";
            return std::nullopt;
        });
    WCT_EXPECT_PROP(result, config);
}

TEST(OlsProp, FitPassesThroughCentroidWithZeroResidualSum)
{
    // With an intercept, least squares forces sum(residuals) = 0 and
    // therefore predict(mean(x)) = mean(y).
    const Config config = Config::fromEnv(0xce7d, 100);
    prop::DatasetGenConfig shape;
    shape.minRows = 8;
    shape.maxRows = 120;
    shape.minPredictors = 1;
    shape.maxPredictors = 4;
    shape.noise = 0.5;
    const CheckResult result = prop::check<Dataset>(
        config, prop::datasets(shape),
        [](const Dataset &data) -> std::optional<std::string> {
            const std::size_t p = data.numColumns() - 1;
            std::vector<std::size_t> predictors(p);
            std::iota(predictors.begin(), predictors.end(),
                      std::size_t(0));
            double rss = 0.0;
            const LinearModel fit = fitColumns(data, predictors, &rss);
            const std::vector<double> y = data.column("y");
            const double y_mean = oracle::meanTwoPass(y);

            if (rss < 0.0)
                return "negative RSS " + prop::showDouble(rss);
            double tss = 0.0;
            for (double v : y)
                tss += (v - y_mean) * (v - y_mean);
            const double r_squared = tss > 0.0 ? 1.0 - rss / tss : 1.0;
            if (r_squared > 1.0 + 1e-9)
                return "R^2 " + prop::showDouble(r_squared);

            std::vector<double> centroid(data.numColumns(), 0.0);
            for (std::size_t c = 0; c < p; ++c)
                centroid[c] = oracle::meanTwoPass(data.column(c));
            const double at_centroid = fit.predict(centroid);
            if (!close(at_centroid, y_mean, 1e-6))
                return "predict(centroid) " +
                    prop::showDouble(at_centroid) + " vs mean(y) " +
                    prop::showDouble(y_mean);

            double residual_sum = 0.0;
            for (std::size_t r = 0; r < data.numRows(); ++r)
                residual_sum += y[r] - fit.predict(data.row(r));
            if (std::abs(residual_sum) >
                1e-6 * static_cast<double>(data.numRows()))
                return "residual sum " +
                    prop::showDouble(residual_sum);
            return std::nullopt;
        });
    WCT_EXPECT_PROP(result, config);
}

TEST(OlsProp, PredictionInvariantUnderPredictorOrder)
{
    // Swapping the two predictor columns permutes the coefficients
    // but must leave fitted values unchanged (metamorphic).
    const Config config = Config::fromEnv(0x0dd0, 100);
    const CheckResult result = prop::check<Dataset>(
        config, prop::datasets(shapeWithPredictors(2)),
        [](const Dataset &data) -> std::optional<std::string> {
            const LinearModel forward = fitColumns(data, {0, 1});
            const LinearModel swapped = fitColumns(data, {1, 0});
            for (std::size_t r = 0; r < data.numRows(); ++r) {
                const double a = forward.predict(data.row(r));
                const double b = swapped.predict(data.row(r));
                if (!close(a, b, 1e-6))
                    return "row " + std::to_string(r) +
                        " prediction " + prop::showDouble(a) +
                        " vs swapped " + prop::showDouble(b);
            }
            return std::nullopt;
        });
    WCT_EXPECT_PROP(result, config);
}

} // namespace
} // namespace wct
