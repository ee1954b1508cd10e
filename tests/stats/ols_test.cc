/**
 * @file
 * Unit tests of the Cholesky kernel under every least-squares fit
 * (GramAccumulator's are in tests/mtree/linear_model_test.cc).
 */

#include <gtest/gtest.h>

#include <vector>

#include "stats/ols.hh"

namespace wct
{
namespace
{

TEST(CholeskyTest, SolvesSpdSystem)
{
    // A = [[4, 2], [2, 3]], b = [10, 9] -> x = [1.5, 2].
    std::vector<double> a = {4.0, 2.0, 2.0, 3.0};
    std::vector<double> b = {10.0, 9.0};
    ASSERT_TRUE(choleskySolveInPlace(a, b, 2));
    EXPECT_NEAR(b[0], 1.5, 1e-12);
    EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(CholeskyTest, RejectsIndefiniteMatrix)
{
    std::vector<double> a = {1.0, 2.0, 2.0, 1.0}; // eigenvalues 3, -1
    std::vector<double> b = {1.0, 1.0};
    EXPECT_FALSE(choleskySolveInPlace(a, b, 2));
}

TEST(CholeskyTest, IdentitySolve)
{
    std::vector<double> a = {1.0, 0.0, 0.0, 1.0};
    std::vector<double> b = {7.0, -3.0};
    ASSERT_TRUE(choleskySolveInPlace(a, b, 2));
    EXPECT_DOUBLE_EQ(b[0], 7.0);
    EXPECT_DOUBLE_EQ(b[1], -3.0);
}

} // namespace
} // namespace wct
