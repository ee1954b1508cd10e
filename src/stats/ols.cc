#include "stats/ols.hh"

#include <cmath>

#include "util/logging.hh"

namespace wct
{

bool
choleskySolveInPlace(std::vector<double> &a, std::vector<double> &b,
                     std::size_t n)
{
    wct_assert(a.size() == n * n && b.size() == n,
               "cholesky dimensions mismatch");

    // Factor A = L L^T in the lower triangle of a.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double sum = a[i * n + j];
            for (std::size_t k = 0; k < j; ++k)
                sum -= a[i * n + k] * a[j * n + k];
            if (i == j) {
                if (sum <= 0.0 || !std::isfinite(sum))
                    return false;
                a[i * n + i] = std::sqrt(sum);
            } else {
                a[i * n + j] = sum / a[j * n + j];
            }
        }
    }

    // Forward substitution: L z = b.
    for (std::size_t i = 0; i < n; ++i) {
        double sum = b[i];
        for (std::size_t k = 0; k < i; ++k)
            sum -= a[i * n + k] * b[k];
        b[i] = sum / a[i * n + i];
    }
    // Back substitution: L^T x = z.
    for (std::size_t ii = n; ii > 0; --ii) {
        const std::size_t i = ii - 1;
        double sum = b[i];
        for (std::size_t k = i + 1; k < n; ++k)
            sum -= a[k * n + i] * b[k];
        b[i] = sum / a[i * n + i];
    }
    return true;
}

} // namespace wct
