#include "mtree/split_search.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace wct
{

SplitCandidate
findBestSdrSplitPresorted(std::span<const double> values,
                          std::span<const double> targets,
                          double node_sd, std::size_t min_leaf)
{
    wct_assert(values.size() == targets.size(),
               "presorted arrays disagree: ", values.size(), " vs ",
               targets.size());
    wct_assert(min_leaf >= 1, "min_leaf must be at least 1");

    SplitCandidate best;
    const std::size_t n = values.size();
    if (n < 2)
        return best;
    if (values[0] == values[n - 1])
        return best; // constant attribute

    double total = 0.0;
    double total_sq = 0.0;
    for (const double y : targets) {
        total += y;
        total_sq += y * y;
    }

    // One pass over the boundaries with prefix sums; the side
    // variances come from E[y²] - E[y]² with a clamp against
    // cancellation. Replacement only on strict improvement keeps the
    // lowest-value boundary among SDR ties.
    double best_sdr = -1.0;
    double left_sum = 0.0;
    double left_sq = 0.0;
    const double fn = static_cast<double>(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const double y = targets[i];
        left_sum += y;
        left_sq += y * y;
        if (values[i] == values[i + 1])
            continue; // not a boundary
        const std::size_t nl = i + 1;
        const std::size_t nr = n - nl;
        if (nl < min_leaf || nr < min_leaf)
            continue;

        const double fl = static_cast<double>(nl);
        const double fr = static_cast<double>(nr);
        const double var_l = std::max(
            0.0, left_sq / fl - (left_sum / fl) * (left_sum / fl));
        const double right_sum = total - left_sum;
        const double right_sq = total_sq - left_sq;
        const double var_r = std::max(
            0.0,
            right_sq / fr - (right_sum / fr) * (right_sum / fr));
        const double sdr = node_sd - (fl / fn) * std::sqrt(var_l) -
            (fr / fn) * std::sqrt(var_r);
        if (sdr > best_sdr) {
            best_sdr = sdr;
            best.valid = true;
            best.sdr = sdr;
            best.leftCount = nl;
            best.value = 0.5 * (values[i] + values[i + 1]);
        }
    }
    return best;
}

std::size_t
stablePartitionPresorted(PresortedColumn &column, std::size_t lo,
                         std::size_t hi, const unsigned char *goes_left,
                         PresortedColumn &scratch)
{
    scratch.values.clear();
    scratch.targets.clear();
    scratch.rows.clear();
    // Capacity for the worst case up front: the push_backs below can
    // then never reallocate (first use of a fresh scratch would
    // otherwise pay a geometric growth chain per attribute).
    scratch.values.reserve(hi - lo);
    scratch.targets.reserve(hi - lo);
    scratch.rows.reserve(hi - lo);
    // Forward pass: left entries compact toward lo in place, right
    // entries buffer in scratch and are copied back behind them —
    // both sides keep their relative (sorted, ties-by-row) order.
    std::size_t out = lo;
    for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t row = column.rows[i];
        if (goes_left[row]) {
            column.values[out] = column.values[i];
            column.targets[out] = column.targets[i];
            column.rows[out] = row;
            ++out;
        } else {
            scratch.values.push_back(column.values[i]);
            scratch.targets.push_back(column.targets[i]);
            scratch.rows.push_back(row);
        }
    }
    std::copy(scratch.values.begin(), scratch.values.end(),
              column.values.begin() + static_cast<std::ptrdiff_t>(out));
    std::copy(scratch.targets.begin(), scratch.targets.end(),
              column.targets.begin() +
                  static_cast<std::ptrdiff_t>(out));
    std::copy(scratch.rows.begin(), scratch.rows.end(),
              column.rows.begin() + static_cast<std::ptrdiff_t>(out));
    return out - lo;
}

} // namespace wct
