/**
 * @file
 * Differential and metamorphic properties of the prefix-sum SDR split
 * search the tree builder runs, findBestSdrSplitPresorted
 * (mtree/split_search), against the exhaustive O(n^2) oracle. Each
 * generated node reaches the kernel through oracle::sortedNodeSplit,
 * which stably sorts it by value as the builder's presorted columns
 * are.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "tests/support/oracles.hh"
#include "tests/support/prop.hh"

namespace wct
{
namespace
{

using prop::CheckResult;
using prop::Config;
using prop::Gen;
using oracle::Observation;
using oracle::sortedNodeSplit;

/** Population sd of the targets, the node_sd input of the search. */
double
targetSd(const std::vector<Observation> &observations)
{
    if (observations.empty())
        return 0.0;
    double sum = 0.0;
    for (const Observation &obs : observations)
        sum += obs.target;
    const double mean = sum / static_cast<double>(observations.size());
    double ss = 0.0;
    for (const Observation &obs : observations)
        ss += (obs.target - mean) * (obs.target - mean);
    return std::sqrt(ss / static_cast<double>(observations.size()));
}

/**
 * Observations with realistic structure: half the trials use a small
 * value grid (duplicate attribute values, the case the boundary scan
 * must skip), and targets follow a noisy step so there is a split
 * worth finding.
 */
Gen<std::vector<Observation>>
observationLists()
{
    Gen<std::vector<Observation>> gen;
    gen.generate = [](Rng &rng) {
        const std::size_t n = 2 + rng.uniformInt(119);
        const bool grid = rng.bernoulli(0.5);
        const double step_at = rng.uniform(-4.0, 4.0);
        const double low = rng.uniform(-4.0, 4.0);
        const double high = low + rng.uniform(-4.0, 4.0);
        std::vector<Observation> observations(n);
        for (Observation &obs : observations) {
            double value = rng.uniform(-8.0, 8.0);
            if (grid)
                value = std::round(value);
            obs.value = value;
            obs.target = (value <= step_at ? low : high) +
                rng.normal(0.0, 0.2);
        }
        return observations;
    };
    gen.shrink = [](const std::vector<Observation> &observations) {
        std::vector<std::vector<Observation>> candidates;
        const std::size_t n = observations.size();
        if (n >= 4) {
            candidates.emplace_back(observations.begin() + n / 2,
                                    observations.end());
            candidates.emplace_back(observations.begin(),
                                    observations.begin() + (n + 1) / 2);
        }
        if (n > 2 && n <= 24) {
            for (std::size_t i = 0; i < n; ++i) {
                std::vector<Observation> fewer = observations;
                fewer.erase(fewer.begin() +
                            static_cast<std::ptrdiff_t>(i));
                candidates.push_back(std::move(fewer));
            }
        }
        return candidates;
    };
    gen.show = [](const std::vector<Observation> &observations) {
        std::string out =
            "[" + std::to_string(observations.size()) + "]{";
        const std::size_t shown =
            std::min<std::size_t>(observations.size(), 24);
        for (std::size_t i = 0; i < shown; ++i) {
            if (i > 0)
                out += ", ";
            out += "(" + prop::showDouble(observations[i].value) +
                " -> " + prop::showDouble(observations[i].target) + ")";
        }
        if (shown < observations.size())
            out += ", ...";
        return out + "}";
    };
    return gen;
}

/** One differential trial at a given min_leaf. */
std::optional<std::string>
differential(const std::vector<Observation> &observations,
             std::size_t min_leaf)
{
    const double node_sd = targetSd(observations);
    const SplitCandidate fast =
        sortedNodeSplit(observations, node_sd, min_leaf);
    const SplitCandidate slow =
        oracle::bestSdrSplitExhaustive(observations, node_sd, min_leaf);

    if (fast.valid != slow.valid)
        return std::string("validity mismatch: fast ") +
            (fast.valid ? "valid" : "invalid") + ", oracle " +
            (slow.valid ? "valid" : "invalid");
    if (!fast.valid)
        return std::nullopt;

    // SDR values from the two formulations must agree up to the
    // inherent error of the prefix-sum form: subtracting prefix from
    // total sums leaves an O(eps * y^2) residue in a child variance,
    // and sqrt turns that into an O(sqrt(eps) * |y|) error in the
    // child sd. On an exact tie between boundaries both sides keep
    // the lowest value, so a differing split value is only acceptable
    // for an FP near-tie, which the SDR comparison already bounds.
    double max_abs_target = 0.0;
    for (const Observation &obs : observations)
        max_abs_target = std::max(max_abs_target,
                                  std::abs(obs.target));
    const double tol = 1e-7 * (1.0 + max_abs_target);
    if (std::abs(fast.sdr - slow.sdr) > tol)
        return "sdr mismatch: fast " + prop::showDouble(fast.sdr) +
            " vs oracle " + prop::showDouble(slow.sdr);
    return std::nullopt;
}

TEST(SplitSearchProp, MatchesExhaustiveOracle)
{
    const Config config = Config::fromEnv(0x5d50, 100);
    for (const std::size_t min_leaf : {std::size_t{1}, std::size_t{2},
                                       std::size_t{5}}) {
        const CheckResult result =
            prop::check<std::vector<Observation>>(
                config, observationLists(),
                [min_leaf](const std::vector<Observation> &obs) {
                    return differential(obs, min_leaf);
                });
        WCT_EXPECT_PROP(result, config);
    }
}

TEST(SplitSearchProp, SdrBoundedByNodeSd)
{
    const Config config = Config::fromEnv(0xb0d5, 100);
    const CheckResult result =
        prop::check<std::vector<Observation>>(
            config, observationLists(),
            [](const std::vector<Observation> &observations)
                -> std::optional<std::string> {
                const double node_sd = targetSd(observations);
                const SplitCandidate cand =
                    sortedNodeSplit(observations, node_sd, 1);
                if (!cand.valid)
                    return std::nullopt;
                if (cand.sdr < -1e-12)
                    return "negative sdr " +
                        prop::showDouble(cand.sdr);
                if (cand.sdr > node_sd + 1e-9)
                    return "sdr " + prop::showDouble(cand.sdr) +
                        " exceeds node sd " +
                        prop::showDouble(node_sd);
                return std::nullopt;
            });
    WCT_EXPECT_PROP(result, config);
}

TEST(SplitSearchProp, RespectsMinLeaf)
{
    const Config config = Config::fromEnv(0x1eaf, 100);
    const CheckResult result =
        prop::check<std::vector<Observation>>(
            config, observationLists(),
            [](const std::vector<Observation> &observations)
                -> std::optional<std::string> {
                const std::size_t min_leaf = 3;
                const double node_sd = targetSd(observations);
                const SplitCandidate cand =
                    sortedNodeSplit(observations, node_sd, min_leaf);
                if (!cand.valid)
                    return std::nullopt;
                std::size_t left = 0;
                for (const Observation &obs : observations)
                    left += obs.value <= cand.value;
                if (left != cand.leftCount)
                    return "leftCount " +
                        std::to_string(cand.leftCount) +
                        " but split puts " + std::to_string(left) +
                        " rows left";
                if (left < min_leaf ||
                    observations.size() - left < min_leaf)
                    return "split violates min_leaf: " +
                        std::to_string(left) + "/" +
                        std::to_string(observations.size() - left);
                return std::nullopt;
            });
    WCT_EXPECT_PROP(result, config);
}

TEST(SplitSearchProp, TargetShiftLeavesSplitInvariant)
{
    // SDR depends on deviations only: shifting every target by a
    // constant must keep the chosen split and its SDR (metamorphic).
    const Config config = Config::fromEnv(0x5417, 100);
    const CheckResult result =
        prop::check<std::vector<Observation>>(
            config, observationLists(),
            [](const std::vector<Observation> &observations)
                -> std::optional<std::string> {
                const double node_sd = targetSd(observations);
                const SplitCandidate base =
                    sortedNodeSplit(observations, node_sd, 1);

                std::vector<Observation> shifted = observations;
                for (Observation &obs : shifted)
                    obs.target += 100.0;
                const SplitCandidate moved =
                    sortedNodeSplit(shifted, node_sd, 1);

                if (base.valid != moved.valid)
                    return "validity changed under target shift";
                if (!base.valid)
                    return std::nullopt;
                // The shift perturbs the E[y^2] - mean^2 form, so
                // allow a loose absolute tolerance.
                if (std::abs(base.sdr - moved.sdr) >
                    1e-6 * std::max(1.0, node_sd))
                    return "sdr moved from " +
                        prop::showDouble(base.sdr) + " to " +
                        prop::showDouble(moved.sdr);
                if (base.value != moved.value)
                    return "split moved from " +
                        prop::showDouble(base.value) + " to " +
                        prop::showDouble(moved.value);
                return std::nullopt;
            });
    WCT_EXPECT_PROP(result, config);
}

TEST(SplitSearchProp, DegenerateInputsAreInvalid)
{
    EXPECT_FALSE(sortedNodeSplit({}, 1.0, 1).valid);
    EXPECT_FALSE(sortedNodeSplit({{1.0, 2.0}}, 1.0, 1).valid);

    // A constant attribute offers no boundary.
    EXPECT_FALSE(
        sortedNodeSplit({{3.0, 1.0}, {3.0, 5.0}, {3.0, 9.0}}, 1.0, 1)
            .valid);

    // min_leaf too large for any admissible boundary.
    EXPECT_FALSE(
        sortedNodeSplit({{0.0, 1.0}, {1.0, 2.0}, {2.0, 3.0}}, 1.0, 2)
            .valid);
}

} // namespace
} // namespace wct
