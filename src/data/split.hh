/**
 * @file
 * Random sampling and train/test splitting of datasets.
 *
 * Section VI of the paper trains suite models on a random 10% of the
 * samples and tests on an independent random 10%; these helpers
 * implement that protocol deterministically from a seed.
 */

#ifndef WCT_DATA_SPLIT_HH
#define WCT_DATA_SPLIT_HH

#include <cstddef>
#include <vector>

#include "data/dataset.hh"
#include "util/rng.hh"

namespace wct
{

/** A training set and a disjoint test set drawn from one dataset. */
struct TrainTestSplit
{
    Dataset train;
    Dataset test;
};

/** Uniformly sampled row indices without replacement. */
std::vector<std::size_t> sampleIndices(std::size_t population,
                                       std::size_t count, Rng &rng);

/**
 * Draw a random fraction of the rows (without replacement).
 *
 * @param fraction in (0, 1]; the sample size is round(n * fraction),
 *                 clamped to at least one row for non-empty input.
 */
Dataset sampleFraction(const Dataset &data, double fraction, Rng &rng);

/**
 * Split into disjoint train/test parts where the training part holds
 * round(n * train_fraction) random rows and the test part the rest.
 */
TrainTestSplit randomSplit(const Dataset &data, double train_fraction,
                           Rng &rng);

/**
 * Draw two disjoint random subsets of the same dataset, each holding
 * round(n * fraction) rows — the paper's "10% train, independent 10%
 * test" protocol.
 */
TrainTestSplit disjointFractions(const Dataset &data, double fraction,
                                 Rng &rng);

} // namespace wct

#endif // WCT_DATA_SPLIT_HH
