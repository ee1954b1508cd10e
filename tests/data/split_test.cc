/**
 * @file
 * Unit tests of data/split: sampling without replacement, the
 * train/test protocols of Section VI (including disjointness, checked
 * via a unique-id column), fold partitioning, and determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "data/split.hh"

namespace wct
{
namespace
{

/** Rows labelled 0..n-1 in an Id column so subsets can be compared. */
Dataset
labelledData(std::size_t n)
{
    Dataset data({"Id", "X"});
    for (std::size_t r = 0; r < n; ++r)
        data.addRow({static_cast<double>(r),
                     static_cast<double>(r % 7)});
    return data;
}

std::set<double>
ids(const Dataset &data)
{
    std::set<double> seen;
    const std::size_t col = data.columnIndex("Id");
    for (std::size_t r = 0; r < data.numRows(); ++r)
        seen.insert(data.at(r, col));
    return seen;
}

TEST(SplitTest, SampleIndicesAreUniqueAndInRange)
{
    Rng rng(0x1d5);
    const auto indices = sampleIndices(100, 30, rng);
    EXPECT_EQ(indices.size(), 30u);
    std::set<std::size_t> unique(indices.begin(), indices.end());
    EXPECT_EQ(unique.size(), 30u);
    for (std::size_t index : indices)
        EXPECT_LT(index, 100u);
}

TEST(SplitTest, SampleFractionRoundsAndNeverReturnsEmpty)
{
    const Dataset data = labelledData(101);
    Rng rng(0xfac);
    EXPECT_EQ(sampleFraction(data, 0.1, rng).numRows(), 10u);
    EXPECT_EQ(sampleFraction(data, 1.0, rng).numRows(), 101u);
    // Tiny fractions are clamped to one row for non-empty input.
    EXPECT_EQ(sampleFraction(data, 1e-6, rng).numRows(), 1u);
}

TEST(SplitTest, RandomSplitPartitionsEveryRow)
{
    const Dataset data = labelledData(100);
    Rng rng(0x9a57);
    const TrainTestSplit split = randomSplit(data, 0.3, rng);
    EXPECT_EQ(split.train.numRows(), 30u);
    EXPECT_EQ(split.test.numRows(), 70u);

    std::set<double> all = ids(split.train);
    for (double id : ids(split.test))
        EXPECT_TRUE(all.insert(id).second)
            << "row " << id << " in both parts";
    EXPECT_EQ(all.size(), 100u);
}

TEST(SplitTest, DisjointFractionsAreDisjointAndEquallySized)
{
    const Dataset data = labelledData(200);
    Rng rng(0xd15);
    const TrainTestSplit split = disjointFractions(data, 0.1, rng);
    EXPECT_EQ(split.train.numRows(), 20u);
    EXPECT_EQ(split.test.numRows(), 20u);

    const std::set<double> train_ids = ids(split.train);
    EXPECT_EQ(train_ids.size(), 20u);
    for (double id : ids(split.test))
        EXPECT_EQ(train_ids.count(id), 0u)
            << "row " << id << " in both fractions";
}

TEST(SplitTest, SameSeedIsDeterministicDifferentSeedIsNot)
{
    const Dataset data = labelledData(120);
    Rng first(0xabc);
    Rng second(0xabc);
    Rng third(0xdef);
    const auto split_a = disjointFractions(data, 0.25, first);
    const auto split_b = disjointFractions(data, 0.25, second);
    const auto split_c = disjointFractions(data, 0.25, third);
    EXPECT_EQ(ids(split_a.train), ids(split_b.train));
    EXPECT_NE(ids(split_a.train), ids(split_c.train));
}

TEST(SplitDeathTest, OverlappingFractionsAreRejected)
{
    const Dataset data = labelledData(50);
    Rng rng(0xbad);
    EXPECT_DEATH(disjointFractions(data, 0.6, rng), "");
}

} // namespace
} // namespace wct
