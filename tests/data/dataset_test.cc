/**
 * @file
 * Unit tests for Dataset, CSV round-tripping, and splitting.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "data/csv.hh"
#include "data/dataset.hh"
#include "data/split.hh"
#include "util/rng.hh"

namespace wct
{
namespace
{

Dataset
makeSample(std::size_t rows)
{
    Dataset d({"x", "y", "z"});
    for (std::size_t i = 0; i < rows; ++i) {
        d.addRow({static_cast<double>(i), static_cast<double>(i) * 2.0,
                  static_cast<double>(i) * 0.5});
    }
    return d;
}

TEST(DatasetTest, SchemaAndShape)
{
    Dataset d = makeSample(5);
    EXPECT_EQ(d.numColumns(), 3u);
    EXPECT_EQ(d.numRows(), 5u);
    EXPECT_FALSE(d.empty());
    EXPECT_TRUE(d.hasColumn("y"));
    EXPECT_FALSE(d.hasColumn("w"));
    EXPECT_EQ(d.columnIndex("z"), 2u);
}

TEST(DatasetTest, CellAccess)
{
    Dataset d = makeSample(4);
    EXPECT_DOUBLE_EQ(d.at(3, 1), 6.0);
    d.at(3, 1) = 9.0;
    EXPECT_DOUBLE_EQ(d.at(3, 1), 9.0);
    auto row = d.row(2);
    ASSERT_EQ(row.size(), 3u);
    EXPECT_DOUBLE_EQ(row[0], 2.0);
}

TEST(DatasetTest, ColumnExtraction)
{
    Dataset d = makeSample(3);
    const auto y = d.column("y");
    ASSERT_EQ(y.size(), 3u);
    EXPECT_DOUBLE_EQ(y[2], 4.0);
}

TEST(DatasetTest, SelectRowsPreservesOrder)
{
    Dataset d = makeSample(10);
    Dataset s = d.selectRows({7, 2, 2});
    ASSERT_EQ(s.numRows(), 3u);
    EXPECT_DOUBLE_EQ(s.at(0, 0), 7.0);
    EXPECT_DOUBLE_EQ(s.at(1, 0), 2.0);
    EXPECT_DOUBLE_EQ(s.at(2, 0), 2.0);
}

TEST(DatasetTest, SelectColumnsReorders)
{
    Dataset d = makeSample(2);
    Dataset s = d.selectColumns({"z", "x"});
    EXPECT_EQ(s.columnNames(), (std::vector<std::string>{"z", "x"}));
    EXPECT_DOUBLE_EQ(s.at(1, 0), 0.5);
    EXPECT_DOUBLE_EQ(s.at(1, 1), 1.0);
}

TEST(DatasetTest, AppendSameSchema)
{
    Dataset a = makeSample(3);
    Dataset b = makeSample(2);
    a.append(b);
    EXPECT_EQ(a.numRows(), 5u);
    EXPECT_DOUBLE_EQ(a.at(3, 0), 0.0);
}

TEST(DatasetDeathTest, AppendMismatchedSchemaPanics)
{
    Dataset a = makeSample(1);
    Dataset b(std::vector<std::string>{"p"});
    EXPECT_DEATH(a.append(b), "schema");
}

TEST(DatasetDeathTest, DuplicateColumnNamePanics)
{
    EXPECT_DEATH(Dataset({"a", "a"}), "duplicate");
}

TEST(DatasetDeathTest, RowArityPanics)
{
    Dataset d = makeSample(0);
    EXPECT_DEATH(d.addRow({1.0}), "arity");
}

TEST(DatasetTest, SummaryStatistics)
{
    Dataset d({"v"});
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.addRow({x});
    const auto s = d.summarize(0);
    EXPECT_EQ(s.count, 8u);
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_DOUBLE_EQ(s.min, 2.0);
    EXPECT_DOUBLE_EQ(s.max, 9.0);
    EXPECT_NEAR(s.stddev, 2.1380899, 1e-6);
}

TEST(DatasetTest, SummaryOfEmpty)
{
    Dataset d({"v"});
    const auto s = d.summarize(0);
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(CsvTest, RoundTrip)
{
    Dataset d = makeSample(4);
    std::ostringstream out;
    writeCsv(d, out);
    std::istringstream in(out.str());
    Dataset back = readCsv(in);
    ASSERT_EQ(back.numRows(), d.numRows());
    ASSERT_EQ(back.columnNames(), d.columnNames());
    for (std::size_t r = 0; r < d.numRows(); ++r)
        for (std::size_t c = 0; c < d.numColumns(); ++c)
            EXPECT_DOUBLE_EQ(back.at(r, c), d.at(r, c));
}

TEST(CsvTest, SkipsBlankLines)
{
    std::istringstream in("a,b\n1,2\n\n3,4\n");
    Dataset d = readCsv(in);
    EXPECT_EQ(d.numRows(), 2u);
}

TEST(CsvTest, TrimsWhitespace)
{
    std::istringstream in(" a , b \n 1 , 2 \n");
    Dataset d = readCsv(in);
    EXPECT_EQ(d.columnNames()[0], "a");
    EXPECT_DOUBLE_EQ(d.at(0, 1), 2.0);
}

TEST(CsvDeathTest, NonNumericCellIsFatal)
{
    std::istringstream in("a\nnot_a_number\n");
    EXPECT_EXIT(readCsv(in), ::testing::ExitedWithCode(1), "not a number");
}

TEST(CsvDeathTest, RaggedRowIsFatal)
{
    std::istringstream in("a,b\n1\n");
    EXPECT_EXIT(readCsv(in), ::testing::ExitedWithCode(1), "fields");
}

TEST(SplitTest, SampleIndicesUniqueAndInRange)
{
    Rng rng(5);
    const auto idx = sampleIndices(100, 30, rng);
    EXPECT_EQ(idx.size(), 30u);
    std::set<std::size_t> unique(idx.begin(), idx.end());
    EXPECT_EQ(unique.size(), 30u);
    for (auto i : idx)
        EXPECT_LT(i, 100u);
}

TEST(SplitTest, RandomSplitPartitions)
{
    Dataset d = makeSample(100);
    Rng rng(9);
    const auto split = randomSplit(d, 0.3, rng);
    EXPECT_EQ(split.train.numRows(), 30u);
    EXPECT_EQ(split.test.numRows(), 70u);

    // Every original row id appears exactly once across both parts.
    std::multiset<double> ids;
    for (std::size_t r = 0; r < split.train.numRows(); ++r)
        ids.insert(split.train.at(r, 0));
    for (std::size_t r = 0; r < split.test.numRows(); ++r)
        ids.insert(split.test.at(r, 0));
    EXPECT_EQ(ids.size(), 100u);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_EQ(ids.count(static_cast<double>(i)), 1u);
}

TEST(SplitTest, DisjointFractionsAreDisjoint)
{
    Dataset d = makeSample(200);
    Rng rng(11);
    const auto split = disjointFractions(d, 0.1, rng);
    EXPECT_EQ(split.train.numRows(), 20u);
    EXPECT_EQ(split.test.numRows(), 20u);
    std::set<double> train_ids;
    for (std::size_t r = 0; r < split.train.numRows(); ++r)
        train_ids.insert(split.train.at(r, 0));
    for (std::size_t r = 0; r < split.test.numRows(); ++r)
        EXPECT_EQ(train_ids.count(split.test.at(r, 0)), 0u);
}

TEST(SplitTest, SampleFractionClampsToOneRow)
{
    Dataset d = makeSample(3);
    Rng rng(13);
    const Dataset s = sampleFraction(d, 0.01, rng);
    EXPECT_EQ(s.numRows(), 1u);
}

TEST(SplitTest, DeterministicUnderSeed)
{
    Dataset d = makeSample(40);
    Rng rng1(21);
    Rng rng2(21);
    const auto s1 = randomSplit(d, 0.5, rng1);
    const auto s2 = randomSplit(d, 0.5, rng2);
    ASSERT_EQ(s1.train.numRows(), s2.train.numRows());
    for (std::size_t r = 0; r < s1.train.numRows(); ++r)
        EXPECT_DOUBLE_EQ(s1.train.at(r, 0), s2.train.at(r, 0));
}

} // namespace
} // namespace wct
