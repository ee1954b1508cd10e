/**
 * @file
 * Unit tests for string helpers and the text table renderer.
 */

#include <gtest/gtest.h>

#include "util/string_utils.hh"
#include "util/text_table.hh"

namespace wct
{
namespace
{

TEST(SplitTest, BasicFields)
{
    const auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields)
{
    const auto parts = split(",x,", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "");
    EXPECT_EQ(parts[1], "x");
    EXPECT_EQ(parts[2], "");
}

TEST(SplitTest, NoDelimiterSinglePiece)
{
    const auto parts = split("hello", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "hello");
}

TEST(TrimTest, StripsBothSides)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim("\t\nabc\r "), "abc");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("abc"), "abc");
}

TEST(JoinTest, RoundTripsWithSplit)
{
    const std::vector<std::string> pieces = {"p", "q", "r"};
    EXPECT_EQ(join(pieces, ","), "p,q,r");
    EXPECT_EQ(split(join(pieces, ","), ','), pieces);
}

TEST(JoinTest, EmptyAndSingle)
{
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(AffixTest, StartsWith)
{
    EXPECT_TRUE(startsWith("429.mcf", "429"));
    EXPECT_FALSE(startsWith("429.mcf", "430"));
    EXPECT_TRUE(startsWith("x", ""));
}

TEST(FormatTest, FixedPrecision)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatDouble(-0.5, 1), "-0.5");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
}

TEST(FormatTest, CompactSwitchesToScientificForTinyValues)
{
    EXPECT_EQ(formatCompact(0.00019), "1.90e-04");
    EXPECT_EQ(formatCompact(0.0), "0.0000");
    EXPECT_EQ(formatCompact(0.96), "0.9600");
    EXPECT_EQ(formatCompact(1172.0), "1172.0");
}

TEST(TextTableTest, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator rule present.
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TextTableTest, RuleInsertedBetweenRows)
{
    TextTable t({"c"});
    t.addRow({"x"});
    t.addRule();
    t.addRow({"y"});
    const std::string out = t.render();
    // Header rule plus the explicit one.
    std::size_t rules = 0;
    std::size_t pos = 0;
    while ((pos = out.find("-\n", pos)) != std::string::npos) {
        ++rules;
        pos += 2;
    }
    EXPECT_EQ(rules, 2u);
}

TEST(TextTableDeathTest, RowArityMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

} // namespace
} // namespace wct
