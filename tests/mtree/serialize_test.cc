/**
 * @file
 * Round-trip tests for model tree serialization.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "mtree/serialize.hh"
#include "util/rng.hh"

namespace wct
{
namespace
{

Dataset
trainingData(std::size_t n, std::uint64_t seed)
{
    Dataset d({"x0", "x1", "y"});
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        const double x0 = rng.uniform(0.0, 1.0);
        const double x1 = rng.uniform(0.0, 1.0);
        const double y = x0 <= 0.5 ? 1.0 + 2.0 * x1
                                   : 8.0 - x1 + rng.normal(0.0, 0.05);
        d.addRow({x0, x1, y});
    }
    return d;
}

TEST(SerializeTest, RoundTripPredictionsIdentical)
{
    const Dataset d = trainingData(2000, 1);
    const ModelTree original = ModelTree::train(d, "y");

    std::stringstream buffer;
    original.save(buffer);
    const ModelTree restored = ModelTree::load(buffer);

    EXPECT_EQ(restored.numLeaves(), original.numLeaves());
    EXPECT_EQ(restored.targetName(), "y");
    EXPECT_EQ(restored.schema(), original.schema());
    for (std::size_t r = 0; r < d.numRows(); r += 7) {
        const auto row = d.row(r);
        EXPECT_DOUBLE_EQ(restored.predict(row), original.predict(row));
        EXPECT_EQ(restored.classify(row), original.classify(row));
    }
}

TEST(SerializeTest, RoundTripLeafMetadata)
{
    const Dataset d = trainingData(1500, 2);
    const ModelTree original = ModelTree::train(d, "y");
    std::stringstream buffer;
    original.save(buffer);
    const ModelTree restored = ModelTree::load(buffer);

    ASSERT_EQ(restored.leaves().size(), original.leaves().size());
    for (std::size_t i = 0; i < original.leaves().size(); ++i) {
        EXPECT_EQ(restored.leaves()[i].count,
                  original.leaves()[i].count);
        EXPECT_DOUBLE_EQ(restored.leaves()[i].meanTarget,
                         original.leaves()[i].meanTarget);
        EXPECT_DOUBLE_EQ(restored.leaves()[i].fraction,
                         original.leaves()[i].fraction);
    }
}

TEST(SerializeTest, DescribeSurvivesRoundTrip)
{
    const Dataset d = trainingData(1000, 3);
    const ModelTree original = ModelTree::train(d, "y");
    std::stringstream buffer;
    original.save(buffer);
    const ModelTree restored = ModelTree::load(buffer);
    EXPECT_EQ(restored.describe(), original.describe());
    EXPECT_EQ(restored.toDot(), original.toDot());
}

TEST(SerializeTest, DoubleRoundTripIsStable)
{
    const Dataset d = trainingData(1000, 4);
    const ModelTree tree = ModelTree::train(d, "y");
    std::stringstream first;
    tree.save(first);
    const std::string text1 = first.str();
    const ModelTree again = ModelTree::load(first);
    std::stringstream second;
    again.save(second);
    EXPECT_EQ(text1, second.str());
}

TEST(SerializeTest, FileRoundTrip)
{
    const Dataset d = trainingData(800, 5);
    const ModelTree tree = ModelTree::train(d, "y");
    const std::string path = "/tmp/wct_serialize_test.mtree";
    writeModelTreeFile(tree, path);
    const ModelTree restored = readModelTreeFile(path);
    EXPECT_EQ(restored.numLeaves(), tree.numLeaves());
    for (std::size_t r = 0; r < 50; ++r)
        EXPECT_DOUBLE_EQ(restored.predict(d.row(r)),
                         tree.predict(d.row(r)));
}

TEST(SerializeTest, SingleLeafTree)
{
    Dataset d({"x", "y"});
    for (int i = 0; i < 50; ++i)
        d.addRow({static_cast<double>(i), 2.5});
    const ModelTree tree = ModelTree::train(d, "y");
    std::stringstream buffer;
    tree.save(buffer);
    const ModelTree restored = ModelTree::load(buffer);
    EXPECT_EQ(restored.numLeaves(), 1u);
    const std::vector<double> row = {99.0, 0.0};
    EXPECT_NEAR(restored.predict(row), 2.5, 1e-12);
}

TEST(SerializeTest, TryReadRoundTripsWithoutError)
{
    const Dataset d = trainingData(800, 7);
    const ModelTree tree = ModelTree::train(d, "y");
    std::stringstream buffer;
    tree.save(buffer);
    std::string err;
    const auto restored = tryReadModelTree(buffer, &err);
    ASSERT_TRUE(restored.has_value()) << err;
    EXPECT_TRUE(err.empty());
    EXPECT_EQ(restored->numLeaves(), tree.numLeaves());
    for (std::size_t r = 0; r < 50; ++r)
        EXPECT_DOUBLE_EQ(restored->predict(d.row(r)),
                         tree.predict(d.row(r)));
}

TEST(SerializeTest, TryReadRejectsGarbageNonFatally)
{
    std::stringstream buffer("not a model\n");
    std::string err;
    EXPECT_FALSE(tryReadModelTree(buffer, &err).has_value());
    EXPECT_NE(err.find("magic"), std::string::npos);
}

TEST(SerializeTest, TryReadRejectsTruncationNonFatally)
{
    const Dataset d = trainingData(500, 8);
    const ModelTree tree = ModelTree::train(d, "y");
    std::stringstream buffer;
    tree.save(buffer);
    std::string text = buffer.str();
    text.resize(text.size() / 2);
    std::stringstream half(text);
    std::string err;
    EXPECT_FALSE(tryReadModelTree(half, &err).has_value());
    EXPECT_NE(err.find("model tree"), std::string::npos);
}

TEST(SerializeTest, TryReadRejectsOutOfSchemaAttribute)
{
    std::stringstream buffer(
        "wct-model-tree v1\n"
        "target y\n"
        "schema 2 x y\n"
        "range 0 1 0.5 1\n"
        "node leaf 10 0.5 0.5 1 7 2.0\n" // attribute 7 > schema
        "end\n");
    std::string err;
    EXPECT_FALSE(tryReadModelTree(buffer, &err).has_value());
    EXPECT_NE(err.find("outside schema"), std::string::npos);
}

TEST(SerializeTest, TryReadRejectsRangesClampCannotUse)
{
    // Predictions clamp to [min - sd, max + sd]; bounds out of order
    // are a precondition violation of std::clamp, not a model.
    for (const char *range : {"range 1 0 0.5 1\n", "range 0 1 -0.5 1\n"}) {
        SCOPED_TRACE(range);
        std::stringstream buffer(std::string("wct-model-tree v1\n"
                                             "target y\n"
                                             "schema 2 x y\n") +
                                 range +
                                 "node leaf 10 0.5 0.5 0\n"
                                 "end\n");
        std::string err;
        EXPECT_FALSE(tryReadModelTree(buffer, &err).has_value());
        EXPECT_NE(err.find("range minimum above maximum"),
                  std::string::npos);
    }
}

TEST(SerializeTest, TryReadBoundsNestingDepth)
{
    // A hostile input that nests splits forever must be cut off by
    // the recursion bound, not blow the stack.
    std::string text =
        "wct-model-tree v1\n"
        "target y\n"
        "schema 2 x y\n"
        "range 0 1 0.5 1\n";
    for (int i = 0; i < 600; ++i)
        text += "node split 0 0.5 10 0.5\n";
    std::stringstream buffer(text);
    std::string err;
    EXPECT_FALSE(tryReadModelTree(buffer, &err).has_value());
    EXPECT_NE(err.find("nesting too deep"), std::string::npos);
}

/**
 * Left-linear chain of `splits` split nodes, every right child a
 * leaf. The deepest node sits at parse depth == splits, so the text
 * probes the recursion bound exactly.
 */
std::string
chainTreeText(std::size_t splits)
{
    std::string text =
        "wct-model-tree v1\n"
        "target y\n"
        "schema 2 x y\n"
        "range 0 1 0.5 1\n";
    for (std::size_t i = 0; i < splits; ++i)
        text += "node split 0 0.5 10 0.5\n";
    // Pre-order: the terminal left leaf, then every right leaf.
    for (std::size_t i = 0; i < splits + 1; ++i)
        text += "node leaf 5 0.5 0.5 0\n";
    text += "end\n";
    return text;
}

TEST(SerializeTest, NestingDepthBoundIsExact)
{
    // Exactly at the documented bound (512) must parse; one level
    // past it must be refused — the cutoff is a precise contract,
    // not a fuzzy safety margin.
    {
        std::stringstream atCap(chainTreeText(512));
        std::string err;
        const auto tree = tryReadModelTree(atCap, &err);
        ASSERT_TRUE(tree.has_value()) << err;
        EXPECT_EQ(tree->numLeaves(), 513u);
    }
    {
        std::stringstream pastCap(chainTreeText(513));
        std::string err;
        EXPECT_FALSE(tryReadModelTree(pastCap, &err).has_value());
        EXPECT_NE(err.find("nesting too deep"), std::string::npos);
    }
}

TEST(SerializeTest, SchemaSizeCapIsExact)
{
    const auto header = [](std::size_t schemaSize) {
        return "wct-model-tree v1\n"
               "target y\n"
               "schema " +
               std::to_string(schemaSize) + " x y\n";
    };
    // One past the 2^20 cap dies on the cap itself.
    {
        std::stringstream in(header((1u << 20) + 1));
        std::string err;
        EXPECT_FALSE(tryReadModelTree(in, &err).has_value());
        EXPECT_NE(err.find("implausible schema size"),
                  std::string::npos);
    }
    // Exactly at the cap passes the plausibility gate and then fails
    // honestly on the names the stream does not carry.
    {
        std::stringstream in(header(1u << 20));
        std::string err;
        EXPECT_FALSE(tryReadModelTree(in, &err).has_value());
        EXPECT_NE(err.find("truncated schema"), std::string::npos);
    }
}

TEST(SerializeTest, FileByteCapIsExact)
{
    // Sparse files probe the kMaxModelTreeFileBytes gate without
    // writing 256 MiB: one byte past the cap is refused on size
    // alone; exactly at the cap reaches the parser (and then fails
    // on the magic line, proving the size gate let it through).
    namespace fs = std::filesystem;
    const std::string path = "/tmp/wct_tree_cap_test_" +
                             std::to_string(::getpid()) + ".mtree";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "not a tree\n";
    }
    std::string err;

    fs::resize_file(path, kMaxModelTreeFileBytes + 1);
    EXPECT_FALSE(tryReadModelTreeFile(path, &err).has_value());
    EXPECT_NE(err.find("too large"), std::string::npos);

    fs::resize_file(path, kMaxModelTreeFileBytes);
    err.clear();
    EXPECT_FALSE(tryReadModelTreeFile(path, &err).has_value());
    EXPECT_NE(err.find("magic"), std::string::npos);

    fs::remove(path);
}

TEST(SerializeTest, TryReadFileVariantReportsOpenFailures)
{
    std::string err;
    EXPECT_FALSE(
        tryReadModelTreeFile("/nonexistent/dir/model.mtree", &err)
            .has_value());
    EXPECT_FALSE(err.empty());

    const Dataset d = trainingData(400, 9);
    const ModelTree tree = ModelTree::train(d, "y");
    const std::string path = "/tmp/wct_tryread_test.mtree";
    writeModelTreeFile(tree, path);
    const auto restored = tryReadModelTreeFile(path, &err);
    ASSERT_TRUE(restored.has_value()) << err;
    EXPECT_EQ(restored->numLeaves(), tree.numLeaves());
}

/** Fields of a two-leaf tree text, each spelled as the test gives it. */
struct TreeFields
{
    std::string clamp = "1";         ///< int
    std::string splitValue = "0.5";  ///< double
    std::string splitCount = "10";   ///< unsigned
    std::string beforeEnd = "\n";    ///< between the last leaf and `end`
    std::string tail = "\n";         ///< after `end`
};

std::string
treeText(const TreeFields &f)
{
    return "wct-model-tree v1\n"
           "target y\n"
           "schema 2 x y\n"
           "range 0 1 0.5 " + f.clamp + "\n"
           "node split 0 " + f.splitValue + " " + f.splitCount +
           " 0.5\n"
           "node leaf 4 0.25 0.25 1 0 2\n"
           "node leaf 6 0.75 0.75 0" + f.beforeEnd + "end" + f.tail;
}

/**
 * One spelling of one field and what the reader makes of it: the
 * re-saved text when it accepts (as the fields save() prints), or a
 * substring of its error when it rejects.
 */
struct Spelling
{
    const char *name;
    TreeFields text;
    bool accepted;
    TreeFields resaved;    ///< when accepted
    const char *error;     ///< when rejected
};

TEST(SerializeTest, NumberAndTrailerSpellingsKeepTheirOutcome)
{
    // Outcomes recorded with the iostream reader that std::from_chars
    // replaced; the two rows with a comment are the ones it changed.
    const auto with = [](auto set) {
        TreeFields f;
        set(f);
        return f;
    };
    const TreeFields canonical;
    const Spelling spellings[] = {
        {"leading plus, double",
         with([](TreeFields &f) { f.splitValue = "+0.5"; }), true,
         canonical, nullptr},
        {"leading plus, unsigned",
         with([](TreeFields &f) { f.splitCount = "+10"; }), true,
         canonical, nullptr},
        {"leading plus, int",
         with([](TreeFields &f) { f.clamp = "+1"; }), true, canonical,
         nullptr},
        {"plus then minus",
         with([](TreeFields &f) { f.splitValue = "+-0.5"; }), false,
         {}, "malformed split node"},
        // The iostream reader took this as 2^64 - 1 and saved it so.
        {"minus one, unsigned",
         with([](TreeFields &f) { f.splitCount = "-1"; }), false, {},
         "malformed split node"},
        {"minus one, int",
         with([](TreeFields &f) { f.clamp = "-1"; }), true, canonical,
         nullptr},
        {"inf", with([](TreeFields &f) { f.splitValue = "inf"; }),
         false, {}, "malformed split node"},
        {"nan", with([](TreeFields &f) { f.splitValue = "nan"; }),
         false, {}, "malformed split node"},
        {"overflow", with([](TreeFields &f) { f.splitValue = "1e400"; }),
         false, {}, "malformed split node"},
        {"denormal",
         with([](TreeFields &f) { f.splitValue = "4.9e-324"; }), true,
         with([](TreeFields &f) {
             f.splitValue = "4.9406564584124654e-324";
         }),
         nullptr},
        {"underflow",
         with([](TreeFields &f) { f.splitValue = "1e-400"; }), true,
         with([](TreeFields &f) { f.splitValue = "0"; }), nullptr},
        {"negative underflow",
         with([](TreeFields &f) { f.splitValue = "-1e-400"; }), true,
         with([](TreeFields &f) { f.splitValue = "-0"; }), nullptr},
        {"hex", with([](TreeFields &f) { f.splitValue = "0x10"; }),
         false, {}, "malformed split node"},
        {"junk suffix",
         with([](TreeFields &f) { f.splitValue = "1.5abc"; }), false,
         {}, "malformed split node"},
        // The iostream reader split "0end" into the leaf's term
        // count and the end marker.
        {"number glued to end",
         with([](TreeFields &f) { f.beforeEnd = ""; }), false, {},
         "malformed leaf node"},
        {"trailing bytes after end",
         with([](TreeFields &f) { f.tail = "\ntrailing bytes\n"; }),
         true, canonical, nullptr},
        {"no newline after end",
         with([](TreeFields &f) { f.tail = ""; }), true, canonical,
         nullptr},
        {"bytes glued to end",
         with([](TreeFields &f) { f.tail = "garbage\n"; }), false, {},
         "missing end marker"},
    };
    for (const Spelling &s : spellings) {
        SCOPED_TRACE(s.name);
        std::stringstream in(treeText(s.text));
        std::string err;
        const auto tree = tryReadModelTree(in, &err);
        ASSERT_EQ(tree.has_value(), s.accepted) << err;
        if (!tree) {
            EXPECT_NE(err.find(s.error), std::string::npos) << err;
            continue;
        }
        std::ostringstream saved;
        tree->save(saved);
        EXPECT_EQ(saved.str(), treeText(s.resaved));
    }
}

TEST(SerializeDeathTest, BadMagicIsFatal)
{
    std::stringstream buffer("not a model\n");
    EXPECT_EXIT(ModelTree::load(buffer),
                ::testing::ExitedWithCode(1), "magic");
}

TEST(SerializeDeathTest, TruncatedInputIsFatal)
{
    const Dataset d = trainingData(500, 6);
    const ModelTree tree = ModelTree::train(d, "y");
    std::stringstream buffer;
    tree.save(buffer);
    std::string text = buffer.str();
    text.resize(text.size() / 2);
    std::stringstream half(text);
    EXPECT_EXIT(ModelTree::load(half), ::testing::ExitedWithCode(1),
                "model tree");
}

TEST(SerializeDeathTest, OutOfSchemaAttributeIsFatal)
{
    std::stringstream buffer(
        "wct-model-tree v1\n"
        "target y\n"
        "schema 2 x y\n"
        "range 0 1 0.5 1\n"
        "node leaf 10 0.5 0.5 1 7 2.0\n" // attribute 7 > schema
        "end\n");
    EXPECT_EXIT(ModelTree::load(buffer),
                ::testing::ExitedWithCode(1), "outside schema");
}

} // namespace
} // namespace wct
