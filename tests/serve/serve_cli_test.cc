/**
 * @file
 * CLI-level tests of the serving commands: `wct version`, the usage
 * text, and a full `wct serve` / `wct query` session over a Unix
 * socket driven entirely through runCli().
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <thread>

#include "cli/cli.hh"
#include "data/csv.hh"
#include "tests/serve/serve_support.hh"

namespace wct::serve
{
namespace
{

using test::TempDir;

int
run(const std::vector<std::string> &args,
    std::string *out_text = nullptr, std::string *err_text = nullptr)
{
    std::ostringstream out;
    std::ostringstream err;
    const int code = runCli(args, out, err);
    if (out_text != nullptr)
        *out_text = out.str();
    if (err_text != nullptr)
        *err_text = err.str();
    return code;
}

TEST(ServeCliTest, VersionReportsEveryFormat)
{
    for (const char *spelling : {"version", "--version"}) {
        std::string out;
        EXPECT_EQ(run({spelling}, &out), 0);
        EXPECT_NE(out.find("wct "), std::string::npos);
        EXPECT_NE(out.find("wct-model-tree v1"), std::string::npos);
        EXPECT_NE(out.find("compiled-tree layout: v1"),
                  std::string::npos);
        EXPECT_NE(out.find("WCTSERV"), std::string::npos);
    }
}

TEST(ServeCliTest, UsageMentionsServeAndQuery)
{
    std::string err;
    EXPECT_EQ(run({"help"}, nullptr, &err), 0);
    EXPECT_NE(err.find("serve"), std::string::npos);
    EXPECT_NE(err.find("query"), std::string::npos);
    EXPECT_NE(err.find("version"), std::string::npos);
}

TEST(ServeCliTest, ServeAndQueryRoundTripOverAUnixSocket)
{
    TempDir dir("wct_serve_cli_test");
    const ModelTree tree = test::trainedTree();
    const std::string model_path = dir.file("m.mtree");
    test::writeTree(tree, model_path);

    const Dataset probe = test::trainingData(5, 23);
    const std::string csv_path = dir.file("probe.csv");
    writeCsvFile(probe, csv_path);

    const std::string sock = dir.file("serve.sock");
    std::string serve_out;
    std::string serve_err;
    std::thread server([&] {
        EXPECT_EQ(run({"serve", "--model", model_path, "--unix",
                       sock, "--stats-text"},
                      &serve_out, &serve_err),
                  0);
    });

    // Wait for the listener to come up (the socket file appears
    // before accept() starts, which is all connectUnix needs).
    for (int i = 0; i < 500 && !std::filesystem::exists(sock); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(std::filesystem::exists(sock));

    std::string out;
    ASSERT_EQ(run({"query", "--unix", sock, "--op", "predict",
                   "--data", csv_path},
                  &out),
              0);
    // One "cpi LMk" line per probe row, matching the offline tree.
    std::istringstream lines(out);
    std::string line;
    std::size_t rows = 0;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        double cpi = 0.0;
        std::string leaf;
        ASSERT_TRUE(fields >> cpi >> leaf) << line;
        EXPECT_NEAR(cpi, tree.predict(probe.row(rows)), 1e-4);
        EXPECT_EQ(leaf,
                  "LM" + std::to_string(
                             tree.classify(probe.row(rows)) + 1));
        ++rows;
    }
    EXPECT_EQ(rows, probe.numRows());

    // Augmented-CSV output.
    const std::string out_csv = dir.file("augmented.csv");
    ASSERT_EQ(run({"query", "--unix", sock, "--op", "predict",
                   "--data", csv_path, "--out", out_csv},
                  &out),
              0);
    EXPECT_TRUE(std::filesystem::exists(out_csv));
    std::ifstream augmented(out_csv);
    std::string header;
    ASSERT_TRUE(std::getline(augmented, header));
    EXPECT_NE(header.find("PredictedCPI"), std::string::npos);
    EXPECT_NE(header.find("LeafModel"), std::string::npos);

    // classify / stats / shutdown.
    ASSERT_EQ(run({"query", "--unix", sock, "--op", "classify",
                   "--data", csv_path},
                  &out),
              0);
    EXPECT_NE(out.find("LM"), std::string::npos);

    ASSERT_EQ(run({"query", "--unix", sock, "--op", "stats"}, &out),
              0);
    EXPECT_NE(out.find("serving metrics"), std::string::npos);
    EXPECT_NE(out.find("predict=2"), std::string::npos);

    ASSERT_EQ(
        run({"query", "--unix", sock, "--op", "shutdown"}, &out), 0);
    EXPECT_NE(out.find("shutting down"), std::string::npos);

    server.join();
    EXPECT_NE(serve_err.find("serving on"), std::string::npos);
    EXPECT_NE(serve_err.find("server drained"), std::string::npos);
    // --stats-text dumped the final snapshot on stdout.
    EXPECT_NE(serve_out.find("serving metrics"), std::string::npos);
    EXPECT_NE(serve_out.find("shutdown=1"), std::string::npos);
}

TEST(ServeCliTest, QueryAgainstAMissingServerFailsCleanly)
{
    TempDir dir("wct_serve_cli_noserver");
    // wct_fatal exits with code 1; run it in a death-test so the
    // test binary survives.
    EXPECT_EXIT(run({"query", "--unix", dir.file("absent.sock"),
                     "--op", "stats"}),
                ::testing::ExitedWithCode(1), "cannot connect");
}

} // namespace
} // namespace wct::serve
