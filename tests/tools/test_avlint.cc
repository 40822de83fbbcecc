/**
 * @file
 * Fixture-driven tests for avlint: every rule firing with exact rule
 * id and line number, path-scoped exemptions, and the suppression
 * comment syntax. Fixtures live under tests/tools/fixtures/ and are
 * read at runtime (never compiled).
 */

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "avlint.hh"

namespace {

using av::lint::Diagnostic;
using av::lint::lintFile;

std::string
fixture(const std::string &name)
{
    return std::string(AVLINT_FIXTURE_DIR) + "/" + name;
}

/** (rule, line) pairs, sorted, for compact comparison. */
std::vector<std::pair<std::string, int>>
ruleLines(const std::vector<Diagnostic> &diags)
{
    std::vector<std::pair<std::string, int>> out;
    for (const Diagnostic &d : diags)
        out.emplace_back(d.rule, d.line);
    std::sort(out.begin(), out.end());
    return out;
}

using Pairs = std::vector<std::pair<std::string, int>>;

TEST(Avlint, CleanFileHasNoFindings)
{
    const auto diags =
        lintFile(fixture("clean.cc"), "src/fixture/clean.cc");
    EXPECT_TRUE(diags.empty());
}

TEST(Avlint, WallClockSourcesFlaggedWithLines)
{
    const auto diags = lintFile(fixture("wall_clock.cc"),
                                "src/fixture/wall_clock.cc");
    EXPECT_EQ(ruleLines(diags), (Pairs{{"wall-clock", 8},
                                       {"wall-clock", 9},
                                       {"wall-clock", 10},
                                       {"wall-clock", 11}}));
}

TEST(Avlint, UtilRandomIsExemptFromWallClock)
{
    const auto diags =
        lintFile(fixture("wall_clock.cc"), "src/util/random.cc");
    EXPECT_TRUE(diags.empty());
}

TEST(Avlint, RawTimeArithFlaggedButSentinelsLegal)
{
    const auto diags = lintFile(fixture("time_arith.cc"),
                                "src/fixture/time_arith.cc");
    EXPECT_EQ(ruleLines(diags), (Pairs{{"raw-time-arith", 8}}));
}

TEST(Avlint, IncludeGuardMismatchNamesExpectedGuard)
{
    const auto diags = lintFile(fixture("guard_wrong.hh"),
                                "src/world/guard_wrong.hh");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "include-guard");
    EXPECT_EQ(diags[0].line, 2);
    EXPECT_NE(diags[0].message.find("AVSCOPE_WORLD_GUARD_WRONG_HH"),
              std::string::npos);
}

TEST(Avlint, UsingNamespaceInHeaderFlagged)
{
    const auto diags = lintFile(fixture("using_namespace.hh"),
                                "src/world/using_namespace.hh");
    EXPECT_EQ(ruleLines(diags),
              (Pairs{{"using-namespace-header", 6}}));
}

TEST(Avlint, UnorderedIterationFlaggedForLocals)
{
    const auto diags = lintFile(fixture("unordered_iter.cc"),
                                "src/fixture/unordered_iter.cc");
    EXPECT_EQ(ruleLines(diags), (Pairs{{"unordered-iter", 11},
                                       {"unordered-iter", 13}}));
}

TEST(Avlint, UnorderedIterationSeesCompanionHeaderMembers)
{
    const auto diags = lintFile(fixture("member_iter.cc"),
                                "src/fixture/member_iter.cc");
    EXPECT_EQ(ruleLines(diags), (Pairs{{"unordered-iter", 10}}));
}

TEST(Avlint, NakedNewDeleteFlaggedButDeletedFunctionsLegal)
{
    const auto diags = lintFile(fixture("new_delete.cc"),
                                "src/fixture/new_delete.cc");
    EXPECT_EQ(ruleLines(diags), (Pairs{{"raw-new-delete", 12},
                                       {"raw-new-delete", 14}}));
}

TEST(Avlint, PrintFlaggedInLibraryCodeOnly)
{
    const auto in_src = lintFile(fixture("print_library.cc"),
                                 "src/fixture/print_library.cc");
    EXPECT_EQ(ruleLines(in_src), (Pairs{{"print-in-library", 8},
                                        {"print-in-library", 9}}));

    const auto in_bench = lintFile(fixture("print_library.cc"),
                                   "bench/print_library.cc");
    EXPECT_TRUE(in_bench.empty());
}

TEST(Avlint, ProbeTapFlaggedOutsideRos)
{
    const auto in_core = lintFile(fixture("probe_tap.cc"),
                                  "src/core/probe_tap.cc");
    EXPECT_EQ(ruleLines(in_core), (Pairs{{"probe-tap", 7}}));

    // The safety monitor reads the recorder too.
    const auto in_stack = lintFile(fixture("probe_tap.cc"),
                                   "src/stack/probe_tap.cc");
    EXPECT_EQ(ruleLines(in_stack), (Pairs{{"probe-tap", 7}}));

    // So does every other library directory, the nodes among them.
    const auto in_perception = lintFile(fixture("probe_tap.cc"),
                                        "src/perception/probe_tap.cc");
    EXPECT_EQ(ruleLines(in_perception), (Pairs{{"probe-tap", 7}}));

    // src/ros defines Topic::addTap and is outside the rule.
    const auto in_ros = lintFile(fixture("probe_tap.cc"),
                                 "src/ros/probe_tap.cc");
    EXPECT_TRUE(in_ros.empty());
}

TEST(Avlint, TmpPathFlaggedInTestsOnly)
{
    const auto in_tests = lintFile(fixture("tmp_path.cc"),
                                   "tests/fixture/tmp_path.cc");
    EXPECT_EQ(ruleLines(in_tests),
              (Pairs{{"tmp-path", 8}, {"tmp-path", 9}}));

    // Library code is lexed with literals blanked and is outside the
    // rule's scope.
    const auto in_src = lintFile(fixture("tmp_path.cc"),
                                 "src/fixture/tmp_path.cc");
    EXPECT_TRUE(in_src.empty());
}

TEST(Avlint, MutableGlobalFlaggedAtNamespaceScope)
{
    const auto in_src = lintFile(fixture("mutable_global.cc"),
                                 "src/fixture/mutable_global.cc");
    EXPECT_EQ(ruleLines(in_src), (Pairs{{"mutable-global", 9},
                                        {"mutable-global", 10},
                                        {"mutable-global", 11},
                                        {"mutable-global", 12}}));

    // Benches and tools own their process; only src/ is library
    // code bound by the Runner's isolation contract.
    const auto in_tools = lintFile(fixture("mutable_global.cc"),
                                   "tools/mutable_global.cc");
    EXPECT_TRUE(in_tools.empty());
}

TEST(Avlint, UnseededRandomFlaggedInLibraryCodeOnly)
{
    const auto in_src = lintFile(fixture("unseeded_random.cc"),
                                 "src/fixture/unseeded_random.cc");
    EXPECT_EQ(ruleLines(in_src), (Pairs{{"unseeded-random", 18},
                                        {"unseeded-random", 19},
                                        {"unseeded-random", 20}}));

    // The generator's own implementation may default-construct;
    // benches and tools are outside the replay contract.
    const auto in_util = lintFile(fixture("unseeded_random.cc"),
                                  "src/util/random.cc");
    EXPECT_TRUE(in_util.empty());
    const auto in_bench = lintFile(fixture("unseeded_random.cc"),
                                   "bench/unseeded_random.cc");
    EXPECT_TRUE(in_bench.empty());
}

TEST(Avlint, MutableLoanFlagsReadsAfterPublishMove)
{
    // Fires in every tree (the loan contract is not src/-specific):
    // a read after publish(std::move(...)) and a sibling argument
    // evaluated in the same call; hoisted reads, reassignment and
    // fresh scopes stay quiet.
    const auto in_src = lintFile(fixture("mutable_loan.cc"),
                                 "src/fixture/mutable_loan.cc");
    EXPECT_EQ(ruleLines(in_src), (Pairs{{"mutable-loan", 23},
                                        {"mutable-loan", 31}}));

    const auto in_bench = lintFile(fixture("mutable_loan.cc"),
                                   "bench/mutable_loan.cc");
    EXPECT_EQ(ruleLines(in_bench), ruleLines(in_src));
}

TEST(Avlint, MutableLoanIsFlowSensitive)
{
    // Every read between the move and a re-seat fires; a nested
    // reassignment shields only its own block, a base-depth one
    // ends tracking for the rest of the scope.
    const auto diags = lintFile(fixture("mutable_loan_flow.cc"),
                                "src/fixture/mutable_loan_flow.cc");
    EXPECT_EQ(ruleLines(diags), (Pairs{{"mutable-loan", 23},
                                       {"mutable-loan", 24},
                                       {"mutable-loan", 35},
                                       {"mutable-loan", 53}}));
}

TEST(Avlint, SwallowedExceptionFlagsBroadSilentHandlers)
{
    // catch (...) with an empty body and catch (std::exception)
    // that only shuffles locals both fire; handlers that rethrow,
    // log through util/logging, capture std::current_exception, or
    // name a narrow type stay quiet, as does the suppressed case.
    const auto in_src =
        lintFile(fixture("swallowed_exception.cc"),
                 "src/fixture/swallowed_exception.cc");
    EXPECT_EQ(ruleLines(in_src),
              (Pairs{{"swallowed-exception", 12},
                     {"swallowed-exception", 21}}));

    // The rule is src/-only: bench and tools code may legitimately
    // absorb exceptions at a CLI boundary.
    const auto in_tools =
        lintFile(fixture("swallowed_exception.cc"),
                 "tools/swallowed_exception.cc");
    EXPECT_TRUE(ruleLines(in_tools).empty());
}

TEST(Avlint, SortDiagnosticsOrdersByFileLineRule)
{
    std::vector<Diagnostic> diags = {
        {"src/b.cc", 9, "wall-clock", "m"},
        {"src/a.cc", 9, "wall-clock", "m"},
        {"src/a.cc", 2, "wall-clock", "m"},
        {"src/a.cc", 2, "print-in-library", "m"},
    };
    av::lint::sortDiagnostics(diags);
    std::vector<std::tuple<std::string, int, std::string>> got;
    for (const Diagnostic &d : diags)
        got.emplace_back(d.file, d.line, d.rule);
    const std::vector<std::tuple<std::string, int, std::string>>
        want = {
            {"src/a.cc", 2, "print-in-library"},
            {"src/a.cc", 2, "wall-clock"},
            {"src/a.cc", 9, "wall-clock"},
            {"src/b.cc", 9, "wall-clock"},
        };
    EXPECT_EQ(got, want);
}

TEST(Avlint, TreeDiagnosticsAreByteStable)
{
    // lintTree over a fixture tree: output is sorted by
    // (file, line, rule) — not traversal order — and identical
    // across runs.
    const std::string root = fixture("stable_tree");
    const auto first = av::lint::lintTree(root);
    const auto second = av::lint::lintTree(root);

    std::vector<std::tuple<std::string, int, std::string>> got;
    for (const Diagnostic &d : first)
        got.emplace_back(d.file, d.line, d.rule);
    const std::vector<std::tuple<std::string, int, std::string>>
        want = {
            {"src/aa_early.cc", 5, "print-in-library"},
            {"src/aa_early.cc", 5, "wall-clock"},
            {"src/aa_early.cc", 6, "wall-clock"},
            {"src/zz_late.cc", 5, "wall-clock"},
            {"tools/mid.cc", 5, "wall-clock"},
        };
    EXPECT_EQ(got, want);

    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].file, second[i].file);
        EXPECT_EQ(first[i].line, second[i].line);
        EXPECT_EQ(first[i].rule, second[i].rule);
        EXPECT_EQ(first[i].message, second[i].message);
    }
}

TEST(Avlint, SuppressionCommentSilencesSameAndNextLine)
{
    const auto diags = lintFile(fixture("suppressed.cc"),
                                "src/fixture/suppressed.cc");
    EXPECT_TRUE(diags.empty());
}

TEST(Avlint, FileLevelSuppressionSilencesWholeFile)
{
    const auto diags = lintFile(fixture("suppressed_file.cc"),
                                "src/fixture/suppressed_file.cc");
    EXPECT_TRUE(diags.empty());
}

TEST(Avlint, RuleCatalogIsStable)
{
    const auto names = av::lint::ruleNames();
    EXPECT_EQ(names.size(), 13u);
    EXPECT_NE(std::find(names.begin(), names.end(), "wall-clock"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "mutable-loan"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(),
                        "swallowed-exception"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "probe-tap"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "tmp-path"),
              names.end());
}

} // namespace
