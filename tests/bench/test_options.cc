/**
 * @file
 * BenchOptions tests: typed parsing, the fluent declaration API and
 * — the reason the parser throws instead of aborting — the
 * diagnostics for unknown flags, missing values and type mismatches.
 * The Flags suite keeps the cases of the util::Flags parser that
 * BenchOptions replaced, run against BenchOptions.
 */

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common.hh"
#include "options.hh"

namespace {

using av::bench::BenchOptions;
using av::bench::commonOptions;
using av::bench::parseOrExit;

/** Parse the given argv words against @p options. */
BenchOptions &
parse(BenchOptions &options, std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    argv.reserve(args.size());
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return options.parse(static_cast<int>(argv.size()),
                         argv.data());
}

/** The what() of the std::invalid_argument @p thunk must throw. */
template <typename Thunk>
std::string
diagnostic(Thunk thunk)
{
    try {
        thunk();
    } catch (const std::invalid_argument &error) {
        return error.what();
    }
    ADD_FAILURE() << "expected std::invalid_argument";
    return "";
}

TEST(BenchOptions, TypedValuesAndDefaults)
{
    BenchOptions opts = commonOptions();
    parse(opts, {"--duration", "8", "--csv", "--jobs=3",
                 "--cache-dir", "scratch/cache", "positional"});

    EXPECT_EQ(opts.integer("duration"), 8);
    EXPECT_TRUE(opts.flag("csv"));
    EXPECT_EQ(opts.integer("jobs"), 3);
    EXPECT_EQ(opts.text("cache-dir"), "scratch/cache");
    // Untouched options keep their declared fallbacks.
    EXPECT_EQ(opts.integer("seed"), 2020);
    EXPECT_FALSE(opts.flag("no-cache"));
    EXPECT_FALSE(opts.flag("trace"));
    // given() distinguishes explicit from default.
    EXPECT_TRUE(opts.given("duration"));
    EXPECT_FALSE(opts.given("seed"));
    ASSERT_EQ(opts.positional().size(), 1u);
    EXPECT_EQ(opts.positional()[0], "positional");
}

TEST(BenchOptions, FluentExtrasChainOntoTheCommonSet)
{
    BenchOptions opts = commonOptions()
                            .text("json", "out.json", "output path")
                            .flag("smoke", "short run")
                            .real("scale", 1.5, "work scale");
    parse(opts, {"--smoke", "--scale", "0.25"});
    EXPECT_EQ(opts.text("json"), "out.json");
    EXPECT_TRUE(opts.flag("smoke"));
    EXPECT_DOUBLE_EQ(opts.real("scale"), 0.25);
}

TEST(BenchOptions, ExplicitBooleanValuesParse)
{
    BenchOptions opts = commonOptions();
    parse(opts, {"--csv=false", "--no-cache=yes"});
    EXPECT_FALSE(opts.flag("csv"));
    EXPECT_TRUE(opts.flag("no-cache"));
}

TEST(BenchOptions, UnknownFlagDiagnosticNamesFlagAndUsage)
{
    const std::string what = diagnostic([] {
        BenchOptions opts = commonOptions();
        parse(opts, {"--bogus", "1"});
    });
    EXPECT_NE(what.find("unknown flag --bogus"), std::string::npos);
    // The usage text rides along so a typo shows the real flags.
    EXPECT_NE(what.find("--duration"), std::string::npos);
    EXPECT_NE(what.find("--cache-dir"), std::string::npos);

    // The removed transport switch is an unknown flag now, not a
    // silently accepted no-op.
    const std::string removed = diagnostic([] {
        BenchOptions opts = commonOptions();
        parse(opts, {"--transport", "loan"});
    });
    EXPECT_NE(removed.find("unknown flag --transport"),
              std::string::npos);
}

TEST(BenchOptions, TypeMismatchDiagnosticNamesTheValue)
{
    const std::string what = diagnostic([] {
        BenchOptions opts = commonOptions();
        parse(opts, {"--jobs", "many"});
    });
    EXPECT_NE(what.find("--jobs"), std::string::npos);
    EXPECT_NE(what.find("expects an integer"), std::string::npos);
    EXPECT_NE(what.find("'many'"), std::string::npos);

    const std::string real_what = diagnostic([] {
        BenchOptions opts =
            BenchOptions().real("scale", 1.0, "work scale");
        parse(opts, {"--scale=big"});
    });
    EXPECT_NE(real_what.find("expects a number"),
              std::string::npos);
}

TEST(BenchOptions, MissingValueDiagnostic)
{
    const std::string what = diagnostic([] {
        BenchOptions opts = commonOptions();
        parse(opts, {"--duration"});
    });
    EXPECT_NE(what.find("--duration requires a"),
              std::string::npos);

    // A following flag does not count as the missing value.
    const std::string chained = diagnostic([] {
        BenchOptions opts = commonOptions();
        parse(opts, {"--duration", "--csv"});
    });
    EXPECT_NE(chained.find("--duration requires a"),
              std::string::npos);
}

TEST(BenchOptions, BadBooleanValueDiagnostic)
{
    const std::string what = diagnostic([] {
        BenchOptions opts = commonOptions();
        parse(opts, {"--csv=maybe"});
    });
    EXPECT_NE(what.find("--csv expects true/false"),
              std::string::npos);
}

TEST(BenchOptions, IntegerBelowItsMinimumDiagnostic)
{
    const std::string what = diagnostic([] {
        BenchOptions opts = commonOptions();
        parse(opts, {"--duration", "0"});
    });
    EXPECT_NE(what.find("--duration expects an integer >= 1, got '0'"),
              std::string::npos);
    EXPECT_NE(what.find("options:"), std::string::npos);

    // The minimum itself is accepted.
    BenchOptions opts = commonOptions();
    parse(opts, {"--duration", "1", "--jobs", "0"});
    EXPECT_EQ(opts.integer("duration"), 1);
    EXPECT_EQ(opts.integer("jobs"), 0);
}

TEST(BenchOptions, UsageListsEveryDeclaredOption)
{
    const std::string usage = commonOptions().usage();
    for (const char *flag :
         {"--duration", "--seed", "--csv", "--jobs", "--cache-dir",
          "--no-cache", "--trace"})
        EXPECT_NE(usage.find(flag), std::string::npos) << flag;
}

TEST(Flags, EqualsForm)
{
    BenchOptions opts = BenchOptions()
                            .integer("duration", 0, "seconds")
                            .text("detector", "", "detector");
    parse(opts, {"--duration=120", "--detector=yolo"});
    EXPECT_EQ(opts.integer("duration"), 120);
    EXPECT_EQ(opts.text("detector"), "yolo");
}

TEST(Flags, SpaceForm)
{
    BenchOptions opts = BenchOptions().integer("duration", 0, "s");
    parse(opts, {"--duration", "90"});
    EXPECT_EQ(opts.integer("duration"), 90);
}

TEST(Flags, BareBooleans)
{
    BenchOptions opts =
        BenchOptions().flag("csv", "csv").flag("verbose", "verbose");
    parse(opts, {"--csv"});
    EXPECT_TRUE(opts.flag("csv"));
    EXPECT_FALSE(opts.flag("verbose"));
    EXPECT_FALSE(opts.given("verbose"));
}

TEST(Flags, Defaults)
{
    BenchOptions opts = BenchOptions()
                            .integer("x", 7, "int")
                            .real("y", 2.5, "real")
                            .text("z", "d", "text");
    parse(opts, {});
    EXPECT_EQ(opts.integer("x"), 7);
    EXPECT_DOUBLE_EQ(opts.real("y"), 2.5);
    EXPECT_EQ(opts.text("z"), "d");
    EXPECT_FALSE(opts.given("x"));
}

TEST(Flags, Positional)
{
    BenchOptions opts = BenchOptions().integer("k", 0, "k");
    parse(opts, {"alpha", "--k=1", "beta"});
    ASSERT_EQ(opts.positional().size(), 2u);
    EXPECT_EQ(opts.positional()[0], "alpha");
    EXPECT_EQ(opts.positional()[1], "beta");
}

TEST(Flags, DoubleParsing)
{
    BenchOptions opts = BenchOptions().real("scale", 1.0, "scale");
    parse(opts, {"--scale=0.25"});
    EXPECT_DOUBLE_EQ(opts.real("scale"), 0.25);
}

TEST(FlagsDeath, UnknownFlagFatal)
{
    // Binaries parse through parseOrExit, which turns the thrown
    // diagnostic into exit status 2.
    std::vector<char *> argv = {const_cast<char *>("prog"),
                                const_cast<char *>("--nope")};
    EXPECT_EXIT(parseOrExit(BenchOptions().flag("yep", "yep"), 2,
                            argv.data()),
                ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(FlagsDeath, BadCommonValuesExitWithUsage)
{
    // A bench rejects these while parsing: exit status 2 and the
    // usage text, never an assertion. A bare "30" (the examples'
    // old form) must not run a default-length drive either.
    for (const auto &[bad, why] :
         {std::pair{"--duration=0", "--duration expects an integer >= 1"},
          std::pair{"--jobs=-2", "--jobs expects an integer >= 0"},
          std::pair{"30", "unexpected argument '30'"}}) {
        std::vector<char *> argv = {const_cast<char *>("prog"),
                                    const_cast<char *>(bad)};
        EXPECT_EXIT(av::bench::BenchEnv(2, argv.data()),
                    ::testing::ExitedWithCode(2), why)
            << bad;
    }
}

} // namespace
