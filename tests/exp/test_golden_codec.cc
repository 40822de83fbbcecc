/**
 * @file
 * Golden pin of the on-disk format's bytes: the result-cache entry.
 *
 * The result-cache entries of four seed-2020 runs — three of 4 s
 * (clean with a spaced label, traced, faulted + degraded +
 * invariants) and a 12 s escalated run that fires all four invariant
 * kinds — are hashed (FNV-1a 64) and compared against
 * tests/exp/golden_codec.txt. Together the runs leave
 * no cache section empty, so any change to how a field is written
 * (order, encoding, separator) moves a hash. Regenerate after an
 * intentional format change (which must also bump its version)
 * with:
 *       AVSCOPE_WRITE_GOLDEN=1 ./avscope_tests \
 *           --gtest_filter='CodecGolden.*'
 */

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "test_dir.hh"

namespace {

using namespace av;

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** "<name> <size> <fnv1a-64 hex>" for one file's bytes. */
std::string
pin(const std::string &name, const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    std::ostringstream os;
    os << name << ' ' << bytes.size() << ' ' << std::hex
       << std::setw(16) << std::setfill('0') << hash << '\n';
    return os.str();
}

/** Compare @p actual with the named golden file (or rewrite it). */
void
checkGolden(const std::string &actual, const char *file)
{
    const std::string path =
        std::string(AVSCOPE_SOURCE_DIR) + "/tests/exp/" + file;
    if (std::getenv("AVSCOPE_WRITE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden hashes regenerated: " << path;
    }
    const std::string golden = fileBytes(path);
    ASSERT_FALSE(golden.empty()) << "missing fixture " << path;
    EXPECT_EQ(golden, actual)
        << "on-disk bytes changed; if intentional, bump the format "
           "version and regenerate with AVSCOPE_WRITE_GOLDEN=1";
}

/** The four runs whose entries together fill every section. */
std::vector<exp::ExperimentSpec>
codecRuns()
{
    const auto base = exp::spec().durationSeconds(4).seed(2020);
    auto faulted = base;
    faulted
        .faults(fault::FaultPlan()
                    .lidarBlackout(1500 * sim::oneMs, sim::oneSec)
                    .cameraBlackout(2 * sim::oneSec, sim::oneSec)
                    .gpuThrottle(1800 * sim::oneMs, sim::oneSec, 0.5))
        .degraded()
        .invariants()
        .named("faulted");
    // Thresholds tight enough that all four invariant kinds fire,
    // so the entry pins every way the safety monitor observes.
    stack::SafetyOptions strict;
    strict.deadlineMs = 60.0;
    strict.deadlineMissStreak = 3;
    strict.livenessAfter = 700 * sim::oneMs;
    strict.maxLocalizationError = 1.0;
    strict.trackLossSamples = 3;
    auto escalated = base;
    escalated.durationSeconds(12)
        .detector(perception::DetectorKind::Ssd512)
        .faults(fault::FaultPlan()
                    .lidarBlackout(3 * sim::oneSec, 1500 * sim::oneMs)
                    .gpuThrottle(6 * sim::oneSec, 2 * sim::oneSec, 0.3))
        .degraded()
        .invariants(strict)
        .named("escalated");
    return {exp::ExperimentSpec(base).named("clean run, spaced label"),
            exp::ExperimentSpec(base).traced().named("traced"),
            faulted, escalated};
}

TEST(CodecGolden, CacheEntryBytesMatchGolden)
{
    const auto specs = codecRuns();
    exp::Runner runner(exp::RunnerConfig{2, ""});
    for (const auto &s : specs)
        runner.submit(s);
    const auto results = runner.collect();

    const std::string dir = test::freshTestDir();
    const exp::ResultCache cache(dir);
    std::string actual;
    bool faults = false, violations = false, tracepath = false;
    std::set<stack::InvariantKind> kinds;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const prof::RunResult &run = *results[i];
        faults |= !run.faults.empty();
        violations |= !run.violations.empty();
        for (const stack::SafetyViolation &v : run.violations)
            kinds.insert(v.kind);
        tracepath |= !run.trace.criticalPath.empty() &&
                     !run.trace.nodes.empty() &&
                     !run.trace.edges.empty();
        const std::string key = "run" + std::to_string(i);
        ASSERT_TRUE(cache.store(key, run));
        const std::string bytes = fileBytes(cache.entryPath(key));
        actual += pin(specs[i].label, bytes);

        // Reload and re-store: the entry must reproduce its bytes.
        const auto reloaded = cache.load(key);
        ASSERT_TRUE(reloaded.has_value()) << specs[i].label;
        ASSERT_TRUE(cache.store(key + "-again", *reloaded));
        EXPECT_EQ(fileBytes(cache.entryPath(key + "-again")), bytes)
            << specs[i].label << " does not round-trip";
    }
    // Guard against a vacuous pin: every optional section is filled
    // by at least one of the runs.
    EXPECT_TRUE(faults);
    EXPECT_TRUE(violations);
    EXPECT_TRUE(tracepath);
    // Every invariant kind is pinned, so a change to how the safety
    // monitor observes the stack cannot slip past a vacuous entry.
    EXPECT_EQ(kinds.size(), 4u);
    std::filesystem::remove_all(dir);
    checkGolden(actual, "golden_codec.txt");
}

} // namespace
