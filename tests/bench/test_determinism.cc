/**
 * @file
 * Runtime determinism smoke test: the contract avlint enforces
 * statically, exercised end to end. Two in-process runs of the
 * findings_summary report over the same scenario config must produce
 * byte-identical output — any wall-clock read, unseeded RNG draw or
 * hash-order dependence in the replay pipeline shows up here as a
 * diff. A second test re-renders the report with a different worker
 * count: the thread-parallel Runner must not change a single byte
 * versus --jobs 1 (the isolation contract of src/exp).
 *
 * Both tests pass --no-cache so every report comes from real
 * replays; cache-path determinism is covered by tests/exp.
 */

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "findings.hh"
#include "test_dir.hh"

namespace {

/** Render the findings report once under the given flags. */
std::string
render(std::vector<std::string> args)
{
    args.insert(args.begin(), "determinism_test");
    std::vector<char *> argv;
    argv.reserve(args.size());
    for (std::string &arg : args)
        argv.push_back(arg.data());
    av::bench::BenchEnv env(static_cast<int>(argv.size()),
                            argv.data());
    std::ostringstream os;
    av::bench::runFindingsSummary(env, os);
    return os.str();
}

TEST(Determinism, FindingsReportByteIdenticalAcrossRuns)
{
    const std::string first =
        render({"--duration", "8", "--no-cache"});
    const std::string second =
        render({"--duration", "8", "--no-cache"});

    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    // The report must carry real content, not just headers.
    EXPECT_NE(first.find("findings reproduced"),
              std::string::npos);
}

TEST(Determinism, FindingsReportIndependentOfWorkerCount)
{
    const std::string serial =
        render({"--duration", "8", "--no-cache", "--jobs", "1"});
    const std::string parallel =
        render({"--duration", "8", "--no-cache", "--jobs", "3"});

    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

/** Serialize @p result through a cache rooted at @p dir. */
std::string
resultBytes(const std::string &dir, const av::prof::RunResult &result,
            const char *key)
{
    const av::exp::ResultCache cache(dir);
    EXPECT_TRUE(cache.store(key, result));
    std::ifstream is(cache.entryPath(key), std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/**
 * The forcedCopies counter of a serialized entry's transport line
 * ("transport <published> <deliveries> <payloadCopies>
 * <loanedDeliveries> <movedPublishes> <forcedCopies>").
 */
std::uint64_t
forcedCopies(const std::string &bytes)
{
    const auto line = bytes.find("\ntransport ");
    EXPECT_NE(line, std::string::npos);
    std::istringstream is(bytes.substr(line + 1));
    std::string word;
    std::uint64_t counters[6] = {};
    is >> word;
    for (std::uint64_t &c : counters)
        is >> c;
    EXPECT_TRUE(is) << "malformed transport line";
    return counters[5];
}

TEST(Determinism, FaultedRunsByteIdenticalAcrossWorkerCounts)
{
    namespace exp = av::exp;
    namespace fault = av::fault;
    using av::sim::oneMs;
    using av::sim::oneSec;
    const std::string dir = av::test::freshTestDir();

    // A schedule mixing every stochastic fault mechanism: seeded
    // frame loss, duplication/corruption draws, a crash/respawn
    // cycle and a throttle window. Degradation responses on, so the
    // fallback/coast/reseed paths are in the replay too.
    const fault::FaultPlan plan =
        fault::FaultPlan()
            .cameraBlackout(2 * oneSec, oneSec)
            .frameLoss(av::world::topics::pointsRaw, 3 * oneSec,
                       oneSec, 0.5)
            .nodeCrash("euclidean_cluster", 4 * oneSec,
                       500 * oneMs)
            .messageDuplicate(av::perception::topics::imageObjects,
                              2 * oneSec, oneSec, 0.5)
            .gpuThrottle(oneSec, oneSec, 0.5);

    std::vector<exp::ExperimentSpec> specs;
    for (const auto kind : {av::perception::DetectorKind::Ssd512,
                            av::perception::DetectorKind::Yolov3})
        specs.push_back(
            exp::spec()
                .detector(kind)
                .durationSeconds(6)
                .seed(2020)
                .faults(plan)
                .degraded()
                .named(av::perception::detectorName(kind)));

    exp::Runner serial(exp::RunnerConfig{1, ""});
    exp::Runner parallel(exp::RunnerConfig{4, ""});
    for (const auto &s : specs) {
        serial.submit(s);
        parallel.submit(s);
    }
    const auto from_serial = serial.collect();
    const auto from_parallel = parallel.collect();
    ASSERT_EQ(from_serial.size(), specs.size());
    ASSERT_EQ(from_parallel.size(), specs.size());

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string tag = std::to_string(i);
        const std::string a = resultBytes(
            dir, *from_serial[i], ("serial-" + tag).c_str());
        const std::string b = resultBytes(
            dir, *from_parallel[i], ("parallel-" + tag).c_str());
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b) << "faulted run " << i
                        << " differs across worker counts";
        // The entry must carry fault outcomes, not an empty table,
        // and its transport line must count the private copies the
        // duplicated /detection/image_detector/objects forced.
        EXPECT_NE(a.find("faults 5"), std::string::npos);
        EXPECT_GT(forcedCopies(a), 0u);
    }
}

TEST(Determinism, ChaosCellsByteIdenticalAcrossWorkerCounts)
{
    namespace exp = av::exp;
    namespace fault = av::fault;
    using av::sim::oneMs;
    using av::sim::oneSec;
    const std::string dir = av::test::freshTestDir();

    // A compound cell with the safety monitor armed: the serialized
    // entry carries timestamped violations, and those — like every
    // other section — must not move by a byte across worker counts.
    const fault::FaultPlan plan =
        fault::FaultPlan()
            .lidarBlackout(1500 * oneMs, oneSec)
            .cameraBlackout(2 * oneSec, 2 * oneSec)
            .gpuThrottle(1800 * oneMs, 2 * oneSec, 0.5);

    std::vector<exp::ExperimentSpec> specs;
    for (const std::uint64_t seed : {2020ull, 2021ull})
        specs.push_back(exp::spec()
                            .durationSeconds(6)
                            .seed(seed)
                            .faults(plan)
                            .degraded()
                            .invariants()
                            .named("chaos-" +
                                   std::to_string(seed)));

    exp::Runner serial(exp::RunnerConfig{1, ""});
    exp::Runner parallel(exp::RunnerConfig{4, ""});
    for (const auto &s : specs) {
        serial.submit(s);
        parallel.submit(s);
    }
    const auto from_serial = serial.collect();
    const auto from_parallel = parallel.collect();
    ASSERT_EQ(from_serial.size(), specs.size());

    bool any_violation = false;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string tag = std::to_string(i);
        const std::string a = resultBytes(
            dir, *from_serial[i], ("chaos-serial-" + tag).c_str());
        const std::string b = resultBytes(
            dir, *from_parallel[i], ("chaos-parallel-" + tag).c_str());
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b) << "chaos cell " << i
                        << " differs across worker counts";
        EXPECT_NE(a.find("\nviolations "), std::string::npos);
        any_violation |= !from_serial[i]->violations.empty();
    }
    // A 1 s LiDAR blackout sits far past the ~0.37 s localization
    // knee: at least one cell must actually record a violation, or
    // this test is vacuously comparing empty sections.
    EXPECT_TRUE(any_violation);
}

TEST(Determinism, TracedRunsByteIdenticalAcrossJobs)
{
    namespace exp = av::exp;
    const std::string dir = av::test::freshTestDir();
    const auto traced =
        exp::spec()
            .detector(av::perception::DetectorKind::Ssd512)
            .durationSeconds(4)
            .seed(2020)
            .traced()
            .named("traced determinism");

    // Same traced spec through a serial and a 4-worker Runner: the
    // whole result file — trace events, critical path, slack rows,
    // edges — must not differ by a byte.
    exp::Runner serial(exp::RunnerConfig{1, ""});
    exp::Runner parallel(exp::RunnerConfig{4, ""});
    const std::string a = resultBytes(
        dir, serial.result(serial.submit(traced)), "jobs1");
    const std::string b = resultBytes(
        dir, parallel.result(parallel.submit(traced)), "jobs4");
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "traced run differs across worker counts";
    // The entry must actually carry a trace, not an untraced stub.
    EXPECT_NE(a.find("\ntrace 1 "), std::string::npos);
    EXPECT_NE(a.find("tracepath"), std::string::npos);
}

} // namespace
