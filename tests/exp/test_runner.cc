/**
 * @file
 * Tests for the experiment engine (src/exp): the Runner's
 * worker-count independence (parallel results byte-identical to
 * serial), the drive memo's map built only for localizing replays,
 * the LiDAR front end shared by a drive's replays
 * (perception::InvocationMemo: byte-identical results, the
 * clustering memo's budget, a throwing producer), the
 * result cache's bit-fidelity and replay skipping. The keys' tests
 * are in test_cache_key.cc.
 * Serialized cache entries are the comparison medium: two RunResults
 * are "byte-identical" when ResultCache writes the same file for
 * both.
 */

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "test_dir.hh"
#include "util/random.hh"

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

/** Serialize @p result through the cache and return the bytes. */
std::string
serialized(const std::string &dir, const std::string &key,
           const prof::RunResult &result)
{
    const exp::ResultCache cache(dir);
    EXPECT_TRUE(cache.store(key, result));
    return fileBytes(cache.entryPath(key));
}

/** The three detector experiments on a short shared drive. */
std::vector<exp::ExperimentSpec>
detectorSweep()
{
    std::vector<exp::ExperimentSpec> specs;
    for (const auto kind : {perception::DetectorKind::Ssd512,
                            perception::DetectorKind::Ssd300,
                            perception::DetectorKind::Yolov3})
        specs.push_back(exp::spec()
                            .detector(kind)
                            .durationSeconds(6)
                            .seed(2020)
                            .named(perception::detectorName(kind)));
    return specs;
}

/**
 * Replay @p spec outside the Runner, on a drive from prof::makeDrive
 * (bag and map built together): the reference a memoized drive must
 * reproduce.
 */
prof::RunResult
replayOnMadeDrive(const exp::ExperimentSpec &spec)
{
    const auto drive = prof::makeDrive(
        spec.scenario, spec.driveDuration, spec.recorder);
    prof::CharacterizationRun run(drive, spec.config);
    run.execute();
    return prof::snapshotRun(run, spec.label);
}

TEST(Runner, ParallelRunByteIdenticalToSerial)
{
    const auto specs = detectorSweep();
    const std::string dir = test::freshTestDir("serialize");

    exp::Runner serial(exp::RunnerConfig{1, ""});
    exp::Runner parallel(exp::RunnerConfig{3, ""});
    ASSERT_EQ(serial.jobs(), 1u);
    ASSERT_EQ(parallel.jobs(), 3u);
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
        EXPECT_EQ(
            serialized(dir, "serial-" + tag, *from_serial[i]),
            serialized(dir, "parallel-" + tag, *from_parallel[i]))
            << "detector sweep entry " << i
            << " differs across worker counts";
    }
    EXPECT_EQ(serial.executed(), specs.size());
    EXPECT_EQ(parallel.executed(), specs.size());
    EXPECT_EQ(serial.cacheHits(), 0u);
    EXPECT_EQ(parallel.cacheHits(), 0u);
}

TEST(Runner, IsolatedBatchBuildsNoMap)
{
    // The Fig. 8 isolation replays never run NDT, so the memo records
    // their bag and skips the mapping pass; their results must not
    // tell the difference.
    auto specs = detectorSweep();
    for (auto &s : specs)
        s.isolatedVision();
    const std::string dir = test::freshTestDir("isolated");

    exp::Runner runner(exp::RunnerConfig{2, ""});
    for (const auto &s : specs)
        runner.submit(s);
    const auto results = runner.collect();
    EXPECT_EQ(runner.executed(), specs.size());
    EXPECT_EQ(runner.mapsBuilt(), 0u);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string tag = std::to_string(i);
        EXPECT_EQ(serialized(dir, "runner-" + tag, *results[i]),
                  serialized(dir, "made-" + tag,
                             replayOnMadeDrive(specs[i])))
            << "isolated entry " << i
            << " differs from a replay on makeDrive's drive";
    }
}

TEST(Runner, MixedBatchBuildsMapOnce)
{
    // Full-stack and isolated replays of one drive, interleaved so
    // that with 4 workers isolated jobs replay the bag while a
    // full-stack job fills the map. The map is built once, and every
    // result matches the serial run and a makeDrive replay.
    std::vector<exp::ExperimentSpec> specs;
    for (auto s : detectorSweep()) {
        auto isolated = s;
        specs.push_back(isolated.isolatedVision().named(s.label +
                                                        " isolated"));
        specs.push_back(s);
    }
    const std::string dir = test::freshTestDir("mixed");

    exp::Runner serial(exp::RunnerConfig{1, ""});
    exp::Runner parallel(exp::RunnerConfig{4, ""});
    for (const auto &s : specs) {
        serial.submit(s);
        parallel.submit(s);
    }
    const auto from_serial = serial.collect();
    const auto from_parallel = parallel.collect();
    EXPECT_EQ(serial.mapsBuilt(), 1u);
    EXPECT_EQ(parallel.mapsBuilt(), 1u);
    EXPECT_EQ(parallel.executed(), specs.size());

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string tag = std::to_string(i);
        const std::string made = serialized(
            dir, "made-" + tag, replayOnMadeDrive(specs[i]));
        EXPECT_EQ(serialized(dir, "serial-" + tag, *from_serial[i]),
                  made)
            << specs[i].label << ": jobs=1 differs from makeDrive";
        EXPECT_EQ(
            serialized(dir, "parallel-" + tag, *from_parallel[i]),
            made)
            << specs[i].label << ": jobs=4 differs from makeDrive";
    }
}

/**
 * The detector sweep plus faulted replays of the same drive that
 * disturb the clustering node's input history: a euclidean_cluster
 * crash, a /points_raw blackout and duplicates on /points_no_ground.
 */
std::vector<exp::ExperimentSpec>
clusterSharingBatch()
{
    auto specs = detectorSweep();
    const auto faulted = [&specs](const std::string &name,
                                  const fault::FaultPlan &plan) {
        auto s = exp::spec().durationSeconds(6).seed(2020).named(name);
        s.faults(plan);
        specs.push_back(s);
    };
    faulted("cluster crash", fault::FaultPlan().nodeCrash(
                                 "euclidean_cluster", 2 * sim::oneSec,
                                 sim::oneSec));
    faulted("lidar blackout", fault::FaultPlan().lidarBlackout(
                                  2 * sim::oneSec, sim::oneSec));
    faulted("no-ground duplicates",
            fault::FaultPlan().messageDuplicate(
                perception::topics::pointsNoGround, sim::oneSec,
                3 * sim::oneSec, 0.5));
    return specs;
}

TEST(Runner, SharedClusteringIsByteIdenticalAcrossJobs)
{
    // Every replay of a Runner's drive shares one ClusterMemo. With
    // one worker and with three, each result must equal a replay on
    // a memo-less makeDrive drive, and replays must really have
    // adopted invocations others computed.
    const auto specs = clusterSharingBatch();
    const std::string dir = test::freshTestDir("shared-clusters");
    std::vector<std::string> made;
    for (std::size_t i = 0; i < specs.size(); ++i)
        made.push_back(serialized(dir, "made-" + std::to_string(i),
                                  replayOnMadeDrive(specs[i])));

    for (const unsigned jobs : {1u, 3u}) {
        exp::Runner runner(exp::RunnerConfig{jobs, ""});
        for (const auto &s : specs)
            runner.submit(s);
        const auto results = runner.collect();
        ASSERT_EQ(results.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            EXPECT_EQ(serialized(dir,
                                 "runner-" + std::to_string(jobs) +
                                     "-" + std::to_string(i),
                                 *results[i]),
                      made[i])
                << specs[i].label << ": jobs=" << jobs
                << " differs from a memo-less replay";
        }
        EXPECT_GT(runner.shared().cluster, 0u) << "jobs=" << jobs;
    }
}

/**
 * The detector sweep plus replays that disturb the history of every
 * memoized front-end node: an ndt_matching crash, a /points_raw
 * blackout, duplicates on /filtered_points, and a degraded stack
 * whose NDT reseeds its guess from GNSS after a blackout.
 */
std::vector<exp::ExperimentSpec>
frontEndSharingBatch()
{
    auto specs = detectorSweep();
    const auto faulted = [&specs](const std::string &name,
                                  const fault::FaultPlan &plan) {
        auto s = exp::spec().durationSeconds(6).seed(2020).named(name);
        s.faults(plan);
        specs.push_back(s);
    };
    faulted("ndt crash", fault::FaultPlan().nodeCrash(
                             "ndt_matching", 2 * sim::oneSec,
                             sim::oneSec));
    faulted("lidar blackout", fault::FaultPlan().lidarBlackout(
                                  2 * sim::oneSec, sim::oneSec));
    faulted("filtered duplicates",
            fault::FaultPlan().messageDuplicate(
                perception::topics::filteredPoints, sim::oneSec,
                3 * sim::oneSec, 0.5));
    auto reseed = exp::spec()
                      .durationSeconds(6)
                      .seed(2020)
                      .degraded()
                      .named("degraded reseed");
    reseed.faults(fault::FaultPlan().lidarBlackout(2 * sim::oneSec,
                                                   1500 * sim::oneMs));
    specs.push_back(reseed);
    return specs;
}

TEST(Runner, SharedLidarFrontEndIsByteIdenticalAcrossJobs)
{
    // Every replay of a Runner's drive shares one memo per LiDAR
    // front-end node. With one worker and with three, each result
    // must equal a replay on a memo-less makeDrive drive, and every
    // memo must have served invocations another replay computed.
    const auto specs = frontEndSharingBatch();
    const std::string dir = test::freshTestDir("shared-front-end");
    std::vector<std::string> made;
    for (std::size_t i = 0; i < specs.size(); ++i)
        made.push_back(serialized(dir, "made-" + std::to_string(i),
                                  replayOnMadeDrive(specs[i])));

    for (const unsigned jobs : {1u, 3u}) {
        exp::Runner runner(exp::RunnerConfig{jobs, ""});
        for (const auto &s : specs)
            runner.submit(s);
        const auto results = runner.collect();
        ASSERT_EQ(results.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            EXPECT_EQ(serialized(dir,
                                 "runner-" + std::to_string(jobs) +
                                     "-" + std::to_string(i),
                                 *results[i]),
                      made[i])
                << specs[i].label << ": jobs=" << jobs
                << " differs from a memo-less replay";
        }
        // The degraded replay really took the reseed path.
        EXPECT_GE(results.back()->resilienceOf("ndt_reseeds"), 1.0);
        const exp::Runner::SharedInvocations shared = runner.shared();
        EXPECT_GT(shared.rayGround, 0u) << "jobs=" << jobs;
        EXPECT_GT(shared.voxelGrid, 0u) << "jobs=" << jobs;
        EXPECT_GT(shared.ndt, 0u) << "jobs=" << jobs;
        EXPECT_GT(shared.cluster, 0u) << "jobs=" << jobs;
    }
}

TEST(Runner, SpentClusterBudgetKeepsResultsAndStopsGrowing)
{
    // A budget far below one replay's invocations: the first replay
    // fills it and then clusters live; later replays adopt what
    // their history shares with it and cluster the rest live. Their
    // results stay those of a memo-less replay, and the memo never
    // holds more than its budget.
    const auto specs = detectorSweep();
    const auto drive = prof::makeDrive(
        specs[0].scenario, specs[0].driveDuration, specs[0].recorder);
    const std::string dir = test::freshTestDir("cluster-budget");
    const auto replay = [&drive](const exp::ExperimentSpec &s) {
        prof::CharacterizationRun run(drive, s.config);
        run.execute();
        return prof::snapshotRun(run, s.label);
    };
    std::vector<std::string> live;
    for (std::size_t i = 0; i < specs.size(); ++i)
        live.push_back(serialized(dir, "live-" + std::to_string(i),
                                  replay(specs[i])));

    constexpr std::size_t kBudget = 12;
    const auto memo = std::make_shared<perception::ClusterMemo>(kBudget);
    drive->memos.cluster = memo;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(serialized(dir, "memo-" + std::to_string(i),
                             replay(specs[i])),
                  live[i])
            << specs[i].label << " differs once the budget is spent";
        EXPECT_EQ(memo->entries(), kBudget) << specs[i].label;
    }
    EXPECT_GT(memo->hits(), 0u);
}

TEST(Runner, ThrowingClusterProducerReleasesWaiters)
{
    // A producer that throws must erase its claim and wake whoever
    // waits on the entry; the waiter then produces it itself. The
    // thrower sleeps so the waiter usually arrives while the claim
    // is in flight, but the assertions hold in either order.
    using perception::ClusterMemo;
    ClusterMemo memo(4);
    constexpr sim::Tick kScan = 100 * sim::oneMs;
    std::atomic<bool> claimed{false};
    std::thread thrower([&] {
        EXPECT_THROW(memo.step(ClusterMemo::kRoot, kScan,
                               [&]() -> ClusterMemo::Entry {
                                   claimed = true;
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(50));
                                   throw std::runtime_error(
                                       "kernel failed");
                               }),
                     std::runtime_error);
    });
    while (!claimed)
        std::this_thread::yield();
    const ClusterMemo::Step step =
        memo.step(ClusterMemo::kRoot, kScan, [] {
            ClusterMemo::Entry entry;
            entry.result.value.croppedPoints = 7;
            return entry;
        });
    thrower.join();
    EXPECT_FALSE(step.adopt);
    EXPECT_TRUE(step.stored);
    EXPECT_EQ(step.entry->result.value.croppedPoints, 7u);
    EXPECT_EQ(memo.entries(), 1u);

    // The entry is now stored: the next replay adopts it.
    const ClusterMemo::Step again =
        memo.step(ClusterMemo::kRoot, kScan, []() -> ClusterMemo::Entry {
            throw std::logic_error("a stored entry must not recompute");
        });
    EXPECT_TRUE(again.adopt);
    EXPECT_EQ(again.at, step.at);
    EXPECT_EQ(memo.hits(), 1u);
}

TEST(Runner, CacheHitIsBitIdenticalAndSkipsReplay)
{
    const std::string dir = test::freshTestDir("cache");
    const auto spec = exp::spec()
                          .durationSeconds(6)
                          .seed(7)
                          .named("cached experiment");

    exp::Runner cold(exp::RunnerConfig{1, dir});
    const prof::RunResult &first = cold.result(cold.submit(spec));
    EXPECT_EQ(cold.executed(), 1u);
    EXPECT_EQ(cold.cacheHits(), 0u);

    // The entry is on disk under the spec's content key.
    const exp::ResultCache cache(dir);
    EXPECT_TRUE(std::filesystem::exists(
        cache.entryPath(exp::cacheKey(spec))));

    exp::Runner warm(exp::RunnerConfig{1, dir});
    const prof::RunResult &second = warm.result(warm.submit(spec));
    EXPECT_EQ(warm.executed(), 0u) << "cache hit must skip replay";
    EXPECT_EQ(warm.cacheHits(), 1u);
    EXPECT_EQ(second.label, "cached experiment");

    const std::string scratch = test::freshTestDir("cache_compare");
    EXPECT_EQ(serialized(scratch, "first", first),
              serialized(scratch, "second", second));
}

TEST(Runner, CleanReplayMakesNoPayloadCopies)
{
    // The loaned transport moves every message without a host-side
    // copy; only a duplicating fault forces one. A clean replay must
    // therefore report zero copies on a real message flow.
    const auto spec =
        exp::spec().durationSeconds(6).seed(11).named("clean replay");
    exp::Runner runner(exp::RunnerConfig{1, ""});
    const prof::RunResult &run = runner.result(runner.submit(spec));
    EXPECT_EQ(run.transport.payloadCopies, 0u);
    EXPECT_EQ(run.transport.forcedCopies, 0u);
    EXPECT_GT(run.transport.deliveries, 0u);
    EXPECT_EQ(run.transport.loanedDeliveries, run.transport.deliveries);

    // The counters survive a cache round trip byte-identically.
    const std::string dir = test::freshTestDir();
    const exp::ResultCache cache(dir);
    const std::string stored = serialized(dir, "clean", run);
    const std::optional<prof::RunResult> loaded = cache.load("clean");
    ASSERT_TRUE(loaded.has_value());
    const ros::TransportCounters &a = run.transport;
    const ros::TransportCounters &b = loaded->transport;
    EXPECT_EQ(a.published, b.published);
    EXPECT_EQ(a.deliveries, b.deliveries);
    EXPECT_EQ(a.payloadCopies, b.payloadCopies);
    EXPECT_EQ(a.loanedDeliveries, b.loanedDeliveries);
    EXPECT_EQ(a.movedPublishes, b.movedPublishes);
    EXPECT_EQ(a.forcedCopies, b.forcedCopies);
    EXPECT_EQ(serialized(dir, "reloaded", *loaded), stored);
}

TEST(Runner, V5EntryWithTransportModeIsRejected)
{
    // A v5 entry named its transport mode on the transport line. The
    // mode is gone in v6, so such an entry must be a miss, not a
    // result whose counters are read off by one token.
    prof::RunResult result;
    result.label = "old entry";
    result.transport.published = 3;
    result.transport.deliveries = 3;
    result.transport.loanedDeliveries = 3;
    result.transport.movedPublishes = 3;
    const std::string dir = test::freshTestDir();
    const exp::ResultCache cache(dir);
    std::string bytes = serialized(dir, "entry", result);
    ASSERT_TRUE(cache.load("entry").has_value());

    const std::string v6Header = "avscope-result 6\n";
    ASSERT_EQ(bytes.rfind(v6Header, 0), 0u);
    bytes.replace(0, v6Header.size(), "avscope-result 5\n");
    const auto transport = bytes.find("\ntransport ");
    ASSERT_NE(transport, std::string::npos);
    bytes.insert(transport + std::string("\ntransport").size(),
                 " loan");
    {
        std::ofstream os(cache.entryPath("entry"),
                         std::ios::binary | std::ios::trunc);
        os << bytes;
    }
    ASSERT_NE(fileBytes(cache.entryPath("entry"))
                  .find("\ntransport loan 3 3 0 3 3 0\n"),
              std::string::npos);
    EXPECT_FALSE(cache.load("entry").has_value());
}

TEST(Runner, ThrowingExperimentPropagatesWithoutDeadlock)
{
    // A fault plan naming an unknown node throws from the
    // CharacterizationRun constructor on a worker thread. The
    // exception must surface from result()/collect() — not abort the
    // worker or leave the waiter blocked — and the pool must keep
    // serving jobs submitted afterwards.
    exp::Runner runner(exp::RunnerConfig{1, ""});
    auto bad = exp::spec().durationSeconds(6).named("bad plan");
    bad.faults(
        fault::FaultPlan().nodeCrash("no_such_node", 0, sim::oneSec));
    const std::size_t bad_id = runner.submit(bad);
    const std::size_t good_id = runner.submit(
        exp::spec().durationSeconds(6).named("still works"));

    EXPECT_THROW(runner.result(bad_id), std::invalid_argument);
    // Rethrow is repeatable, and collect() reports it too.
    EXPECT_THROW(runner.result(bad_id), std::invalid_argument);
    EXPECT_THROW(runner.collect(), std::invalid_argument);
    // The slot survived: the next job completed normally.
    EXPECT_EQ(runner.result(good_id).label, "still works");
}

TEST(Runner, WatchdogReportsStalledJobWithoutKillingSlot)
{
    // A 12 s replay takes well over 100 ms of wall time, so the
    // watchdog fires while the job is still executing. The stall is
    // *reported*, not cancelled: waiting again returns the finished
    // result, and the worker slot keeps serving later submissions.
    exp::Runner runner(exp::RunnerConfig{1, "", 100});
    const std::size_t slow_id = runner.submit(
        exp::spec().durationSeconds(12).named("slow"));

    bool timed_out = false;
    try {
        runner.result(slow_id);
    } catch (const exp::JobTimeoutError &error) {
        timed_out = true;
        EXPECT_EQ(error.jobId(), slow_id);
        EXPECT_EQ(error.label(), "slow");
        EXPECT_EQ(error.timeoutMs(), 100);
        EXPECT_NE(std::string(error.what()).find("slow"),
                  std::string::npos);
    }
    EXPECT_TRUE(timed_out);

    // A finished job always returns its result, however late.
    for (;;) {
        try {
            EXPECT_EQ(runner.result(slow_id).label, "slow");
            break;
        } catch (const exp::JobTimeoutError &) {
        }
    }

    const std::size_t next_id = runner.submit(
        exp::spec().durationSeconds(6).named("after the stall"));
    for (;;) {
        try {
            EXPECT_EQ(runner.result(next_id).label,
                      "after the stall");
            break;
        } catch (const exp::JobTimeoutError &) {
        }
    }

    // Both jobs done: collect() no longer times out.
    const auto all = runner.collect();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0]->label, "slow");
    EXPECT_EQ(all[1]->label, "after the stall");
}

TEST(Runner, CorruptedCacheEntryIsAMiss)
{
    const std::string dir = test::freshTestDir("corrupt");
    const auto spec =
        exp::spec().durationSeconds(6).seed(9).named("corruptable");

    exp::Runner cold(exp::RunnerConfig{1, dir});
    cold.result(cold.submit(spec));
    ASSERT_EQ(cold.executed(), 1u);

    const exp::ResultCache cache(dir);
    const std::string path = cache.entryPath(exp::cacheKey(spec));
    ASSERT_TRUE(std::filesystem::exists(path));

    // Truncate the entry mid-file: parse must fail, load must report
    // a miss, and the Runner must quietly re-execute.
    const std::string bytes = fileBytes(path);
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << bytes.substr(0, bytes.size() / 2);
    }
    EXPECT_FALSE(cache.load(exp::cacheKey(spec)).has_value());

    exp::Runner warm(exp::RunnerConfig{1, dir});
    warm.result(warm.submit(spec));
    EXPECT_EQ(warm.cacheHits(), 0u)
        << "truncated entry must not count as a hit";
    EXPECT_EQ(warm.executed(), 1u);

    // Same for arbitrary garbage replacing the payload.
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << "avscope-result 3\nlabel x\nnodes 999999999\n";
    }
    EXPECT_FALSE(cache.load(exp::cacheKey(spec)).has_value());
}

TEST(Runner, ReadingQuantilesLeavesTheSerializedEntryUnchanged)
{
    // Two results fed the same samples; one has its p99 read half
    // way through (as CampaignRunner reads worstCaseP99) and its
    // summary read at the end. Reads must not reorder what the
    // cache writes.
    prof::RunResult plain, read;
    plain.paths.push_back({"worst", util::SampleSeries(64)});
    read.paths.push_back({"worst", util::SampleSeries(64)});
    util::Rng rng(17);
    for (int i = 0; i < 500; ++i) {
        const double v = rng.logNormalMeanCv(90.0, 0.4);
        plain.paths[0].series.add(v);
        read.paths[0].series.add(v);
        if (i == 30 || i == 200)
            (void)read.worstCaseP99();
    }
    (void)read.paths[0].series.summarize();
    const std::string dir = test::freshTestDir("quantile_reads");
    EXPECT_EQ(serialized(dir, "plain", plain),
              serialized(dir, "read", read));
}

} // namespace
