/**
 * @file
 * Golden pin of the Fig. 5 node-latency and Fig. 6 path-latency
 * rows of a RunResult.
 *
 * Six 4 s seed-2020 runs, each aimed at a latency case the codec
 * golden (tests/exp/golden_codec.txt) does not reach: YOLOv3 on the
 * full stack, the detector in isolation, a deeper /image_raw queue,
 * a euclidean_cluster crash, duplicated and corrupted image
 * detections, and a camera blackout on the degraded stack (fusion's
 * LiDAR-only fallback and tracker coasts). Every nodes and paths row
 * is hashed (FNV-1a 64 over the sample count, the exact running
 * statistics and the retained samples in order) and compared with
 * tests/core/golden_latency.txt, so a change in which activations
 * or publications feed a row, or in the order they arrive, moves a
 * hash. Regenerate after an intentional measurement change with:
 *       AVSCOPE_WRITE_GOLDEN=1 ./avscope_tests \
 *           --gtest_filter='LatencyGolden.*'
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.hh"

namespace {

using namespace av;
using sim::oneMs;
using sim::oneSec;

/** FNV-1a 64 over a byte range, continuing from @p hash. */
std::uint64_t
fnv(std::uint64_t hash, const void *data, std::size_t n)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

template <typename T>
std::uint64_t
fnvValue(std::uint64_t hash, T value)
{
    return fnv(hash, &value, sizeof value);
}

/** "<run> <row> <count> <retained> <hash>" for one series. */
std::string
pin(const std::string &run, const prof::NamedSeries &row)
{
    const util::SampleSeries &s = row.series;
    const util::RunningStats::State st = s.running().state();
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnvValue<std::uint64_t>(h, s.count());
    h = fnvValue<std::uint64_t>(h, st.n);
    for (const double x : {st.mean, st.m2, st.sum, st.min, st.max})
        h = fnvValue(h, x);
    for (const double x : s.samples())
        h = fnvValue(h, x);
    std::ostringstream os;
    os << run << ' ' << row.name << ' ' << s.count() << ' '
       << s.samples().size() << ' ' << std::hex << std::setw(16)
       << std::setfill('0') << h << '\n';
    return os.str();
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** The six runs; labels double as the golden's run column. */
std::vector<exp::ExperimentSpec>
latencyRuns()
{
    namespace t = perception::topics;
    const auto base = exp::spec().durationSeconds(4).seed(2020);
    auto yolo = base;
    yolo.detector(perception::DetectorKind::Yolov3).named("yolov3");
    auto isolated = base;
    isolated.isolatedVision().named("isolated_vision");
    auto depth = base;
    depth.queueDepth(world::topics::imageRaw, "vision_detection", 4)
        .named("image_raw_depth4");
    auto crash = base;
    crash
        .faults(fault::FaultPlan().nodeCrash(
            "euclidean_cluster", 1500 * oneMs, oneSec))
        .named("cluster_crash");
    auto mangled = base;
    mangled
        .faults(fault::FaultPlan()
                    .messageDuplicate(t::imageObjects, oneSec,
                                      2 * oneSec, 0.5)
                    .messageCorrupt(t::imageObjects, 1500 * oneMs,
                                    oneSec, 0.3))
        .named("image_objects_dup_corrupt");
    auto blackout = base;
    blackout
        .faults(fault::FaultPlan().cameraBlackout(1500 * oneMs,
                                                  1500 * oneMs))
        .degraded()
        .named("camera_blackout_degraded");
    return {yolo, isolated, depth, crash, mangled, blackout};
}

TEST(LatencyGolden, NodeAndPathRowsMatchGolden)
{
    const auto specs = latencyRuns();
    exp::Runner runner(exp::RunnerConfig{2, ""});
    for (const auto &s : specs)
        runner.submit(s);
    const auto results = runner.collect();

    std::string actual;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const prof::RunResult &run = *results[i];
        ASSERT_FALSE(run.nodes.empty()) << specs[i].label;
        ASSERT_EQ(run.paths.size(), 4u) << specs[i].label;
        for (const prof::NamedSeries &row : run.nodes)
            actual += pin(specs[i].label, row);
        for (const prof::NamedSeries &row : run.paths)
            actual += pin(specs[i].label, row);
    }
    // Guard against a vacuous pin: each targeted case happened.
    EXPECT_GT(results[3]->resilienceOf("crash_discarded"), 0.0);
    EXPECT_GT(results[4]->transport.forcedCopies, 0u);
    EXPECT_GT(results[5]->resilienceOf("fusion_lidar_only"), 0.0);
    EXPECT_GT(results[5]->resilienceOf("tracker_coasts"), 0.0);

    const std::string path = std::string(AVSCOPE_SOURCE_DIR) +
                             "/tests/core/golden_latency.txt";
    if (std::getenv("AVSCOPE_WRITE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden hashes regenerated: " << path;
    }
    const std::string golden = fileBytes(path);
    ASSERT_FALSE(golden.empty()) << "missing fixture " << path;
    EXPECT_EQ(golden, actual)
        << "latency rows changed; if intentional, regenerate with "
           "AVSCOPE_WRITE_GOLDEN=1";
}

} // namespace
