/**
 * @file
 * Quickstart: record a short synthetic drive, build its map, replay
 * it through the full Autoware-like stack on the simulated platform,
 * and read back the measurements — the whole public API in ~60
 * lines of logic.
 *
 *   ./quickstart --duration 20
 */

#include <cstdio>

#include "common.hh"
#include "core/run_result.hh"

using namespace av;

int
main(int argc, char **argv)
{
    const bench::BenchOptions flags = bench::parseOrExit(
        bench::BenchOptions().integer("duration", 20,
                                      "drive length in seconds", 1),
        argc, argv);
    const long seconds = flags.integer("duration");

    // 1. The world: a deterministic city-block drive. makeDrive()
    //    records every sensor into a bag and builds the NDT map
    //    (the ndt_mapping step).
    world::ScenarioConfig scenario;
    scenario.seed = 42;
    auto drive = prof::makeDrive(
        scenario, static_cast<sim::Tick>(seconds) * sim::oneSec);
    std::printf("recorded %zu messages, map has %zu points\n",
                drive->bag.totalMessages(), drive->map.size());

    // 2. The system under test: pick a detector, keep the default
    //    platform (4-core CPU + 11 TFLOPS GPU).
    prof::RunConfig config;
    config.stack.detector = perception::DetectorKind::Yolov3;

    // 3. Replay.
    prof::CharacterizationRun run(drive, config);
    run.execute();

    // 4. Read the measurements, detached from the live simulation.
    const prof::RunResult result = prof::snapshotRun(run);
    std::printf("\nper-node latency (ms):\n");
    for (const auto &node : result.nodeLatencies()) {
        std::printf("  %-26s mean %7.2f   p99 %8.2f   (n=%zu)\n",
                    node.name.c_str(), node.summary.mean,
                    node.summary.p99, node.summary.count);
    }

    std::printf("\nend-to-end paths (ms):\n");
    for (const auto &path : result.paths) {
        const auto s = path.series.summarize();
        std::printf("  %-20s mean %7.2f   p99 %8.2f\n",
                    path.name.c_str(), s.mean, s.p99);
    }

    std::printf("\nplatform: CPU %.1f%% busy / %.1f W, GPU %.1f%% "
                "busy / %.1f W\n",
                100 * result.totalCpu.mean(), result.cpuWatts.mean(),
                100 * result.totalGpu.mean(), result.gpuWatts.mean());

    std::printf("tracker currently follows %zu confirmed objects\n",
                run.stack().trackerNode()->tracker()
                    .confirmedCount());
    std::printf("\nworst-path p99 = %.1f ms -> the 100 ms budget is "
                "%s\n",
                result.worstCaseP99(),
                result.worstCaseP99() > 100.0 ? "EXCEEDED" : "met");
    return 0;
}
