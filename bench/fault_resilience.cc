/**
 * @file
 * Fault-resilience characterization (beyond the paper): every fault
 * class from av::fault injected into the full stack, per detector,
 * with the graceful-degradation responses armed. For each (detector,
 * fault) cell the report shows how long the watched output stayed
 * alive inside the fault window, how quickly it recovered after the
 * window closed, how the 100 ms end-to-end deadline budget suffered,
 * how much queue dropping inflated versus an undisturbed baseline,
 * and which degradation responses fired (LiDAR-only fusion
 * fallbacks, tracker coasts, NDT reseeds) against the staleness
 * probe's stale events (the watchdog_stale_events counter).
 *
 * The schedule scales with --duration so short smoke runs and long
 * characterization runs exercise the same phases: onset at T/3, a
 * window of T/4, crash respawn after T/8.
 */

#include <cstdio>
#include <iostream>
#include <iterator>

#include "common.hh"

using namespace av;

namespace {

/** One fault class to characterize, with its scaled schedule. */
struct FaultCase
{
    const char *name;
    fault::FaultPlan (*plan)(sim::Tick onset, sim::Tick window,
                             sim::Tick respawn);
};

const FaultCase faultCases[] = {
    {"lidar_blackout",
     [](sim::Tick onset, sim::Tick window, sim::Tick) {
         return fault::FaultPlan().lidarBlackout(onset, window);
     }},
    {"camera_blackout",
     [](sim::Tick onset, sim::Tick window, sim::Tick) {
         return fault::FaultPlan().cameraBlackout(onset, window);
     }},
    {"gnss_blackout",
     [](sim::Tick onset, sim::Tick window, sim::Tick) {
         return fault::FaultPlan().gnssBlackout(onset, window);
     }},
    {"frame_loss",
     [](sim::Tick onset, sim::Tick window, sim::Tick) {
         return fault::FaultPlan().frameLoss(world::topics::pointsRaw,
                                             onset, window, 0.5);
     }},
    {"node_crash",
     [](sim::Tick onset, sim::Tick, sim::Tick respawn) {
         return fault::FaultPlan().nodeCrash("euclidean_cluster",
                                             onset, respawn);
     }},
    {"msg_delay",
     [](sim::Tick onset, sim::Tick window, sim::Tick) {
         return fault::FaultPlan().messageDelay(
             perception::topics::lidarObjects, onset, window,
             50 * sim::oneMs);
     }},
    {"msg_duplicate",
     [](sim::Tick onset, sim::Tick window, sim::Tick) {
         return fault::FaultPlan().messageDuplicate(
             perception::topics::imageObjects, onset, window, 0.5);
     }},
    {"msg_corrupt",
     [](sim::Tick onset, sim::Tick window, sim::Tick) {
         return fault::FaultPlan().messageCorrupt(
             perception::topics::filteredPoints, onset, window, 0.3);
     }},
    {"gpu_throttle",
     [](sim::Tick onset, sim::Tick window, sim::Tick) {
         return fault::FaultPlan().gpuThrottle(onset, window, 0.4);
     }},
};

/** Fraction of end-to-end path samples over the 100 ms budget. */
double
deadlineMissRate(const prof::RunResult &run)
{
    std::size_t total = 0, missed = 0;
    for (const prof::NamedSeries &row : run.paths) {
        for (double ms : row.series.samples()) {
            ++total;
            if (ms > 100.0)
                ++missed;
        }
    }
    return total ? double(missed) / double(total) : 0.0;
}

/** Whole-graph drop rate: dropped over offered, all topics pooled. */
double
totalDropRate(const prof::RunResult &run)
{
    std::uint64_t delivered = 0, dropped = 0;
    for (const prof::DropRow &row : run.drops) {
        delivered += row.delivered;
        dropped += row.dropped;
    }
    const std::uint64_t offered = delivered + dropped;
    return offered ? double(dropped) / double(offered) : 0.0;
}

std::string
countCell(const prof::RunResult &run, const char *counter)
{
    return util::Table::num(run.resilienceOf(counter), 0);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchEnv env(argc, argv);

    const sim::Tick onset = env.duration() / 3;
    const sim::Tick window = env.duration() / 4;
    const sim::Tick respawn = env.duration() / 8;

    // Submit everything up front: per detector one undisturbed
    // baseline (degradation armed but idle) plus one run per fault
    // class, all fanned across the worker pool.
    std::vector<std::size_t> baselines;
    std::vector<std::vector<std::size_t>> faulted;
    for (const auto kind : bench::detectors) {
        baselines.push_back(
            env.runner().submit(env.spec(kind).degraded()));
        faulted.emplace_back();
        for (const FaultCase &fc : faultCases) {
            auto spec = env.spec(kind).degraded().faults(
                fc.plan(onset, window, respawn));
            spec.named(std::string(perception::detectorName(kind)) +
                       " + " + fc.name);
            faulted.back().push_back(env.runner().submit(spec));
        }
    }

    for (std::size_t d = 0; d < bench::detectors.size(); ++d) {
        const auto kind = bench::detectors[d];
        const prof::RunResult &base =
            env.runner().result(baselines[d]);
        const double base_drop = totalDropRate(base);

        util::Table table(
            std::string("Fault resilience, with ") +
                perception::detectorName(kind),
            {"fault", "recovery ms", "pub in window",
             "deadline miss", "drop vs clean", "lidar-only",
             "coasts", "reseeds", "stale events"});
        for (std::size_t f = 0; f < std::size(faultCases); ++f) {
            const prof::RunResult &run =
                env.runner().result(faulted[d][f]);
            // Single-fault plans: the one outcome row is the cell.
            const fault::FaultOutcome &outcome = run.faults.at(0);
            const double drop = totalDropRate(run);
            const std::string inflation =
                base_drop > 0.0
                    ? util::Table::num(drop / base_drop, 2) + "x"
                    : util::Table::pct(drop);
            table.addRow(
                {faultCases[f].name,
                 outcome.recoveryMs < 0.0
                     ? std::string("never")
                     : util::Table::num(outcome.recoveryMs, 1),
                 std::to_string(outcome.publishedDuringWindow),
                 util::Table::pct(deadlineMissRate(run)),
                 inflation, countCell(run, "fusion_lidar_only"),
                 countCell(run, "tracker_coasts"),
                 countCell(run, "ndt_reseeds"),
                 countCell(run, "watchdog_stale_events")});
        }
        env.print(table);
        std::printf("baseline (no fault): deadline miss %s, drop"
                    " rate %s\n\n",
                    util::Table::pct(deadlineMissRate(base)).c_str(),
                    util::Table::pct(base_drop).c_str());
    }

    std::cout
        << "Reading: 'pub in window' > 0 means degradation kept the"
           " watched output publishing through the fault;"
           " 'recovery ms' is fault onset to the first publication"
           " after the window closes. Sensor blackouts stress the"
           " fallback paths (LiDAR-only fusion, tracker coasting,"
           " NDT reseeding); transport faults mostly show up as"
           " deadline misses and drop inflation.\n";
    return 0;
}
