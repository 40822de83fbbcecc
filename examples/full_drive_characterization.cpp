/**
 * @file
 * The paper's complete methodology (Fig. 3) as one program, driven
 * through the experiment engine: describe the run as an
 * ExperimentSpec, submit it to a Runner, and print the full report
 * from the returned RunResult — per-node latency, end-to-end paths,
 * drops, utilization, power, and PAPI-style counters. Repeated
 * invocations with the same parameters come back from the result
 * cache without recording or replaying anything.
 *
 *   ./full_drive_characterization --detector ssd512 --duration 120
 */

#include <cstdio>
#include <iostream>

#include "common.hh"
#include "core/report.hh"
#include "exp/runner.hh"
#include "util/table.hh"

using namespace av;

int
main(int argc, char **argv)
{
    const bench::BenchOptions flags = bench::parseOrExit(
        bench::BenchOptions()
            .text("detector", "ssd512", "ssd512, ssd300 or yolo")
            .integer("duration", 60, "drive length in seconds", 1)
            .integer("seed", 2020, "scenario seed")
            .text("report", "", "directory for the CSV report")
            .flag("no-cache", "disable the result cache"),
        argc, argv);
    const std::string &which = flags.text("detector");
    perception::DetectorKind kind = perception::DetectorKind::Ssd512;
    if (which == "ssd300")
        kind = perception::DetectorKind::Ssd300;
    else if (which == "yolo" || which == "yolov3")
        kind = perception::DetectorKind::Yolov3;
    else if (which != "ssd512")
        util::fatal("unknown detector '", which,
                    "' (ssd512|ssd300|yolo)");

    exp::RunnerConfig engine;
    if (!flags.flag("no-cache"))
        engine.cacheDir = exp::defaultCacheDir();
    exp::Runner runner(engine);

    const prof::RunResult &run = runner.result(runner.submit(
        exp::spec()
            .detector(kind)
            .durationSeconds(flags.integer("duration"))
            .seed(static_cast<std::uint64_t>(flags.integer("seed")))
            .named(perception::detectorName(kind))));

    // ------------------------------------------------ latency
    util::Table latency("Single-node latency (ms)",
                        {"node", "n", "min", "q1", "mean", "q3",
                         "p99", "max"});
    for (const auto &node : run.nodeLatencies()) {
        const auto &s = node.summary;
        latency.addRow({node.name, std::to_string(s.count),
                        util::Table::num(s.min),
                        util::Table::num(s.q1),
                        util::Table::num(s.mean),
                        util::Table::num(s.q3),
                        util::Table::num(s.p99),
                        util::Table::num(s.max)});
    }
    latency.print(std::cout);

    // ------------------------------------------------ paths
    util::Table paths("\nEnd-to-end computation paths (ms)",
                      {"path", "mean", "p99", "max"});
    for (const auto &row : run.paths) {
        const auto s = row.series.summarize();
        paths.addRow({row.name, util::Table::num(s.mean),
                      util::Table::num(s.p99),
                      util::Table::num(s.max)});
    }
    paths.print(std::cout);

    // ------------------------------------------------ drops
    util::Table drops("\nDropped messages", {"topic", "node",
                                             "drop rate"});
    for (const auto &row : run.drops) {
        if (row.dropped == 0)
            continue;
        drops.addRow({row.topic, row.node,
                      util::Table::pct(row.dropRate())});
    }
    drops.print(std::cout);

    // ------------------------------------------------ utilization
    util::Table util_table("\nUtilization (1 Hz sampling)",
                           {"owner", "CPU share", "GPU residency"});
    for (const auto &row : run.utilization) {
        util_table.addRow({row.owner,
                           util::Table::pct(row.cpuShare.mean()),
                           util::Table::pct(row.gpuShare.mean())});
    }
    util_table.addRow({"TOTAL",
                       util::Table::pct(run.totalCpu.mean()),
                       util::Table::pct(run.totalGpu.mean())});
    util_table.print(std::cout);

    std::printf("\npower: CPU %.1f W, GPU %.1f W (energy %.0f J + "
                "%.0f J)\n",
                run.cpuWatts.mean(), run.gpuWatts.mean(),
                run.cpuEnergyJ, run.gpuEnergyJ);

    // ------------------------------------------------ counters
    util::Table counters("\nMicroarchitecture counters",
                         {"node", "IPC", "L1r miss", "L1w miss",
                          "br miss", "mix"});
    for (const auto &row : run.counters) {
        if (row.mix.total() == 0)
            continue;
        counters.addRow({row.node, util::Table::num(row.ipc),
                         util::Table::pct(row.l1ReadMissRate),
                         util::Table::pct(row.l1WriteMissRate),
                         util::Table::pct(row.branchMissRate),
                         row.mix.mixString()});
    }
    counters.print(std::cout);

    // Optional: dump everything as CSV for plotting.
    if (flags.given("report")) {
        const std::string &dir = flags.text("report");
        if (prof::writeRunReport(run, dir))
            util::inform("CSV report written to ", dir);
        else
            util::warn("could not write report to ", dir);
    }
    return 0;
}
