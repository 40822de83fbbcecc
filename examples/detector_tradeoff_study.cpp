/**
 * @file
 * Detector trade-off study: the decision the paper motivates but
 * declares out of scope (§IV-A: "assessing the most propitious image
 * detector ... since other metrics such as detection precision also
 * need to be taken into account"). We quantify both sides on the
 * same drive: perception quality (how many ground-truth actors near
 * the ego end up tracked with a semantic label) against latency,
 * drops, and power, for each detector.
 *
 *   ./detector_tradeoff_study --duration 60
 */

#include <cstdio>
#include <iostream>
#include <set>

#include "common.hh"
#include "core/run_result.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace av;

int
main(int argc, char **argv)
{
    const bench::BenchOptions flags = bench::parseOrExit(
        bench::BenchOptions()
            .integer("duration", 60, "drive length in seconds", 1)
            .integer("seed", 2020, "scenario seed"),
        argc, argv);
    world::ScenarioConfig scenario;
    scenario.seed = static_cast<std::uint64_t>(flags.integer("seed"));
    const auto duration =
        static_cast<sim::Tick>(flags.integer("duration")) * sim::oneSec;
    auto drive = prof::makeDrive(scenario, duration);

    util::Table table(
        "Detector trade-off on the same drive",
        {"detector", "vision mean (ms)", "e2e p99 (ms)",
         "img drops", "labeled tracks", "GPU W", "total W"});

    for (const auto kind : {perception::DetectorKind::Ssd512,
                            perception::DetectorKind::Ssd300,
                            perception::DetectorKind::Yolov3}) {
        prof::RunConfig cfg;
        cfg.stack.detector = kind;
        util::inform("running ", perception::detectorName(kind),
                     " ...");
        prof::CharacterizationRun run(drive, cfg);

        // Quality probe: sample labeled confirmed tracks once per
        // second via a tap on the tracker output.
        std::set<std::uint32_t> labeled_truth;
        run.graph()
            .topic<perception::ObjectList>(
                perception::topics::trackedObjects)
            .addTap([&](const ros::Stamped<perception::ObjectList>
                            &msg) {
                for (const auto &obj : msg.data.objects) {
                    if (obj.label != perception::Label::Unknown &&
                        obj.truthId != 0)
                        labeled_truth.insert(obj.truthId);
                }
            });

        run.execute();
        const prof::RunResult result = prof::snapshotRun(run);

        const util::SampleSeries *vision =
            result.findNodeSeries("vision_detection");
        AV_ASSERT(vision != nullptr, "vision node missing");
        const auto vis = vision->summarize();
        double drops = 0.0;
        for (const auto &row : result.drops)
            if (row.topic == "/image_raw")
                drops = row.dropRate();
        const double cpu_w = result.cpuWatts.mean();
        const double gpu_w = result.gpuWatts.mean();

        table.addRow(
            {perception::detectorName(kind),
             util::Table::num(vis.mean),
             util::Table::num(result.worstCaseP99()),
             util::Table::pct(drops),
             std::to_string(labeled_truth.size()),
             util::Table::num(gpu_w),
             util::Table::num(cpu_w + gpu_w)});
    }

    table.print(std::cout);
    std::cout
        << "\n'labeled tracks' counts distinct ground-truth actors"
           " that were ever tracked with a semantic class — the"
           " recall side of the trade-off the latency/power columns"
           " price.\n";
    return 0;
}
