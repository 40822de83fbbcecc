/**
 * @file
 * avperf — AVScope's end-to-end and per-layer benchmark.
 *
 *   avperf --workload <name> [--seed 2020] [--seconds 15] [--trace 0|1]
 *          [--smoke] [--work-dir DIR] [--spans out.json]
 *          [--timeline out.json]
 *
 * --trace 0 measures the end-to-end metrics; --trace 1 runs the
 * separate traced pass and reports the per-layer metrics. Either way
 * a table goes to stdout, failed checks go to stderr, and the last
 * stdout line is one JSON object:
 *
 *   {"correct": true, "attempted": N, "failed": 0,
 *    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
 *
 * Exit status: 0 when every check passed, 1 when one failed or the
 * run broke off (then no JSON line is printed), 2 on a usage error.
 */

#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "options.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "workload.hh"

namespace {

using av::util::Table;

/** Paper figures the simulated metrics can be held against. */
struct Reference
{
    const char *workload;
    const char *metric;
    double value;
    const char *source;
};

constexpr Reference kReferences[] = {
    {"paper_drive", "sim_power_w.ssd512", 167.04, "Table VI"},
    {"paper_drive", "sim_power_w.ssd300", 109.71, "Table VI"},
    {"paper_drive", "sim_power_w.yolov3", 159.08, "Table VI"},
    {"vision_isolated", "sim_worst_mean_ms.ssd512", 73.45,
     "Fig. 8 isolated"},
    {"vision_isolated", "sim_worst_mean_ms.yolov3", 31.23,
     "Fig. 8 isolated"},
};

std::string
referenceFor(const std::string &workload, const avperf::Metric &m)
{
    for (const Reference &ref : kReferences) {
        if (workload == ref.workload && m.name == ref.metric)
            return "paper " + Table::num(ref.value) + " " + m.unit +
                   " (" + ref.source + "), error " +
                   Table::pct(m.value / ref.value - 1.0, 1);
    }
    return m.name.rfind("sim_", 0) == 0 ? "unvalidated" : "";
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::trunc);
    os << text;
    return static_cast<bool>(os.flush());
}

std::string
resultLine(const avperf::Outcome &out)
{
    std::string line =
        std::string("{\"correct\": ") +
        (out.failed == 0 ? "true" : "false") +
        ", \"attempted\": " + std::to_string(out.attempted) +
        ", \"failed\": " + std::to_string(out.failed) +
        ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const avperf::Metric &m = out.metrics[i];
        line += (i ? ", " : "") + avperf::jsonString(m.name) +
                ": {\"value\": " + avperf::jsonNumber(m.value) +
                ", \"unit\": " + avperf::jsonString(m.unit) + "}";
    }
    return line + "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    av::util::setLogThreshold(av::util::LogLevel::Warn);
    av::bench::BenchOptions options =
        av::bench::BenchOptions()
            .text("workload", "",
                  "paper_drive, vision_isolated, depth_sweep or "
                  "chaos_faulted")
            .integer("seed", 2020,
                     "input seed: the camera's phase against the LiDAR")
            .real("seconds", 15.0,
                  "host seconds the end-to-end loop measures for")
            .integer("trace", 0, "1 = traced pass, per-layer metrics")
            .flag("smoke", "4 s drives and a single batch")
            .text("work-dir", "",
                  "scratch directory for result caches (default: the "
                  "system temp directory)")
            .text("spans", "", "write the recorded spans as JSON here")
            .text("timeline", "",
                  "write the spans as Chrome trace-event JSON here");
    avperf::Workload workload;
    try {
        options.parse(argc, argv);
        if (options.integer("seed") < 0)
            throw std::invalid_argument("--seed must be >= 0");
        const long trace = options.integer("trace");
        if (trace != 0 && trace != 1)
            throw std::invalid_argument("--trace must be 0 or 1");
        workload = avperf::makeWorkload(
            options.text("workload"),
            static_cast<std::uint64_t>(options.integer("seed")),
            options.flag("smoke"));
    } catch (const std::invalid_argument &e) {
        std::cerr << "avperf: " << e.what() << "\n" << options.usage();
        return 2;
    }

    avperf::RunOptions run;
    run.seconds = options.real("seconds");
    run.workDir = options.text("work-dir");
    if (options.flag("smoke")) {
        run.seconds = 0.0;
        run.setupReps = 1;
        run.minReps = 1;
    }
    const bool traced = options.integer("trace") == 1;

    avperf::SpanRecorder spans;
    avperf::Outcome out;
    try {
        out = traced ? avperf::runTraced(workload, run, spans)
                     : avperf::runEndToEnd(workload, run, spans);
    } catch (const std::exception &e) {
        std::cerr << "avperf: " << workload.name << " broke off: "
                  << e.what() << "\n";
        return 1;
    }
    for (avperf::Metric &m : out.metrics) {
        if (!std::isfinite(m.value)) {
            out.fail(m.name + " is not finite");
            m.value = 0.0;
        }
    }

    Table table("avperf " + workload.name + " (seed " +
                    std::to_string(workload.seed) +
                    (traced ? ", traced" : "") + ")",
                {"metric", "value", "unit", "reference"});
    for (const avperf::Metric &m : out.metrics)
        table.addRow({m.name, Table::num(m.value, 4), m.unit,
                      referenceFor(workload.name, m)});
    table.print(std::cout);
    for (const std::string &note : out.notes)
        std::cout << note << "\n";
    for (const std::string &why : out.failures)
        std::cerr << "avperf: check failed: " << why << "\n";

    const std::string spans_path = options.text("spans");
    const std::string timeline_path = options.text("timeline");
    if ((!spans_path.empty() &&
         !writeFile(spans_path, spans.toJson())) ||
        (!timeline_path.empty() &&
         !writeFile(timeline_path, spans.toChromeTrace()))) {
        std::cerr << "avperf: cannot write the span files\n";
        return 1;
    }
    std::cout << resultLine(out) << std::endl;
    return avperf::exitStatus(out);
}
