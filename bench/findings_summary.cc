/**
 * @file
 * CLI wrapper around the consolidated five-findings report; the body
 * lives in findings.cc so tests can run it in-process (see
 * tests/bench/test_determinism.cc).
 *
 * On top of the report this wrapper emits BENCH_transport.json — a
 * machine-readable side artifact with the headline numbers (Fig. 6
 * worst-path latency, Table III drop rates, transport payload
 * accounting) plus the cold/warm wall-clock of the whole summary.
 * The JSON is the *only* place wall-clock appears: the report stream
 * on stdout stays byte-identical run to run, which is what the
 * determinism tests pin.
 */

#include <chrono>
#include <fstream>
#include <iostream>

#include "findings.hh"
#include "util/json.hh"

namespace {

using av::util::jsonEscape;

void
writeTransportJson(std::ostream &os,
                   const std::vector<av::prof::RunResult> &runs,
                   double wallSeconds, int failed)
{
    os << "{\n";
    os << "  \"bench\": \"findings_summary\",\n";
    os << "  \"wall_clock_s\": " << wallSeconds << ",\n";
    os << "  \"findings_failed\": " << failed << ",\n";
    os << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const av::prof::RunResult &run = runs[i];
        os << "    {\n";
        os << "      \"label\": \"" << jsonEscape(run.label)
           << "\",\n";
        os << "      \"worst_path_mean_ms\": "
           << run.worstCaseMean() << ",\n";
        os << "      \"worst_path_p99_ms\": " << run.worstCaseP99()
           << ",\n";
        os << "      \"drops\": [\n";
        bool firstDrop = true;
        for (const auto &row : run.drops) {
            if (row.delivered == 0)
                continue;
            if (!firstDrop)
                os << ",\n";
            firstDrop = false;
            os << "        {\"topic\": \"" << jsonEscape(row.topic)
               << "\", \"node\": \"" << jsonEscape(row.node)
               << "\", \"delivered\": " << row.delivered
               << ", \"dropped\": " << row.dropped
               << ", \"drop_rate\": " << row.dropRate() << "}";
        }
        os << "\n      ],\n";
        os << "      \"transport\": {\"published\": "
           << run.transport.published
           << ", \"deliveries\": " << run.transport.deliveries
           << ", \"payload_copies\": "
           << run.transport.payloadCopies
           << ", \"loaned_deliveries\": "
           << run.transport.loanedDeliveries
           << ", \"moved_publishes\": "
           << run.transport.movedPublishes
           << ", \"forced_copies\": " << run.transport.forcedCopies
           << "}\n";
        os << "    }" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    av::bench::BenchEnv env(
        argc, argv,
        av::bench::commonOptions().text(
            "json", "BENCH_transport.json",
            "transport-findings JSON path (empty = skip)"));

    // Wall-clock bounds the whole summary (replay + render): the
    // honest old-vs-new number for the host-side transport work.
    // avlint: allow(wall-clock)
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<av::prof::RunResult> runs;
    const int failed =
        av::bench::runFindingsSummary(env, std::cout, &runs);
    // avlint: allow(wall-clock)
    const auto t1 = std::chrono::steady_clock::now();
    const double wall =
        std::chrono::duration<double>(t1 - t0).count();

    const std::string jsonPath = env.options().text("json");
    if (!jsonPath.empty()) {
        std::ofstream os(jsonPath, std::ios::trunc);
        if (os) {
            writeTransportJson(os, runs, wall, failed);
            std::cerr << "wrote " << jsonPath << " (wall-clock "
                      << wall << " s)\n";
        } else {
            std::cerr << "cannot write " << jsonPath << "\n";
        }
    }

    return failed == 0 ? 0 : 1;
}
