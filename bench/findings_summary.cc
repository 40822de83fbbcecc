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
#include <iostream>

#include "findings.hh"

namespace {

void
writeTransportJson(av::util::JsonWriter &json,
                   const std::vector<av::prof::RunResult> &runs,
                   double wallSeconds, int failed)
{
    json.object().field("bench", "findings_summary", "wall_clock_s",
                        wallSeconds, "findings_failed", failed);
    json.key("runs").array();
    for (const av::prof::RunResult &run : runs) {
        json.object().field("label", run.label, "worst_path_mean_ms",
                            run.worstCaseMean(), "worst_path_p99_ms",
                            run.worstCaseP99());
        json.key("drops").array();
        for (const auto &row : run.drops)
            if (row.delivered != 0)
                json.row("topic", row.topic, "node", row.node,
                         "delivered", row.delivered, "dropped",
                         row.dropped, "drop_rate", row.dropRate());
        const av::ros::TransportCounters &t = run.transport;
        json.end().key("transport").row(
            "published", t.published, "deliveries", t.deliveries,
            "payload_copies", t.payloadCopies, "loaned_deliveries",
            t.loanedDeliveries, "moved_publishes", t.movedPublishes,
            "forced_copies", t.forcedCopies).end();
    }
    json.end().end();
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

    const bool wrote = av::bench::writeArtifact(
        env.options().text("json"), [&](av::util::JsonWriter &json) {
            writeTransportJson(json, runs, wall, failed);
        });
    return failed == 0 && wrote ? 0 : 1;
}
