/**
 * @file
 * Compound-fault chaos campaign (beyond the paper): av::chaos
 * samples seeded compound FaultPlans (2–4 simultaneous fault kinds,
 * overlapping windows, scaled intensities) against each detector
 * stack with the safety monitor armed, classifies every cell as
 * recovered / degraded / violated, folds the cells into a per-kind
 * resilience frontier (max survivable intensity), and delta-debugs
 * the first violating cell down to a locally-minimal repro.
 *
 * Everything is a pure function of the seeds, so the whole report —
 * cell table, frontier, histogram, minimal repros and
 * BENCH_chaos.json — is byte-identical across --jobs values and
 * fully cache-warm on a second invocation.
 *
 * Extra flags on top of the common set:
 *   --campaign <n>     cells per detector (default 10; 4 in smoke)
 *   --invariants <s>   safety thresholds: default | strict | loose
 *   --smoke            one detector, four cells (CI)
 *   --json <path>      machine-readable output (in smoke mode too)
 */

#include <iostream>
#include <optional>
#include <sstream>

#include "chaos/chaos.hh"
#include "common.hh"
#include "util/logging.hh"

using namespace av;

namespace {

/** Named threshold presets for --invariants. */
stack::SafetyOptions
invariantsFor(const std::string &name)
{
    stack::SafetyOptions options;
    if (name == "strict") {
        options.maxLocalizationError = 1.5;
        options.deadlineMissStreak = 5;
        options.trackLossSamples = 5;
        options.livenessAfter = sim::oneSec;
    } else if (name == "loose") {
        options.maxLocalizationError = 5.0;
        options.deadlineMissStreak = 20;
        options.trackLossSamples = 12;
        options.livenessAfter = 4 * sim::oneSec;
    } else if (name != "default") {
        throw std::invalid_argument(
            "--invariants must be default, strict or loose (got '" +
            name + "')");
    }
    return options;
}

/** Shrink metric: fault count dominates, then total window ticks. */
double
planWeight(const fault::FaultPlan &plan)
{
    double weight =
        static_cast<double>(plan.faults.size()) * 1e15;
    for (const fault::FaultSpec &f : plan.faults)
        weight += static_cast<double>(f.duration + f.respawnDelay +
                                      f.extraDelay) +
                  f.probability + (1.0 - f.factor);
    return weight;
}

std::string
faultsCell(const chaos::CampaignCell &cell)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < cell.sampled.size(); ++i) {
        if (i != 0)
            os << '+';
        os << fault::faultKindName(cell.sampled[i].kind) << '@'
           << util::Table::num(cell.sampled[i].intensity, 2);
    }
    return os.str();
}

std::vector<std::string>
planLines(const fault::FaultPlan &plan)
{
    std::vector<std::string> lines;
    std::istringstream is(chaos::canonicalPlan(plan));
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

/** One detector's campaign products, kept for the JSON artifact. */
struct DetectorReport
{
    std::string name;
    std::vector<chaos::CellOutcome> outcomes;
    std::vector<chaos::FrontierRow> frontier;
    std::uint64_t classCount[3] = {0, 0, 0};
    std::optional<std::size_t> reproCell; ///< set with repro
    chaos::MinimizeResult repro;
};

void
writeJson(util::JsonWriter &json,
          const std::vector<DetectorReport> &reports,
          const chaos::CampaignSpec &shape)
{
    // No wall-clock fields and no cache-hit counters on purpose:
    // the artifact must be byte-identical across machines, worker
    // counts and warm/cold caches.
    json.object().field("bench", "chaos_campaign", "cellsPerDetector",
                        shape.cells);
    json.key("faultsPerCell").inlineArray().value(shape.minFaults);
    json.value(shape.maxFaults).end().key("detectors").array();
    for (const DetectorReport &r : reports) {
        json.object().field("name", r.name).key("classes");
        json.row("recovered", r.classCount[0], "degraded",
                 r.classCount[1], "violated", r.classCount[2]);
        json.key("cells").array();
        for (const chaos::CellOutcome &out : r.outcomes) {
            json.inlineObject().field(
                "index", out.cell.index, "class",
                chaos::cellClassName(out.cls), "violations",
                out.violationCount, "first", out.firstViolation,
                "unrecovered", out.unrecovered);
            json.key("faults").inlineArray();
            for (const chaos::SampledFault &sf : out.cell.sampled)
                json.row("kind", fault::faultKindName(sf.kind),
                         "intensity", sf.intensity);
            json.end().end();
        }
        json.end().key("frontier").array();
        for (const chaos::FrontierRow &row : r.frontier)
            json.row("kind", fault::faultKindName(row.kind), "cells",
                     row.cells, "violated", row.violated,
                     "maxSurvivedIntensity", row.maxSurvivedIntensity,
                     "minViolatedIntensity", row.minViolatedIntensity);
        json.end();
        if (r.reproCell) {
            json.key("repro").inlineObject().field(
                "cell", *r.reproCell, "invariant",
                stack::invariantName(r.repro.invariant), "evaluations",
                r.repro.evaluations);
            json.key("plan").inlineArray();
            for (const std::string &line : planLines(r.repro.plan))
                json.value(line);
            json.end().end();
        }
        json.end();
    }
    json.end().end();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchEnv env(
        argc, argv,
        bench::commonOptions()
            .integer("campaign", 10, "campaign cells per detector")
            .text("invariants", "default",
                  "safety thresholds: default|strict|loose")
            .flag("smoke", "one detector, four cells (CI)")
            .text("json", "BENCH_chaos.json",
                  "machine-readable output path"));
    const bool smoke = env.options().flag("smoke");

    stack::SafetyOptions invariants;
    try {
        invariants =
            invariantsFor(env.options().text("invariants"));
    } catch (const std::invalid_argument &error) {
        std::cerr << error.what() << '\n';
        return 2;
    }

    std::vector<perception::DetectorKind> kinds = bench::detectors;
    if (smoke)
        kinds.resize(1);
    std::size_t cells = static_cast<std::size_t>(
        std::max(1L, env.options().integer("campaign")));
    if (smoke && !env.options().given("campaign"))
        cells = 4;

    std::uint64_t totalViolated = 0;
    std::vector<DetectorReport> reports;
    chaos::CampaignSpec shape;

    for (std::size_t d = 0; d < kinds.size(); ++d) {
        const auto kind = kinds[d];
        DetectorReport report;
        report.name = perception::detectorName(kind);

        chaos::CampaignSpec cspec;
        cspec.seed = env.seed() + 8 * d;
        cspec.cells = cells;
        cspec.base = env.spec(kind).degraded().invariants(
            invariants);
        shape = cspec;
        chaos::CampaignRunner campaign(env.runner(), cspec);
        report.outcomes = campaign.run();

        util::Table table(
            std::string("Chaos campaign, with ") + report.name,
            {"cell", "faults", "class", "violations",
             "first violation", "unrecovered", "p99 ms"});
        for (const chaos::CellOutcome &out : report.outcomes) {
            ++report.classCount[static_cast<std::size_t>(out.cls)];
            if (out.cls == chaos::CellClass::Violated)
                ++totalViolated;
            table.addRow({std::to_string(out.cell.index),
                          faultsCell(out.cell),
                          chaos::cellClassName(out.cls),
                          std::to_string(out.violationCount),
                          out.firstViolation,
                          std::to_string(out.unrecovered),
                          util::Table::num(out.worstPathMs, 1)});
        }
        env.print(table);

        report.frontier = chaos::resilienceFrontier(report.outcomes);
        util::Table frontier(
            std::string("Resilience frontier, with ") + report.name,
            {"fault kind", "cells", "violated", "max survived i",
             "min violated i"});
        for (const chaos::FrontierRow &row : report.frontier)
            frontier.addRow(
                {fault::faultKindName(row.kind),
                 std::to_string(row.cells),
                 std::to_string(row.violated),
                 util::Table::num(row.maxSurvivedIntensity, 2),
                 util::Table::num(row.minViolatedIntensity, 2)});
        env.print(frontier);
        std::cout << "classes: " << report.classCount[0]
                  << " recovered, " << report.classCount[1]
                  << " degraded, " << report.classCount[2]
                  << " violated\n\n";

        // Delta-debug the first violating cell to its minimal repro.
        for (const chaos::CellOutcome &out : report.outcomes) {
            if (out.cls != chaos::CellClass::Violated)
                continue;
            report.repro = chaos::minimizeViolation(
                env.runner(), cspec.base, out.cell.plan);
            report.reproCell = out.cell.index;

            // The acceptance contract: every adopted step made the
            // plan strictly lighter (fewer, shorter or weaker
            // faults), violation preserved. A sampled cell can
            // itself be locally minimal — then the fixed point is
            // the identity and no step is kept.
            bool adopted = false;
            for (const chaos::MinimizeStep &step :
                 report.repro.steps)
                adopted |= step.kept;
            AV_ASSERT(adopted
                          ? planWeight(report.repro.plan) <
                                planWeight(out.cell.plan)
                          : planWeight(report.repro.plan) ==
                                planWeight(out.cell.plan),
                      "minimizer failed to shrink cell ",
                      out.cell.index);

            std::cout << "minimal repro (cell " << out.cell.index
                      << ", "
                      << stack::invariantName(report.repro.invariant)
                      << ", " << report.repro.evaluations
                      << " candidate replays):\n";
            for (const std::string &line :
                 planLines(report.repro.plan))
                std::cout << "  " << line << "\n";
            std::cout << "\n";
            break;
        }
        reports.push_back(std::move(report));
    }

    AV_ASSERT(totalViolated >= 1,
              "seeded campaign found no safety violation — "
              "sampler or monitor regressed");

    const bool wrote = bench::writeArtifact(
        env.options().text("json"), [&](util::JsonWriter &json) {
            writeJson(json, reports, shape);
        });

    std::cout
        << "Reading: a cell is 'violated' when any armed safety"
           " invariant recorded a breach, 'degraded' when every"
           " invariant held but some fault never recovered, else"
           " 'recovered'. The frontier shows, per fault kind, the"
           " strongest sampled intensity survived and the weakest"
           " that (in compound) violated. The minimal repro is the"
           " delta-debugged plan: no single fault drop, window"
           " halving or intensity weakening preserves the breach.\n";
    return wrote ? 0 : 1;
}
