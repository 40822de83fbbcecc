/**
 * @file
 * Tests for av::chaos: campaign sampling determinism and spec
 * validation, cell classification, the resilience frontier fold,
 * worker-count independence of a full campaign (byte-identical
 * outcomes for --jobs 1 vs 4 and a fully cache-warm re-run), the
 * delta-debugging minimizer's shrink guarantee and fixed point, and
 * a golden-pinned minimal repro (regenerate with
 * AVSCOPE_WRITE_GOLDEN=1).
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.hh"
#include "stack/safety.hh"
#include "test_dir.hh"

namespace av::fault {

/** Failure messages show a plan as its canonical text. */
inline void
PrintTo(const FaultPlan &plan, std::ostream *os)
{
    *os << chaos::canonicalPlan(plan);
}

} // namespace av::fault

namespace {

using namespace av;

/** The small seeded campaign every execution test runs. */
chaos::CampaignSpec
testCampaign()
{
    chaos::CampaignSpec spec;
    spec.seed = 2028;
    spec.cells = 4;
    spec.base = exp::spec()
                    .durationSeconds(6)
                    .seed(2020)
                    .degraded()
                    .invariants()
                    .named("chaos-test");
    return spec;
}

/** Everything an outcome carries, rendered to comparable bytes. */
std::string
digest(const std::vector<chaos::CellOutcome> &outcomes)
{
    std::ostringstream os;
    for (const chaos::CellOutcome &out : outcomes) {
        os << "cell " << out.cell.index << ' '
           << chaos::cellClassName(out.cls) << ' '
           << out.violationCount << ' ' << out.firstViolation << ' '
           << out.unrecovered << ' ' << out.worstPathMs << '\n'
           << chaos::canonicalPlan(out.cell.plan);
        for (const chaos::SampledFault &sf : out.cell.sampled)
            os << "  sampled " << fault::faultKindName(sf.kind)
               << " i=" << sf.intensity << '\n';
    }
    return os.str();
}

/** The bench's shrink metric: fault count dominates, then window
 *  lengths, then intensity fields. */
double
planWeight(const fault::FaultPlan &plan)
{
    double weight =
        static_cast<double>(plan.faults.size()) * 1e15;
    for (const fault::FaultSpec &spec : plan.faults)
        weight += static_cast<double>(spec.duration) +
                  static_cast<double>(spec.respawnDelay) +
                  static_cast<double>(spec.extraDelay) +
                  spec.probability + (1.0 - spec.factor);
    return weight;
}

TEST(Campaign, SpecValidationRejectsUnsatisfiable)
{
    exp::Runner runner(exp::RunnerConfig{1, ""});

    chaos::CampaignSpec zero_cells = testCampaign();
    zero_cells.cells = 0;
    EXPECT_THROW(chaos::CampaignRunner(runner, zero_cells),
                 std::invalid_argument);

    chaos::CampaignSpec bad_counts = testCampaign();
    bad_counts.minFaults = 5;
    bad_counts.maxFaults = 3;
    EXPECT_THROW(chaos::CampaignRunner(runner, bad_counts),
                 std::invalid_argument);

    chaos::CampaignSpec too_many = testCampaign();
    too_many.maxFaults = chaos::paletteSize() + 1;
    EXPECT_THROW(chaos::CampaignRunner(runner, too_many),
                 std::invalid_argument);

    chaos::CampaignSpec bad_intensity = testCampaign();
    bad_intensity.minIntensity = 0.0;
    EXPECT_THROW(chaos::CampaignRunner(runner, bad_intensity),
                 std::invalid_argument);

    chaos::CampaignSpec unarmed = testCampaign();
    unarmed.base = exp::spec().durationSeconds(6).named("unarmed");
    EXPECT_THROW(chaos::CampaignRunner(runner, unarmed),
                 std::invalid_argument);
}

TEST(Campaign, CellSamplingIsDeterministicAndCompound)
{
    exp::Runner runner(exp::RunnerConfig{1, ""});
    const chaos::CampaignRunner a(runner, testCampaign());
    const chaos::CampaignRunner b(runner, testCampaign());
    const chaos::CampaignSpec &spec = a.spec();

    for (std::size_t i = 0; i < 16; ++i) {
        const chaos::CampaignCell cell = a.cellFor(i);
        // Pure function of (spec, index): a second runner samples
        // the identical cell.
        EXPECT_EQ(cell.plan, b.cellFor(i).plan);

        ASSERT_EQ(cell.sampled.size(), cell.plan.faults.size());
        EXPECT_GE(cell.sampled.size(), spec.minFaults);
        EXPECT_LE(cell.sampled.size(), spec.maxFaults);

        // Kinds distinct (sampling without replacement) so the
        // FaultInjector's same-kind ambiguity rejections can never
        // trigger on a sampled plan.
        std::set<fault::FaultKind> kinds;
        for (const chaos::SampledFault &sf : cell.sampled) {
            kinds.insert(sf.kind);
            EXPECT_GE(sf.intensity, spec.minIntensity);
            EXPECT_LE(sf.intensity, spec.maxIntensity);
            // 1/64 grid: exact in binary.
            EXPECT_EQ(sf.intensity * 64.0,
                      static_cast<double>(static_cast<long long>(
                          sf.intensity * 64.0)));
        }
        EXPECT_EQ(kinds.size(), cell.sampled.size());

        // Onsets cluster in the drive's first half so compound
        // windows actually overlap.
        for (const fault::FaultSpec &fs : cell.plan.faults) {
            EXPECT_GE(fs.start, spec.base.driveDuration / 5);
            EXPECT_LE(fs.start, spec.base.driveDuration / 2);
        }
    }

    const chaos::CampaignCell cell = a.cellFor(0);
    const exp::ExperimentSpec cell_spec = a.specFor(cell);
    EXPECT_EQ(cell_spec.label, "chaos-test/cell0");
    EXPECT_EQ(cell_spec.config.faults.faults.size(),
              cell.plan.faults.size());
    EXPECT_TRUE(cell_spec.config.safety.enabled);
}

TEST(Campaign, ClassifyReadsViolationsThenRecovery)
{
    prof::RunResult clean;
    EXPECT_EQ(chaos::classify(clean), chaos::CellClass::Recovered);

    prof::RunResult degraded;
    fault::FaultOutcome never;
    never.recoveryMs = -1.0;
    degraded.faults.push_back(never);
    EXPECT_EQ(chaos::classify(degraded),
              chaos::CellClass::Degraded);

    prof::RunResult violated = degraded;
    stack::SafetyViolation v;
    v.kind = stack::InvariantKind::LocalizationError;
    violated.violations.push_back(v);
    EXPECT_EQ(chaos::classify(violated),
              chaos::CellClass::Violated);
}

TEST(Campaign, FrontierFoldsPerKind)
{
    std::vector<chaos::CellOutcome> outcomes(3);
    auto add = [](chaos::CellOutcome &out, fault::FaultKind kind,
                  double intensity) {
        out.cell.sampled.push_back(
            chaos::SampledFault{kind, intensity});
    };
    // Cell 0 survives lidar@0.25 + gpu@0.5; cell 1 violates
    // lidar@0.75 + camera@0.5; cell 2 survives lidar@0.5.
    outcomes[0].cls = chaos::CellClass::Recovered;
    add(outcomes[0], fault::FaultKind::LidarBlackout, 0.25);
    add(outcomes[0], fault::FaultKind::GpuThrottle, 0.5);
    outcomes[1].cls = chaos::CellClass::Violated;
    add(outcomes[1], fault::FaultKind::LidarBlackout, 0.75);
    add(outcomes[1], fault::FaultKind::CameraBlackout, 0.5);
    outcomes[2].cls = chaos::CellClass::Recovered;
    add(outcomes[2], fault::FaultKind::LidarBlackout, 0.5);

    const auto rows = chaos::resilienceFrontier(outcomes);
    ASSERT_EQ(rows.size(), 3u); // lidar, camera, gpu — in kind order
    EXPECT_EQ(rows[0].kind, fault::FaultKind::LidarBlackout);
    EXPECT_EQ(rows[0].cells, 3u);
    EXPECT_EQ(rows[0].violated, 1u);
    EXPECT_EQ(rows[0].maxSurvivedIntensity, 0.5);
    EXPECT_EQ(rows[0].minViolatedIntensity, 0.75);
    EXPECT_EQ(rows[1].kind, fault::FaultKind::CameraBlackout);
    EXPECT_EQ(rows[1].violated, 1u);
    EXPECT_EQ(rows[1].minViolatedIntensity, 0.5);
    EXPECT_EQ(rows[2].kind, fault::FaultKind::GpuThrottle);
    EXPECT_EQ(rows[2].violated, 0u);
    EXPECT_EQ(rows[2].maxSurvivedIntensity, 0.5);
}

TEST(Campaign, WorkerCountIndependentAndCacheWarmOnRerun)
{
    const std::string cacheDir = test::freshTestDir();
    const std::string cold = test::freshTestDir("cold");

    exp::Runner serial(exp::RunnerConfig{1, cacheDir});
    chaos::CampaignRunner first(serial, testCampaign());
    const std::string serial_digest = digest(first.run());

    // The seeded campaign finds at least one violation.
    std::size_t violated = 0;
    for (const chaos::CellOutcome &out : first.outcomes())
        if (out.cls == chaos::CellClass::Violated)
            ++violated;
    EXPECT_GE(violated, 1u);

    // Fresh cache, four workers: byte-identical outcomes.
    exp::Runner wide(exp::RunnerConfig{4, cold});
    chaos::CampaignRunner second(wide, testCampaign());
    EXPECT_EQ(digest(second.run()), serial_digest);
    EXPECT_EQ(wide.executed(), testCampaign().cells);

    // Warm cache: the re-run replays nothing.
    exp::Runner warm(exp::RunnerConfig{2, cacheDir});
    chaos::CampaignRunner third(warm, testCampaign());
    EXPECT_EQ(digest(third.run()), serial_digest);
    EXPECT_EQ(warm.executed(), 0u);
    EXPECT_EQ(warm.cacheHits(), testCampaign().cells);
}

TEST(Campaign, MinimizerShrinksAndReachesAFixedPoint)
{
    exp::Runner runner(exp::RunnerConfig{2, test::freshTestDir()});
    chaos::CampaignRunner campaign(runner, testCampaign());
    const chaos::CellOutcome *violated_cell = nullptr;
    for (const chaos::CellOutcome &out : campaign.run())
        if (out.cls == chaos::CellClass::Violated) {
            violated_cell = &out;
            break;
        }
    ASSERT_NE(violated_cell, nullptr);

    const chaos::MinimizeResult repro = chaos::minimizeViolation(
        runner, campaign.spec().base, violated_cell->cell.plan);

    // Strict shrink: fewer faults, or shorter/weaker ones.
    EXPECT_LT(planWeight(repro.plan),
              planWeight(violated_cell->cell.plan));
    EXPECT_GE(repro.plan.faults.size(), 1u);
    EXPECT_GT(repro.evaluations, 0u);

    // The repro preserves the original plan's first invariant.
    exp::ExperimentSpec check = campaign.spec().base;
    check.config.faults = repro.plan;
    check.label = "chaos-test/repro-check";
    const prof::RunResult &result =
        runner.result(runner.submit(check));
    EXPECT_GT(result.violationsOf(repro.invariant), 0u);

    // Local minimality: re-minimizing is the identity — every
    // attempted step fails to preserve the violation.
    const chaos::MinimizeResult again = chaos::minimizeViolation(
        runner, campaign.spec().base, repro.plan);
    EXPECT_EQ(again.plan, repro.plan);
    for (const chaos::MinimizeStep &step : again.steps)
        EXPECT_FALSE(step.kept) << step.action;
}

TEST(Campaign, MinimalReproMatchesGolden)
{
    const std::string golden_path =
        std::string(AVSCOPE_SOURCE_DIR) +
        "/tests/chaos/golden_repro.txt";

    exp::Runner runner(exp::RunnerConfig{2, test::freshTestDir()});
    chaos::CampaignRunner campaign(runner, testCampaign());
    const chaos::CellOutcome *violated_cell = nullptr;
    for (const chaos::CellOutcome &out : campaign.run())
        if (out.cls == chaos::CellClass::Violated) {
            violated_cell = &out;
            break;
        }
    ASSERT_NE(violated_cell, nullptr);

    const chaos::MinimizeResult repro = chaos::minimizeViolation(
        runner, campaign.spec().base, violated_cell->cell.plan);
    std::ostringstream got;
    got << "invariant " << stack::invariantName(repro.invariant)
        << '\n'
        << chaos::canonicalPlan(repro.plan);

    if (std::getenv("AVSCOPE_WRITE_GOLDEN") != nullptr) {
        std::ofstream os(golden_path, std::ios::binary);
        os << got.str();
        ASSERT_TRUE(os.good());
        GTEST_SKIP() << "golden regenerated at " << golden_path;
    }

    std::ifstream is(golden_path, std::ios::binary);
    ASSERT_TRUE(is.good())
        << "missing " << golden_path
        << " — regenerate with AVSCOPE_WRITE_GOLDEN=1";
    std::ostringstream want;
    want << is.rdbuf();
    EXPECT_EQ(got.str(), want.str());
}

} // namespace
