/**
 * @file
 * Golden pin of the µarch layer's raw output on a real drive.
 *
 * For a 4 s seed-2020 full-stack drive per detector, every node's
 * L1 read/write hits and misses, branch predicted/mispredicted
 * counts and lifetime op counts by class (the integers behind
 * Table VII and Fig. 7) must match tests/uarch/golden_uarch.txt.
 * Simulated latencies depend on these only through EWMA rates; this
 * pins the cache and branch simulators directly. Regenerate after an
 * intentional change with:
 *       AVSCOPE_WRITE_GOLDEN=1 ./avscope_tests \
 *           --gtest_filter='UarchGolden.*'
 */

#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/characterization.hh"
#include "perception/node_base.hh"
#include "perception/vision_model.hh"

namespace {

using namespace av;

/** One line per node: name, L1 and branch counters, op mix. */
std::string
nodeCounters(perception::DetectorKind detector)
{
    world::ScenarioConfig scenario;
    scenario.seed = 2020;
    const auto drive = prof::makeDrive(scenario, 4 * sim::oneSec);
    prof::RunConfig config;
    config.stack.detector = detector;
    prof::CharacterizationRun run(drive, config);
    run.execute();

    std::ostringstream out;
    for (const perception::PerceptionNode *node : run.stack().nodes()) {
        const uarch::CacheStats &c = node->arch().cacheStats();
        const uarch::BranchStats &b = node->arch().branchStats();
        const uarch::OpCounts &ops = node->arch().totalOps();
        out << perception::detectorName(detector) << ' '
            << node->name() << " l1 " << c.readHits << ' '
            << c.readMisses << ' ' << c.writeHits << ' '
            << c.writeMisses << " br " << b.predicted << ' '
            << b.mispredicted << " ops " << ops.loads << ' '
            << ops.stores << ' ' << ops.branches << ' ' << ops.intAlu
            << ' ' << ops.fpAlu << ' ' << ops.fpDiv << ' ' << ops.simd
            << ' ' << ops.other << '\n';
    }
    return out.str();
}

TEST(UarchGolden, NodeCountersMatchGolden)
{
    std::string actual;
    for (const perception::DetectorKind detector :
         {perception::DetectorKind::Ssd512,
          perception::DetectorKind::Ssd300,
          perception::DetectorKind::Yolov3})
        actual += nodeCounters(detector);

    const std::string path = std::string(AVSCOPE_SOURCE_DIR) +
                             "/tests/uarch/golden_uarch.txt";
    if (std::getenv("AVSCOPE_WRITE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden counters regenerated: " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden_uarch.txt fixture";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), actual)
        << "µarch counters changed; if intentional, regenerate with "
           "AVSCOPE_WRITE_GOLDEN=1";
}

} // namespace
