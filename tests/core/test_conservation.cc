/**
 * @file
 * Conservation cross-checks between independent counts of one run.
 *
 *  - Per subscription, every message that reached the queue (one
 *    Deliver event in the trace) is accounted for exactly once:
 *    processed, dropped by the bounded queue, discarded by a crash
 *    (queued at the crash or arriving while down), or still queued.
 *  - Per node, the derived Fig. 5 sample count (activations that
 *    published) equals the publications in each topic the node
 *    advertises, from the recorder's publish log and from the
 *    topic's own counter — minus the tracker's coasts, which publish
 *    outside any activation. The costmap's obj + points rows
 *    together match its one output topic.
 *
 * Both run on a clean 4 s drive and on one with a euclidean_cluster
 * crash plus duplicated image detections.
 *
 *  - Per owner, the machine's accounting matches the trace's
 *    hardware events on a clean 6 s SSD512 drive: GPU active time is
 *    the sum of the GpuKernel spans, and CPU busy time lies between
 *    the CpuTask events' nominal compute and their submit-to-retire
 *    spans (plus one tick per task for the completion's rounding).
 */

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/run_result.hh"

namespace {

using namespace av;
using sim::oneMs;
using sim::oneSec;

class LatencyConservation : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        world::ScenarioConfig cfg;
        cfg.seed = 2020;
        drive_ = prof::makeDrive(cfg, 4 * oneSec);
    }

    static void TearDownTestSuite() { drive_.reset(); }

    static std::shared_ptr<prof::DriveData> drive_;
};

std::shared_ptr<prof::DriveData> LatencyConservation::drive_;

void
checkQueues(const prof::CharacterizationRun &run)
{
    const trace::Recorder &rec = run.recorder();
    std::map<std::pair<std::string, std::string>, std::uint64_t>
        arrivals;
    for (const trace::Event &ev : rec.canonicalEvents())
        if (ev.kind == trace::EventKind::Deliver)
            ++arrivals[{rec.name(ev.topic), rec.name(ev.node)}];

    for (const ros::Node *node : run.graph().nodes()) {
        for (const auto &sub : node->subscriptions()) {
            const ros::SubscriptionStats &st = sub->stats();
            const std::uint64_t arrived =
                arrivals[{sub->topicName(), node->name()}];
            EXPECT_EQ(arrived, st.processed + st.dropped +
                                   st.crashDiscarded + sub->queued())
                << sub->topicName() << " -> " << node->name();
            EXPECT_LE(st.delivered, arrived)
                << sub->topicName() << " -> " << node->name();
            if (st.crashDiscarded == 0) {
                EXPECT_EQ(st.delivered, arrived)
                    << sub->topicName() << " -> " << node->name();
            }
        }
    }
}

void
checkNodeSamples(const prof::CharacterizationRun &run)
{
    const prof::RunResult result = prof::snapshotRun(run);
    const double coasts = result.resilienceOf("tracker_coasts");
    for (const perception::PerceptionNode *node :
         run.stack().nodes()) {
        const std::vector<std::string> rows =
            node->name() == "costmap_generator"
                ? std::vector<std::string>{"costmap_generator_obj",
                                           "costmap_generator_points"}
                : std::vector<std::string>{node->name()};
        std::uint64_t samples = 0;
        for (const std::string &row : rows) {
            const util::SampleSeries *series =
                result.findNodeSeries(row);
            ASSERT_NE(series, nullptr) << row;
            samples += series->count();
        }
        EXPECT_GT(samples, 0u) << node->name();
        if (node->name() == "imm_ukf_pda_tracker")
            samples += static_cast<std::uint64_t>(coasts);

        bool advertises = false;
        for (const ros::TopicBase *topic : run.graph().topics()) {
            if (topic->advertisers().empty() ||
                topic->advertisers().front() != node->name())
                continue;
            advertises = true;
            const auto *log =
                run.recorder().publishLog(topic->name());
            ASSERT_NE(log, nullptr) << topic->name();
            EXPECT_EQ(samples, log->size())
                << node->name() << " on " << topic->name();
            EXPECT_EQ(log->size(), topic->published())
                << topic->name();
        }
        EXPECT_TRUE(advertises) << node->name();
    }
}

TEST_F(LatencyConservation, CleanRun)
{
    prof::RunConfig cfg;
    cfg.trace = true;
    prof::CharacterizationRun run(drive_, cfg);
    run.execute();
    checkQueues(run);
    checkNodeSamples(run);
}

TEST_F(LatencyConservation, CrashAndDuplicateRun)
{
    prof::RunConfig cfg;
    cfg.trace = true;
    cfg.faults = fault::FaultPlan()
                     .nodeCrash("euclidean_cluster", 1500 * oneMs,
                                oneSec)
                     .messageDuplicate(perception::topics::imageObjects,
                                       oneSec, 2 * oneSec, 0.5);
    prof::CharacterizationRun run(drive_, cfg);
    run.execute();
    // Guard against a vacuous check: both faults bit.
    const prof::RunResult result = prof::snapshotRun(run);
    EXPECT_GT(result.resilienceOf("crash_discarded"), 0.0);
    EXPECT_GT(result.transport.forcedCopies, 0u);
    checkQueues(run);
    checkNodeSamples(run);
}

TEST(ResourceConservation, CleanSsd512Run)
{
    world::ScenarioConfig scenario;
    scenario.seed = 2020;
    prof::RunConfig cfg;
    cfg.trace = true;
    ASSERT_EQ(cfg.stack.detector, perception::DetectorKind::Ssd512);
    prof::CharacterizationRun run(prof::makeDrive(scenario, 6 * oneSec),
                                  cfg);
    run.execute();

    struct Owner
    {
        double gpuSpanS = 0.0;
        double cpuNominalS = 0.0;
        double cpuSpanS = 0.0;
        std::uint64_t cpuTasks = 0;
    };
    std::map<std::string, Owner> owners;
    const trace::Recorder &rec = run.recorder();
    for (const trace::Event &ev : rec.canonicalEvents()) {
        if (ev.kind == trace::EventKind::GpuKernel) {
            owners[rec.name(ev.node)].gpuSpanS +=
                sim::ticksToSeconds(ev.end - ev.start);
        } else if (ev.kind == trace::EventKind::CpuTask) {
            Owner &o = owners[rec.name(ev.node)];
            o.cpuNominalS += ev.nominalNs * 1e-9;
            o.cpuSpanS += sim::ticksToSeconds(ev.end - ev.start);
            ++o.cpuTasks;
        }
    }
    const auto &gpuActive = run.machine().gpu().accounting()
                                .activeSecondsByOwner;
    const auto &cpuBusy = run.machine().cpu().accounting()
                              .busySecondsByOwner;
    for (const auto &[owner, seconds] : gpuActive)
        owners[owner];
    for (const auto &[owner, seconds] : cpuBusy)
        owners[owner];

    std::uint64_t kernelOwners = 0;
    for (const auto &[owner, o] : owners) {
        const auto gpu = gpuActive.find(owner);
        const double active = gpu == gpuActive.end() ? 0.0 : gpu->second;
        EXPECT_NEAR(active, o.gpuSpanS, 1e-9 * o.gpuSpanS) << owner;
        kernelOwners += o.gpuSpanS > 0.0;

        const auto cpu = cpuBusy.find(owner);
        const double busy = cpu == cpuBusy.end() ? 0.0 : cpu->second;
        EXPECT_LE(o.cpuNominalS, busy) << owner;
        EXPECT_LE(busy, o.cpuSpanS + sim::ticksToSeconds(o.cpuTasks))
            << owner;
    }
    // Guard against a vacuous check: the detector ran kernels and
    // every stack node ran CPU tasks.
    EXPECT_GT(kernelOwners, 0u);
    EXPECT_GE(cpuBusy.size(), run.stack().nodes().size());
}

} // namespace
