/**
 * @file
 * Bottleneck-classifier unit tests: one synthetic event stream per
 * class (queue / contention / gpu / cpu / idle), the ordered-rule
 * precedence, hardware-owner attribution (including the costmap's
 * suffixed callback owners) and threshold overrides.
 */

#include <gtest/gtest.h>

#include "trace/dag.hh"

namespace {

using namespace av;
using sim::oneMs;

/** Milliseconds to ticks, rounded to nearest. */
sim::Tick
msTicks(double ms)
{
    return static_cast<sim::Tick>(ms * static_cast<double>(oneMs) + 0.5);
}

/**
 * Record one activation of @p node with the given shape: trigger
 * arrives at 0, dispatch after @p wait_ms, done @p span_ms later;
 * optional nominal CPU time and one GPU kernel inside the span.
 */
void
addActivation(trace::Recorder &rec, const std::string &node,
              double wait_ms, double span_ms, double cpu_ms = 0.0,
              double gpu_ms = 0.0)
{
    const trace::Id n = rec.intern(node);
    const trace::Id topic = rec.intern("/in_" + node);
    const sim::Tick start = msTicks(wait_ms);
    const sim::Tick end = start + msTicks(span_ms);
    trace::Span span = rec.beginActivation(n, topic, 1, 0, start);
    if (cpu_ms > 0.0)
        rec.recordCpuTask(n, start, end, cpu_ms * 1e6);
    if (gpu_ms > 0.0)
        rec.recordGpuKernel(n, start, start + msTicks(gpu_ms));
    span.end(end);
}

std::string
classOf(const trace::Summary &s, const std::string &node)
{
    const trace::NodeSlack *row = s.findNode(node);
    return row ? row->bottleneck : "<missing>";
}

TEST(TraceClassifier, OneClassPerRule)
{
    trace::Recorder rec;
    rec.setEnabled(true);
    // queue-bound: waits longer for dispatch than it executes.
    addActivation(rec, "queued", 20.0, 10.0, 8.0);
    // contention-bound: span 10 ms but only 4 ms of its own work.
    addActivation(rec, "contended", 0.0, 10.0, 2.0, 2.0);
    // gpu-bound: kernel time dominates nominal CPU time.
    addActivation(rec, "gpu_heavy", 0.0, 10.0, 3.0, 5.0);
    // cpu-bound: the default for a node doing its own CPU work.
    addActivation(rec, "cpu_heavy", 0.0, 10.0, 8.0);
    // idle: delivered to, never activated.
    rec.recordDeliver(rec.intern("/in_idle"), rec.intern("idle"), 1,
                      oneMs);

    const trace::Summary s = trace::analyze(rec);
    EXPECT_EQ(classOf(s, "queued"), "queue");
    EXPECT_EQ(classOf(s, "contended"), "contention");
    EXPECT_EQ(classOf(s, "gpu_heavy"), "gpu");
    EXPECT_EQ(classOf(s, "cpu_heavy"), "cpu");
    EXPECT_EQ(classOf(s, "idle"), "idle");
}

TEST(TraceClassifier, QueueRuleFiresBeforeContentionAndGpu)
{
    trace::Recorder rec;
    rec.setEnabled(true);
    // Queue-bound AND stalled AND gpu-heavy: the ordered rules must
    // label it by the first firing rule — queue.
    addActivation(rec, "worst_of_all", 25.0, 10.0, 1.0, 2.0);
    const trace::Summary s = trace::analyze(rec);
    EXPECT_EQ(classOf(s, "worst_of_all"), "queue");
}

TEST(TraceClassifier, ThresholdOverridesChangeTheVerdict)
{
    trace::Recorder rec;
    rec.setEnabled(true);
    addActivation(rec, "queued", 20.0, 10.0, 8.0);

    // Default rules: waiting 2x its span makes it queue-bound.
    EXPECT_EQ(classOf(trace::analyze(rec), "queued"), "queue");

    // With a 3x tolerance the same node reads as cpu-bound.
    trace::ClassifierRules lax;
    lax.queueBoundRatio = 3.0;
    EXPECT_EQ(classOf(trace::analyze(rec, lax), "queued"), "cpu");

    // And with a zero contention tolerance its 2 ms stall fires the
    // contention rule instead (queue rule still suppressed).
    lax.contentionStallFraction = 0.1;
    EXPECT_EQ(classOf(trace::analyze(rec, lax), "queued"),
              "contention");
}

TEST(TraceClassifier, HardwareOwnersMapOntoSuffixedNodes)
{
    trace::Recorder rec;
    rec.setEnabled(true);
    // The costmap node's two callbacks account hardware work under
    // suffixed owners; both must fold into the node's row.
    addActivation(rec, "costmap_generator", 0.0, 10.0);
    const trace::Id owner_obj = rec.intern("costmap_generator_obj");
    const trace::Id owner_pts =
        rec.intern("costmap_generator_points");
    rec.recordCpuTask(owner_obj, 0, 5 * oneMs, 3e6);
    rec.recordCpuTask(owner_pts, 0, 5 * oneMs, 4e6);
    // Not at an underscore boundary: must NOT be attributed.
    rec.recordCpuTask(rec.intern("costmap_generatorx"), 0, oneMs,
                      50e6);
    // Unknown owner entirely: silently dropped.
    rec.recordCpuTask(rec.intern("someone_else"), 0, oneMs, 50e6);

    const trace::Summary s = trace::analyze(rec);
    const trace::NodeSlack *row = s.findNode("costmap_generator");
    ASSERT_NE(row, nullptr);
    EXPECT_DOUBLE_EQ(row->meanCpuMs, 7.0);
    EXPECT_EQ(row->bottleneck, "cpu");
}

TEST(TraceClassifier, MeansAverageOverActivations)
{
    trace::Recorder rec;
    rec.setEnabled(true);
    // Two activations, 10 ms and 20 ms spans with 2 ms and 4 ms
    // waits: the row must carry the per-activation means.
    const trace::Id n = rec.intern("node");
    const trace::Id t = rec.intern("/in");
    trace::Span s1 = rec.beginActivation(n, t, 1, 0, 2 * oneMs);
    s1.end(12 * oneMs);
    trace::Span s2 = rec.beginActivation(n, t, 2, 20 * oneMs,
                                         24 * oneMs);
    s2.end(44 * oneMs);

    const trace::Summary s = trace::analyze(rec);
    const trace::NodeSlack *row = s.findNode("node");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->activations, 2u);
    EXPECT_DOUBLE_EQ(row->meanQueueWaitMs, 3.0);
    EXPECT_DOUBLE_EQ(row->meanSpanMs, 15.0);
}

} // namespace
