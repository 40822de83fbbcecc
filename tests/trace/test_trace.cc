/**
 * @file
 * Recorder unit tests: interning, the two retention tiers (publish
 * and activation logs always on, event stream only when enabled),
 * Span RAII semantics, output crediting and the byte-stable
 * canonical event order.
 */

#include <gtest/gtest.h>

#include "trace/trace.hh"

namespace {

using namespace av;
using sim::oneMs;

TEST(TraceRecorder, InternSharesIdsAndZeroIsEmpty)
{
    trace::Recorder rec;
    EXPECT_EQ(rec.name(0), "");
    const trace::Id a = rec.intern("/points_raw");
    const trace::Id b = rec.intern("/image_raw");
    EXPECT_NE(a, 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(rec.intern("/points_raw"), a);
    EXPECT_EQ(rec.name(a), "/points_raw");
    EXPECT_EQ(rec.name(b), "/image_raw");
}

TEST(TraceRecorder, PublishLogAlwaysOnEventStreamGated)
{
    trace::Recorder rec;
    ASSERT_FALSE(rec.enabled());
    const trace::Id topic = rec.intern("/t");

    rec.recordPublish(topic, 0, 7, 10 * oneMs, 0, 10 * oneMs,
                      12 * oneMs);
    rec.recordDeliver(topic, rec.intern("n"), 7, 13 * oneMs);

    // Tier 1: the publish log recorded even though tracing is off.
    const auto *log = rec.publishLog(topic);
    ASSERT_NE(log, nullptr);
    ASSERT_EQ(log->size(), 1u);
    EXPECT_EQ(log->front().tick, 12 * oneMs);
    EXPECT_EQ(log->front().stamp, 10 * oneMs);
    EXPECT_EQ(log->front().seq, 7u);
    EXPECT_EQ(log->front().originLidar, 0u);
    EXPECT_EQ(log->front().originCamera, 10 * oneMs);
    // Tier 2: no events retained.
    EXPECT_EQ(rec.eventCount(), 0u);

    rec.setEnabled(true);
    rec.recordPublish(topic, 0, 8, 20 * oneMs, 0, 20 * oneMs,
                      22 * oneMs);
    EXPECT_EQ(rec.eventCount(), 1u);
    EXPECT_EQ(rec.publishLog(topic)->size(), 2u);
}

TEST(TraceRecorder, PublishLogByNameAndLastPublish)
{
    trace::Recorder rec;
    const trace::Id topic = rec.intern("/t");
    EXPECT_EQ(rec.publishLog("/t"), nullptr);
    EXPECT_EQ(rec.lastPublish("/t"), nullptr);
    EXPECT_EQ(rec.publishLog("/unknown"), nullptr);

    rec.recordPublish(topic, 0, 1, oneMs, oneMs, 0, 2 * oneMs);
    rec.recordPublish(topic, 0, 2, 5 * oneMs, 5 * oneMs, 0,
                      6 * oneMs);
    ASSERT_NE(rec.publishLog("/t"), nullptr);
    EXPECT_EQ(rec.publishLog("/t"), rec.publishLog(topic));
    ASSERT_NE(rec.lastPublish("/t"), nullptr);
    EXPECT_EQ(rec.lastPublish("/t")->seq, 2u);
    EXPECT_EQ(rec.lastPublish("/t")->stamp, 5 * oneMs);
}

TEST(TraceSpan, RaiiClosesAnOpenSpanZeroLength)
{
    trace::Recorder rec;
    rec.setEnabled(true);
    const trace::Id node = rec.intern("n");
    const trace::Id topic = rec.intern("/t");
    {
        trace::Span span = rec.beginActivation(node, topic, 3,
                                               oneMs, 2 * oneMs);
        EXPECT_TRUE(span.open());
        // Destroyed without end(): the span must close zero-length
        // at its begin tick rather than corrupt the stream.
    }
    const auto events = rec.canonicalEvents();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, trace::EventKind::Activation);
    EXPECT_EQ(events[0].start, 2 * oneMs);
    EXPECT_EQ(events[0].end, 2 * oneMs);
    EXPECT_EQ(events[0].arrival, oneMs);
}

TEST(TraceSpan, EndIsIdempotent)
{
    trace::Recorder rec;
    rec.setEnabled(true);
    trace::Span span = rec.beginActivation(
        rec.intern("n"), rec.intern("/t"), 1, 0, oneMs);
    span.end(4 * oneMs);
    EXPECT_FALSE(span.open());
    span.end(9 * oneMs); // ignored
    const auto events = rec.canonicalEvents();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].end, 4 * oneMs);
}

TEST(TraceSpan, DisabledRecorderKeepsOnlyTheActivationLog)
{
    trace::Recorder rec;
    const trace::Id node = rec.intern("n");
    const trace::Id out = rec.intern("/out");
    trace::Span span =
        rec.beginActivation(node, rec.intern("/t"), 1, 0, oneMs);
    EXPECT_TRUE(span.open());
    rec.recordPublish(out, node, 0, oneMs, 0, 0, 2 * oneMs);
    span.end(2 * oneMs);
    EXPECT_FALSE(span.open());
    // Tier 1: the activation is logged, credited with the output.
    ASSERT_EQ(rec.activations().size(), 1u);
    EXPECT_EQ(rec.activations()[0].start, oneMs);
    EXPECT_EQ(rec.activations()[0].end, 2 * oneMs);
    EXPECT_TRUE(rec.activations()[0].published);
    // Tier 2: no events retained.
    EXPECT_EQ(rec.eventCount(), 0u);
    EXPECT_TRUE(rec.canonicalEvents().empty());
}

TEST(TraceSpan, OnlyTheOpenSpanOfThePublisherIsCredited)
{
    trace::Recorder rec;
    const trace::Id a = rec.intern("a");
    const trace::Id b = rec.intern("b");
    const trace::Id in = rec.intern("/in");
    const trace::Id out = rec.intern("/out");
    // Published with no span open (a periodic publication).
    rec.recordPublish(out, a, 0, 0, 0, 0, 0);
    trace::Span sa = rec.beginActivation(a, in, 1, 0, oneMs);
    trace::Span sb = rec.beginActivation(b, in, 1, 0, oneMs);
    rec.recordPublish(out, a, 1, 0, 0, 0, 2 * oneMs);
    sa.end(3 * oneMs);
    sb.end(3 * oneMs);
    // After the span closed: credited to nobody.
    rec.recordPublish(out, a, 2, 0, 0, 0, 4 * oneMs);
    ASSERT_EQ(rec.activations().size(), 2u);
    EXPECT_TRUE(rec.activations()[0].published);
    EXPECT_FALSE(rec.activations()[1].published);
    EXPECT_EQ(rec.publishLog(out)->size(), 3u);
}

TEST(TraceRecorder, CanonicalOrderSortsByTickTopicNameSeqKindNode)
{
    trace::Recorder rec;
    rec.setEnabled(true);
    // Intern so that id order disagrees with name order: canonical
    // order must follow the *names*, which are stable across runs,
    // not the ids, which depend on interning order.
    const trace::Id zz = rec.intern("/zz");
    const trace::Id aa = rec.intern("/aa");
    const trace::Id node = rec.intern("n");

    rec.recordPublish(zz, 0, 1, 0, oneMs, 0, 5 * oneMs);
    rec.recordPublish(aa, 0, 2, 0, oneMs, 0, 5 * oneMs);
    rec.recordPublish(aa, 0, 1, 0, oneMs, 0, 5 * oneMs);
    rec.recordDeliver(aa, node, 1, 5 * oneMs);
    rec.recordPublish(aa, 0, 1, 0, oneMs, 0, 2 * oneMs);

    const auto events = rec.canonicalEvents();
    ASSERT_EQ(events.size(), 5u);
    // tick 2ms first.
    EXPECT_EQ(events[0].tick, 2 * oneMs);
    // Then tick 5ms sorted by topic name: /aa seq1 publish, /aa seq1
    // deliver (Publish kind < Deliver kind), /aa seq2, /zz.
    EXPECT_EQ(events[1].topic, aa);
    EXPECT_EQ(events[1].seq, 1u);
    EXPECT_EQ(events[1].kind, trace::EventKind::Publish);
    EXPECT_EQ(events[2].kind, trace::EventKind::Deliver);
    EXPECT_EQ(events[2].seq, 1u);
    EXPECT_EQ(events[3].topic, aa);
    EXPECT_EQ(events[3].seq, 2u);
    EXPECT_EQ(events[4].topic, zz);
}

} // namespace
