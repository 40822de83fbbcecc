/**
 * @file
 * av::trace — the single per-drive recording surface.
 *
 * The paper's methodology instruments every layer separately (chrono
 * probes per node, atop for utilization, header lineage for paths).
 * This recorder unifies the event-shaped part of that instrumentation
 * behind one API: the middleware reports message publish/deliver hops
 * keyed by (topic, seq), nodes report activation spans (dispatch →
 * done) through RAII handles, and the hardware models report CPU-task
 * and GPU-kernel executions. From those events src/trace/dag.hh
 * assembles the per-frame execution DAG, the longest path, per-node
 * slack and a rule-based bottleneck classification.
 *
 * Two retention tiers:
 *
 *  - The per-topic *publish log* and the *activation log* are
 *    always on once a recorder is attached. They are cheap, and the
 *    run's latency rows (Fig. 5, Fig. 6), its staleness and recovery
 *    probes and the safety monitor's liveness and deadline checks
 *    are all derived from them — no private buffers, no topic
 *    taps.
 *  - The full *event stream* (deliveries, activations, CPU tasks,
 *    GPU kernels) is retained only when tracing is enabled
 *    (RunConfig::trace), keeping untraced replays lean. Activation
 *    events are rendered from the activation log.
 *
 * Determinism: the recorder is write-only with respect to the
 * simulation — recording never schedules events, reads the host
 * clock or perturbs timing. canonicalEvents() returns the stream in
 * a byte-stable canonical order (tick, topic, seq, kind, node), so
 * traced results serialize identically for any worker count.
 */

#ifndef AVSCOPE_TRACE_TRACE_HH
#define AVSCOPE_TRACE_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/ticks.hh"

namespace av::trace {

/** Interned string handle; 0 is always the empty string. */
using Id = std::uint32_t;

/** What one trace event describes. */
enum class EventKind : std::uint8_t {
    Publish,    ///< a message entered a topic
    Deliver,    ///< a message reached one subscription's queue
    Activation, ///< one node callback span (dispatch -> done)
    CpuTask,    ///< one hw::CpuTask execution (submit -> retire)
    GpuKernel,  ///< one GPU kernel execution (start -> end)
};

/**
 * One recorded event. A single POD shape for every kind keeps the
 * stream sortable and serializable; unused fields stay zero.
 *
 * Field use by kind:
 *  - Publish:    tick (publish time), topic, seq, node (publisher,
 *                0 = external), stamp, originLidar/originCamera
 *  - Deliver:    tick (= arrival), topic, seq, node (subscriber)
 *  - Activation: tick (= start), topic + seq (trigger message),
 *                node, arrival (trigger's arrival), start, end
 *  - CpuTask:    tick (= start = submit time), node (owner), end,
 *                nominalNs (contention-free duration)
 *  - GpuKernel:  tick (= start), node (owner), end
 */
struct Event
{
    EventKind kind = EventKind::Publish;
    sim::Tick tick = 0; ///< primary timestamp (canonical sort key)
    Id topic = 0;
    std::uint64_t seq = 0;
    Id node = 0;
    sim::Tick arrival = 0;
    sim::Tick start = 0;
    sim::Tick end = 0;
    sim::Tick stamp = 0;
    sim::Tick originLidar = 0;
    sim::Tick originCamera = 0;
    double nominalNs = 0.0;
};

/** One publication in the always-on per-topic publish log. */
struct PublishRecord
{
    sim::Tick tick = 0;  ///< when publish() ran
    sim::Tick stamp = 0; ///< the message header's stamp
    std::uint64_t seq = 0;
    sim::Tick originLidar = 0;  ///< header lineage (0 = none)
    sim::Tick originCamera = 0;
};

/** One node activation (dispatch -> done) in the activation log;
 *  `published` = the node published while the span was open. */
struct ActivationRecord
{
    Id node = 0;
    Id topic = 0; ///< the trigger message's topic
    std::uint64_t seq = 0;
    sim::Tick arrival = 0; ///< the trigger's arrival
    sim::Tick start = 0;   ///< dispatch
    sim::Tick end = 0;     ///< done(); == start until closed
    bool published = false;
};

class Recorder;

/**
 * RAII handle for one open node-activation span. Obtained from
 * Recorder::beginActivation when the middleware dispatches a
 * message; end() closes it when the node's simulated execution
 * finishes (the done() callback). A Span destroyed while still open
 * closes zero-length at its begin tick, so a handler that never
 * completes (crashed node draining) cannot corrupt the stream.
 */
class Span
{
  public:
    Span() = default;
    Span(Recorder *recorder, std::size_t index)
        : recorder_(recorder), index_(index)
    {}
    Span(Span &&o) noexcept { *this = std::move(o); }
    Span &operator=(Span &&o) noexcept
    {
        recorder_ = o.recorder_;
        index_ = o.index_;
        o.recorder_ = nullptr;
        return *this;
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    ~Span();

    /** Close the span at @p now. Idempotent. */
    void end(sim::Tick now);

    /** True while the span has not been closed. */
    bool open() const { return recorder_ != nullptr; }

  private:
    Recorder *recorder_ = nullptr;
    std::size_t index_ = 0;
};

/**
 * The per-drive event recorder. One instance per CharacterizationRun,
 * attached to the middleware (RosGraph::setTraceRecorder) and the
 * hardware models (Machine::setTraceRecorder) before the stack is
 * built.
 */
class Recorder
{
  public:
    Recorder() { names_.emplace_back(); } // Id 0 = ""

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    /** Retain the full event stream (RunConfig::trace). */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Intern @p name; equal strings share one Id. */
    Id intern(const std::string &name);

    /** The string behind @p id. */
    const std::string &name(Id id) const;

    /** The Id of @p name; 0 when never interned. */
    Id find(const std::string &name) const;

    // ---- emission surface ---------------------------------------

    /**
     * Record one publication. Always feeds the publish log and marks
     * the publisher's open activation (if any) as having published;
     * appends a full event only when tracing is enabled.
     * @param publisher the advertising node (0 = external source:
     *        bag replay, probes)
     */
    void recordPublish(Id topic, Id publisher, std::uint64_t seq,
                       sim::Tick stamp, sim::Tick origin_lidar,
                       sim::Tick origin_camera, sim::Tick now);

    /** Record one message entering @p subscriber's queue. */
    void recordDeliver(Id topic, Id subscriber, std::uint64_t seq,
                       sim::Tick arrival);

    /**
     * Open an activation span: @p node starts processing the
     * (topic, seq) message that arrived at @p arrival. Always
     * appends to the activation log; a node has at most one span
     * open at a time.
     */
    Span beginActivation(Id node, Id topic, std::uint64_t seq,
                         sim::Tick arrival, sim::Tick now);

    /** Record one retired CPU task of @p owner. */
    void recordCpuTask(Id owner, sim::Tick submitted, sim::Tick now,
                       double nominal_ns);

    /** Record one executed GPU kernel of @p owner. */
    void recordGpuKernel(Id owner, sim::Tick started, sim::Tick now);

    // ---- always-on logs (probe surface) -------------------------

    /** All publications of @p topic in publish order; nullptr when
     *  the topic never published. */
    const std::vector<PublishRecord> *publishLog(Id topic) const;
    const std::vector<PublishRecord> *
    publishLog(const std::string &topic) const;

    /** Newest publication of @p topic; nullptr before the first. */
    const PublishRecord *lastPublish(const std::string &topic) const;

    /** Every activation in dispatch order. */
    const std::vector<ActivationRecord> &activations() const
    {
        return activations_;
    }

    // ---- full event stream (trace mode) -------------------------

    /** Events retained so far (0 when tracing is disabled). */
    std::uint64_t eventCount() const
    {
        return enabled_ ? events_.size() + activations_.size() : 0;
    }

    /**
     * The event stream in byte-stable canonical order: sorted by
     * (tick, topic name, seq, kind, node name). Identical for any
     * worker count of the same replay.
     */
    std::vector<Event> canonicalEvents() const;

  private:
    friend class Span;
    void endActivation(std::size_t index, sim::Tick now);

    bool enabled_ = false;
    std::vector<std::string> names_;
    std::map<std::string, Id> ids_;
    std::vector<Event> events_; ///< every kind but Activation
    std::map<Id, std::vector<PublishRecord>> publishes_;
    std::vector<ActivationRecord> activations_;
    std::map<Id, std::size_t> open_; ///< node -> its open activation
};

} // namespace av::trace

#endif // AVSCOPE_TRACE_TRACE_HH
