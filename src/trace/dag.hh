/**
 * @file
 * Execution-DAG analysis over a recorded drive: longest (critical)
 * path, per-node slack, and a deterministic rule-based bottleneck
 * classifier — the rocm-perf-lab architecture (trace → DAG →
 * critical path → classifier) ported onto the AV stack.
 *
 * The DAG's nodes are node activations (and the CPU tasks / GPU
 * kernels they schedule); its edges are the pub/sub hops keyed by
 * (topic, seq) plus the node-serialization implied by one callback
 * in flight per node. The critical path is reconstructed backwards
 * from the worst end-to-end frame at a sink topic: each publication
 * is attributed to the activation whose span produced it, and each
 * activation to the publication of its trigger message, down to the
 * externally-published sensor input. Per step the waiting share
 * (queue wait, from Stamped::arrival semantics: trigger arrival →
 * dispatch) is split from the compute share (dispatch → output).
 *
 * Everything here is a pure function of the recorder's canonical
 * event stream, so analyses are byte-identical across worker
 * counts.
 */

#ifndef AVSCOPE_TRACE_DAG_HH
#define AVSCOPE_TRACE_DAG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace av::trace {

/** Publisher name used for externally-fed topics (bag replay). */
inline const char *const kExternalPublisher = "(external)";

/**
 * Thresholds of the rule-based bottleneck classifier. Rules fire in
 * a fixed order, so every node gets exactly one deterministic label:
 *
 *  1. queue-bound:      meanQueueWait > queueBoundRatio * meanSpan —
 *     the node spends longer waiting for dispatch than executing
 *     (the R-TOD "waiting, not compute" signature).
 *  2. contention-bound: stall > contentionStallFraction * span,
 *     where stall = span − nominal CPU time − GPU kernel time —
 *     the span is inflated by interference (memory contention, core
 *     queueing, GPU queue wait) rather than by its own work.
 *  3. gpu-bound:        GPU kernel time exceeds nominal CPU time.
 *  4. cpu-bound:        everything else with at least one activation.
 *
 * Nodes that never activated are labeled "idle".
 */
struct ClassifierRules
{
    double queueBoundRatio = 1.0;
    double contentionStallFraction = 0.4;
};

/** One critical-path step (source → sink order). */
struct PathStep
{
    std::string node;    ///< activation that produced the hop
    std::string topic;   ///< trigger message's topic
    std::uint64_t seq = 0; ///< trigger message's seq
    double queueWaitMs = 0.0; ///< trigger arrival → dispatch
    double computeMs = 0.0;   ///< dispatch → output publication
};

/** One node's slack summary + bottleneck label. */
struct NodeSlack
{
    std::string node;
    std::uint64_t activations = 0;
    double meanQueueWaitMs = 0.0; ///< arrival → dispatch
    double meanSpanMs = 0.0;      ///< dispatch → done
    double meanCpuMs = 0.0;       ///< nominal (contention-free) CPU
    double meanGpuMs = 0.0;       ///< GPU kernel execution
    double meanStallMs = 0.0;     ///< span − cpu − gpu (≥ 0)
    std::string bottleneck;       ///< queue/contention/gpu/cpu/idle
};

/** One traced pub/sub edge with its message count. */
struct EdgeUse
{
    std::string topic;
    std::string from; ///< publisher node, or kExternalPublisher
    std::string to;   ///< subscriber node
    std::uint64_t messages = 0;
};

/** The complete analysis of one traced drive. */
struct Summary
{
    bool enabled = false;     ///< false when the run was untraced
    std::uint64_t events = 0; ///< retained trace events
    double criticalPathMs = 0.0; ///< worst sink-frame E2E latency
    std::string terminalTopic;   ///< sink of the worst frame ("" if none)
    std::vector<PathStep> criticalPath; ///< source → sink
    std::vector<NodeSlack> nodes;       ///< sorted by node name
    std::vector<EdgeUse> edges;         ///< sorted (topic, from, to)

    /** Slack row of one node; nullptr when untraced/unknown. */
    const NodeSlack *findNode(const std::string &name) const;
};

/**
 * Analyze @p recorder's event stream. Requires tracing to have been
 * enabled; with an empty stream the summary is enabled but empty.
 */
Summary analyze(const Recorder &recorder,
                const ClassifierRules &rules = ClassifierRules());

/**
 * Structural canonical rendering of a summary — the sink, the
 * critical path's node sequence, every node's bottleneck class and
 * every traced edge, without counts or timings. This is the form the
 * golden-DAG snapshot test pins (tests/trace/golden_dag.txt), like
 * avgraph's golden_topology.txt: timing calibrations may drift, the
 * traced structure may not.
 */
std::string canonicalDag(const Summary &summary);

} // namespace av::trace

#endif // AVSCOPE_TRACE_DAG_HH
