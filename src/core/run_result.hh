/**
 * @file
 * RunResult — the complete measurement record of one finished
 * characterization run, detached from the live simulation objects.
 *
 * CharacterizationRun owns an EventQueue, a Machine and a node
 * graph; everything a bench or report consumes afterwards is *data*.
 * RunResult snapshots that data into one self-contained value that
 * can be copied between threads, serialized into the result cache
 * (src/exp) and reloaded byte-identically — the unit of work the
 * experiment Runner returns.
 */

#ifndef AVSCOPE_CORE_RUN_RESULT_HH
#define AVSCOPE_CORE_RUN_RESULT_HH

#include <string>
#include <utility>
#include <vector>

#include "core/characterization.hh"

namespace av::prof {

/** One named latency distribution (a Fig. 5 row). */
struct NamedSeries
{
    std::string name;
    util::SampleSeries series;
};

/** One owner's utilization statistics (a Table V row). */
struct UtilizationResult
{
    std::string owner;
    util::RunningStats cpuShare;
    util::RunningStats gpuShare;
};

/**
 * Everything the benches, examples and report writer read from a
 * completed run. Plain data: copyable, serializable, immutable by
 * convention once produced.
 */
struct RunResult
{
    std::string label;

    /** Per-node latency, costmap callbacks split (Fig. 5 order). */
    std::vector<NamedSeries> nodes;

    /** End-to-end latency per computation path (Fig. 6). */
    std::vector<NamedSeries> paths;

    std::vector<DropRow> drops;           ///< Table III
    std::vector<CounterRow> counters;     ///< Table VII / Fig. 7
    std::vector<UtilizationResult> utilization; ///< Table V
    util::RunningStats totalCpu;          ///< machine-wide CPU share
    util::RunningStats totalGpu;          ///< machine-wide GPU share
    util::RunningStats cpuWatts;          ///< Table VI
    util::RunningStats gpuWatts;
    double cpuEnergyJ = 0.0;
    double gpuEnergyJ = 0.0;

    /** Per-owner device busy seconds (the Fig. 8 CPU/GPU split). */
    std::vector<std::pair<std::string, double>> cpuSecondsByOwner;
    std::vector<std::pair<std::string, double>> gpuSecondsByOwner;

    /** Per-fault outcomes; empty for a clean run. */
    std::vector<fault::FaultOutcome> faults;

    /** Per-topic publication-age distributions (staleness probe). */
    std::vector<NamedSeries> staleness;

    /** Degradation-response counters (fixed schema). */
    std::vector<std::pair<std::string, double>> resilience;

    /**
     * Safety-invariant violations in detection order; empty when
     * the run's SafetyOptions were disabled (or nothing breached).
     */
    std::vector<stack::SafetyViolation> violations;

    /**
     * Host-side payload accounting summed over every topic: the
     * receipts behind the zero-copy contract (a clean run has
     * transport.payloadCopies == 0). Deterministic — counts
     * follow the simulated message flow.
     */
    ros::TransportCounters transport;

    /**
     * Execution-DAG analysis of the traced drive: critical path,
     * per-node slack, bottleneck classes, traced edges. Empty with
     * trace.enabled == false when the run was untraced. A pure
     * function of the deterministic event stream, so it serializes
     * byte-identically across worker counts.
     */
    trace::Summary trace;

    /** Resilience counter by name; 0 when unknown. */
    double resilienceOf(const std::string &name) const;

    /** Violations of one invariant kind. */
    std::uint64_t violationsOf(stack::InvariantKind kind) const;

    /**
     * Latency series of one node; nullptr when the node was absent
     * (disabled stack section or misspelled name). The costmap's two
     * callbacks appear as costmap_generator_obj /
     * costmap_generator_points, matching the paper's Fig. 5 rows.
     */
    const util::SampleSeries *
    findNodeSeries(const std::string &name) const;

    /** Series of one computation path; nullptr when absent. */
    const util::SampleSeries *findPathSeries(Path path) const;

    /** Per-node summaries in stack order (Fig. 5 rows). */
    std::vector<NodeLatency> nodeLatencies() const;

    /** Worst-path p99 — the paper's end-to-end latency metric. */
    double worstCaseP99() const;

    /** Worst-path mean. */
    double worstCaseMean() const;

    /** Worst observed end-to-end latency across all paths. */
    double worstCaseMax() const;

    /** CPU busy seconds attributed to @p owner; 0 when unknown. */
    double cpuSecondsOf(const std::string &owner) const;

    /** GPU active seconds attributed to @p owner; 0 when unknown. */
    double gpuSecondsOf(const std::string &owner) const;
};

/**
 * The Fig. 5 rows of @p nodes from the recorder's activation log:
 * one sample (end − start, ms) per activation that published, in
 * dispatch order; costmap_generator splits into _obj and _points
 * rows by trigger topic. Callbacks that only cache their input add
 * no sample, nor do tracker coasts (published outside any span).
 */
std::vector<NamedSeries>
nodeSeries(const trace::Recorder &recorder,
           const std::vector<perception::PerceptionNode *> &nodes);

/**
 * The four Fig. 6 rows, in Path order, from the /ndt_pose and
 * /semantics/costmap publish logs: sample = publish tick − sensor
 * origin (ms), skipped when the origin is later. A costmap with a
 * camera origin ends the vision-object path (and the cluster-object
 * path if it has a LiDAR origin too), one with only a LiDAR origin
 * the points path.
 */
std::vector<NamedSeries> pathSeries(const trace::Recorder &recorder);

/**
 * Snapshot a finished run into a detached RunResult.
 * @param run   a CharacterizationRun after execute()
 * @param label human-readable experiment label carried through
 *              reports
 */
RunResult snapshotRun(const CharacterizationRun &run,
                      std::string label = "");

} // namespace av::prof

#endif // AVSCOPE_CORE_RUN_RESULT_HH
