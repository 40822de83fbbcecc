/**
 * @file
 * Profiling probes — the measurement instruments of the paper's
 * methodology (§III-B):
 *
 *  - MachineMonitor: one 1 Hz sampler for the atop-equivalent
 *    per-node CPU share, the nvidia-smi-equivalent GPU residency
 *    (Table V) and CPU/GPU watts (Table VI);
 *  - collectDrops: per-subscription dropped messages (Table III);
 *  - collectCounters: PAPI-equivalent µarch counters per node
 *    (Table VII, Fig. 7);
 *  - StalenessMonitor: one 100 ms sampler of each watched topic's
 *    publication age and fresh->stale transitions (the degraded
 *    runs' stale-event counter);
 *  - RecoveryProbe: per-fault recovery from the same publish log.
 *
 * Node and path latency (Fig. 5, 6) are derived from the run's
 * trace::Recorder in core/run_result.hh.
 */

#ifndef AVSCOPE_CORE_PROBES_HH
#define AVSCOPE_CORE_PROBES_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "perception/nodes.hh"
#include "ros/ros.hh"
#include "sim/periodic.hh"
#include "trace/trace.hh"
#include "util/stats.hh"

namespace av::prof {

/** One owner's utilization summary. */
struct UtilizationRow
{
    util::RunningStats cpuShare; ///< fraction of all cores, per 1 s
    util::RunningStats gpuShare; ///< residency fraction, per 1 s
};

/**
 * The 1 Hz machine sampler (the finest grain atop offers, per the
 * paper). Each window yields, from one read of the machine
 * accounting: per-owner CPU share and GPU residency (atop and
 * nvidia-smi, Table V), and CPU/GPU watts from the machine's power
 * model over the same utilization integrals (Table VI).
 */
class MachineMonitor
{
  public:
    static constexpr sim::Tick kPeriod = sim::oneSec;

    MachineMonitor(sim::EventQueue &eq, hw::Machine &machine);

    /** Arm the 1 Hz sampler (first sample after one full window). */
    void start() { task_.start(kPeriod); }
    void stop() { task_.stop(); }

    const std::map<std::string, UtilizationRow> &rows() const
    {
        return rows_;
    }

    /** Whole-machine utilization over the run. */
    const util::RunningStats &totalCpu() const { return totalCpu_; }
    const util::RunningStats &totalGpu() const { return totalGpu_; }

    const util::RunningStats &cpuWatts() const { return cpuW_; }
    const util::RunningStats &gpuWatts() const { return gpuW_; }

    /** Integrated energy over the sampled windows (J). */
    double cpuEnergyJ() const { return cpuJ_; }
    double gpuEnergyJ() const { return gpuJ_; }

  private:
    void sample();

    hw::Machine &machine_;
    sim::PeriodicTask task_;
    std::map<std::string, UtilizationRow> rows_;
    util::RunningStats totalCpu_;
    util::RunningStats totalGpu_;
    util::RunningStats cpuW_;
    util::RunningStats gpuW_;
    double cpuJ_ = 0.0, gpuJ_ = 0.0;

    /** Accounting at the previous sample: each window is a delta. */
    hw::CpuAccounting lastCpu_;
    hw::GpuAccounting lastGpu_;
};

/** The paper's four computation paths (Table IV). */
enum class Path {
    Localization,
    CostmapPoints,
    CostmapVisionObj,
    CostmapClusterObj,
};

const char *pathName(Path path);

/** One topic/subscriber drop row (Table III). */
struct DropRow
{
    std::string topic;
    std::string node;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    double dropRate() const
    {
        return delivered ? double(dropped) / double(delivered) : 0.0;
    }
};

/** Harvest drop statistics from the whole graph. */
std::vector<DropRow> collectDrops(const ros::RosGraph &graph);

/** One node's µarch counters (Table VII row + Fig. 7 column). */
struct CounterRow
{
    std::string node;
    double ipc = 0.0;
    double l1ReadMissRate = 0.0;
    double l1WriteMissRate = 0.0;
    double branchMissRate = 0.0;
    uarch::OpCounts mix;
};

/** Harvest µarch counters from the stack's nodes. */
std::vector<CounterRow>
collectCounters(const std::vector<perception::PerceptionNode *> &nodes);

/** One watched topic's publication age and stale transitions. */
struct StalenessRow
{
    std::string topic;
    util::SampleSeries ageMs; ///< sampled now - newest stamp, in ms
    bool stale = false;             ///< last sample beyond kStaleAfter
    std::uint64_t staleEvents = 0;  ///< fresh->stale transitions

    explicit StalenessRow(std::string name)
        : topic(std::move(name)), ageMs(1u << 12)
    {}
};

/**
 * Samples the age of each watched topic's newest publication
 * (perception::topics::watched) every 100 ms — the distribution a
 * health monitor would alarm on — and counts *stale transitions*: a
 * topic that was flowing and then stayed silent for more than
 * kStaleAfter. Degradation responses in the stack (LiDAR-only
 * fusion, tracker coasting, NDT reseeding) are the reactions; this
 * probe is the detector and the source of the degraded runs'
 * stale-event counter. Topics are sampled only after their first
 * publication, so a disabled subsystem reads as absent, not stale.
 *
 * Reads the recorder's always-on publish log instead of installing
 * bespoke header taps: av::trace::Recorder is the single recording
 * path, and this probe is a pure consumer of it.
 */
class StalenessMonitor
{
  public:
    static constexpr sim::Tick kPeriod = 100 * sim::oneMs;
    /** A sampled age beyond this marks the topic stale. */
    static constexpr sim::Tick kStaleAfter = 500 * sim::oneMs;

    /**
     * @param recorder the run's recorder (must be attached to
     *        @p graph and outlive this probe)
     */
    StalenessMonitor(ros::RosGraph &graph,
                     const trace::Recorder &recorder);

    void start() { task_.start(kPeriod); }
    void stop() { task_.stop(); }

    /** Per-topic rows, in perception::topics::watched order. */
    const std::vector<StalenessRow> &rows() const { return rows_; }

    /** Fresh->stale transitions summed over every row. */
    std::uint64_t staleEvents() const;

  private:
    void sample();

    sim::EventQueue &eq_;
    const trace::Recorder &recorder_;
    std::vector<StalenessRow> rows_;
    sim::PeriodicTask task_;
};

/**
 * Measures the recovery behaviour of every fault in a plan: how many
 * watch-topic publications landed inside the fault window (did the
 * degradation path keep the stack alive?) and how long after onset
 * the first post-window publication appeared (how fast did the stack
 * recover?).
 *
 * A pure consumer of the recorder's publish log: construction only
 * snapshots the plan's windows, and every measurement is computed on
 * demand from the recorded publications — no taps, no private event
 * buffer. A watch topic that never published leaves recoveryMs -1.
 */
class RecoveryProbe
{
  public:
    /**
     * @param recorder the run's recorder (must be attached to the
     *        graph the faults disturb, and outlive this probe)
     */
    RecoveryProbe(const trace::Recorder &recorder,
                  const fault::FaultPlan &plan);

    /** One record per plan fault, in plan order. */
    struct Record
    {
        std::string watchTopic;
        sim::Tick onset = 0;
        sim::Tick windowEnd = 0;
        std::uint64_t publishedDuringWindow = 0;
        double recoveryMs = -1.0; ///< onset -> first post-window pub
    };

    /** Measurements per plan fault, from the publish log. */
    std::vector<Record> records() const;

    /** Fold this probe's measurements into injector outcomes. */
    void fill(std::vector<fault::FaultOutcome> &outcomes) const;

  private:
    const trace::Recorder &recorder_;
    std::vector<Record> windows_; ///< plan windows, counts unset
};

} // namespace av::prof

#endif // AVSCOPE_CORE_PROBES_HH
