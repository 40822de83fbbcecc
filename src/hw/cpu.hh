/**
 * @file
 * Multi-core CPU model with shared-memory interference.
 *
 * This is where the paper's central observation — contention among
 * concurrently running nodes inflates tail latency (Findings 1, 4,
 * 5) — becomes mechanical. Tasks contend in two ways:
 *
 *  1. Core contention: more runnable tasks than cores queue in a
 *     round-robin run queue with a CFS-like time slice.
 *  2. Memory contention: each task carries a DRAM-traffic intensity
 *     (bytes per executed cycle, from its L1 miss profile). When the
 *     aggregate demand of the *running* set approaches the machine's
 *     bandwidth, every running task's effective rate drops in
 *     proportion to its own memory intensity — a queueing-style
 *     latency inflation.
 *
 * Progress integrates exactly over piecewise-constant-rate intervals:
 * rates only change at scheduling events (start/stop/finish), at
 * which point all running tasks' progress is brought up to date.
 */

#ifndef AVSCOPE_HW_CPU_HH
#define AVSCOPE_HW_CPU_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "trace/trace.hh"
#include "util/hash.hh"

namespace av::hw {

/** One schedulable unit of CPU work. */
struct CpuTask
{
    std::string owner;        ///< node name, for accounting
    double cycles = 0.0;      ///< total work at nominal frequency
    /** DRAM traffic intensity (bytes/cycle past the LLC): this is
     *  the task's *demand* on the shared bus. */
    double memBytesPerCycle = 0.0;
    /** L1-miss traffic intensity (bytes/cycle into L2/LLC): this is
     *  the task's *sensitivity* — data it expects to find in the
     *  cache hierarchy that co-runners' streaming can evict/delay.
     *  Defaults to the DRAM demand when left at 0 via
     *  effectiveL1BytesPerCycle(). */
    double l1BytesPerCycle = 0.0;
    std::function<void()> onComplete; ///< fired when work retires

    double
    effectiveL1BytesPerCycle() const
    {
        return l1BytesPerCycle > 0.0 ? l1BytesPerCycle
                                     : memBytesPerCycle;
    }
};

/** CPU geometry and interference parameters. */
struct CpuConfig
{
    std::uint32_t cores = 6;
    double freqGhz = 3.7;          ///< cycles per nanosecond
    sim::Tick quantum = 2 * sim::oneMs; ///< RR time slice
    double memBandwidthGBs = 20.0; ///< usable DRAM bandwidth
    /**
     * Strength of shared-memory interference. A running task i is
     * slowed by
     *
     *   slowdown_i = 1 + memPenalty * l1bpc_i * others_i * inflation
     *
     * where l1bpc_i is its own cache-hierarchy intensity
     * (sensitivity to pollution), others_i is the co-runners' DRAM
     * demand as a fraction of bandwidth, and inflation =
     * 1 / (1 - min(U, 0.9)) is the queueing blow-up of total DRAM
     * utilization U. The slowdown is clamped to maxMemSlowdown.
     * 0 disables interference (ablation benches).
     */
    double memPenaltyCyclesPerByte = 6.0;

    /** Upper bound on the interference slowdown factor. */
    double maxMemSlowdown = 10.0;
};

void
fields(auto &&ar, util::MaybeConst<CpuConfig> auto &c)
{
    auto &[cores, freqGhz, quantum, memBandwidthGBs,
           memPenaltyCyclesPerByte, maxMemSlowdown] = c;
    ar(cores, freqGhz, quantum, memBandwidthGBs,
       memPenaltyCyclesPerByte, maxMemSlowdown);
}

/** Aggregate counters exposed to the profiling layer. */
struct CpuAccounting
{
    double busyCoreSeconds = 0.0;     ///< Σ over cores of busy time
    double dramBytes = 0.0;           ///< total DRAM traffic executed
    std::uint64_t tasksCompleted = 0;
    std::uint64_t preemptions = 0;
    std::map<std::string, double> busySecondsByOwner;
};

/**
 * The multi-core processor.
 */
class CpuModel
{
  public:
    CpuModel(sim::EventQueue &eq, const CpuConfig &config);
    ~CpuModel();

    CpuModel(const CpuModel &) = delete;
    CpuModel &operator=(const CpuModel &) = delete;

    /**
     * Submit a task; it runs as soon as a core frees up.
     * @return an id (informational)
     */
    std::uint64_t submit(CpuTask task);

    /** Number of tasks currently running on cores. */
    std::uint32_t running() const;

    /** Number of tasks waiting in the run queue. */
    std::size_t queued() const { return ready_.size(); }

    const CpuConfig &config() const { return config_; }
    const CpuAccounting &accounting() const { return acct_; }

    /**
     * Instantaneous DRAM-bus utilization in [0, ~), demand over
     * bandwidth for the currently running set.
     */
    double memDemandRatio() const;

    /**
     * Report every retired task to @p recorder (submit → retire,
     * plus the contention-free nominal duration — the classifier's
     * stall baseline). nullptr detaches.
     */
    void setTraceRecorder(trace::Recorder *recorder)
    {
        recorder_ = recorder;
    }

  private:
    struct TaskState
    {
        std::uint64_t id;
        CpuTask task;
        double remainingCycles;
        double rate = 0.0;       ///< cycles per tick while running
        sim::Tick lastUpdate = 0;
        sim::Tick submitted = 0;
        std::int32_t core = -1;  ///< -1 while queued
        sim::EventId completionEvent = 0;
        sim::Tick sliceEnd = 0;
    };

    sim::EventQueue &eq_;
    CpuConfig config_;
    CpuAccounting acct_;
    trace::Recorder *recorder_ = nullptr;
    std::uint64_t nextId_ = 1;
    std::deque<TaskState *> ready_;
    std::vector<TaskState *> coreTask_; ///< per core, null when idle
    std::unordered_map<std::uint64_t, std::unique_ptr<TaskState>>
        tasks_;

    /** Bring all running tasks' progress up to the current time. */
    void integrateProgress();

    /** Recompute rates + re-arm completion events for running set. */
    void rearm();

    /** Move ready tasks onto free cores. */
    void dispatch();

    /** Queueing inflation factor for total demand ratio @p u. */
    double inflation(double u) const;

    void onCompletion(std::uint64_t id);
    void onQuantum(std::uint64_t id);
    void finish(TaskState *ts);
};

} // namespace av::hw

#endif // AVSCOPE_HW_CPU_HH
