/**
 * @file
 * Instrumentation interface between algorithms and the µarch models.
 *
 * Perception algorithms are written once, against KernelProfiler, and
 * run in two modes:
 *
 *  - detached (null state): every probe is a no-op; the algorithm is
 *    a plain library function (used by unit tests and by downstream
 *    users who only want the functionality);
 *  - attached (NodeArchState): bulk op counts accumulate always, and
 *    on *traced* invocations the reported addresses / branch outcomes
 *    additionally drive the cache and branch-predictor simulators, so
 *    miss rates reflect the real data structures the algorithm
 *    touched (the paper's PAPI/valgrind step, §III-B).
 *
 * Convention: addOps() supplies the dynamic instruction counts;
 * load()/store()/branch() supply *behaviour* (addresses, outcomes)
 * and do not count instructions, so instrumenting only the hot loop
 * never double-counts.
 */

#ifndef AVSCOPE_UARCH_PROFILER_HH
#define AVSCOPE_UARCH_PROFILER_HH

#include <cstdint>
#include <string>

#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/opcounts.hh"
#include "uarch/pipeline.hh"

namespace av::uarch {

/** Cost of one node invocation, derived by NodeArchState. */
struct InvocationCost
{
    OpCounts ops;          ///< dynamic instructions this invocation
    double cycles = 0.0;   ///< pipeline-model cycle estimate
    double dramBytes = 0.0;///< estimated traffic past L1 (miss * line)
    double l1ReadMissRate = 0.0;
    double l1WriteMissRate = 0.0;
    double branchMissRate = 0.0;
};

/**
 * Persistent per-node microarchitectural state: one L1D, one branch
 * predictor, cumulative counters. Lives as long as the node so caches
 * stay warm across invocations, like a real pinned process.
 */
class NodeArchState
{
  public:
    /**
     * @param trace_period simulate traces on every Nth invocation
     *                     (1 = always); others reuse the EWMA rates
     */
    explicit NodeArchState(const CacheConfig &cache = CacheConfig(),
                           const BranchConfig &branch = BranchConfig(),
                           const PipelineConfig &pipe = PipelineConfig(),
                           std::uint32_t trace_period = 2);

    /** Start an invocation; decides whether this one is traced. */
    void beginInvocation();

    /** Finish and cost the invocation started last. */
    InvocationCost endInvocation();

    /** True while inside a traced invocation. */
    bool tracing() const { return tracing_; }

    /** Cumulative mix across all invocations (Fig. 7). */
    const OpCounts &totalOps() const { return totalOps_; }

    /** Lifetime cache statistics over traced invocations. */
    const CacheStats &cacheStats() const { return l1d_.stats(); }

    /** Lifetime branch statistics over traced invocations. */
    const BranchStats &branchStats() const { return bp_.stats(); }

    /** Smoothed L1 read miss rate currently in effect. */
    double ewmaReadMiss() const { return ewmaReadMiss_; }
    double ewmaWriteMiss() const { return ewmaWriteMiss_; }
    double ewmaBranchMiss() const { return ewmaBranchMiss_; }

    /** Average IPC over everything recorded so far. */
    double lifetimeIpc() const;

    /**
     * Expansion factor applied to every recorded op count.
     * Calibrates abstract algorithm operations to the machine
     * instructions a real (PCL/OpenCV-based) implementation
     * executes, and folds in the sensor-density scaling documented
     * in DESIGN.md.
     */
    void setOpScale(double scale) { opScale_ = scale; }

    // Interface used by KernelProfiler -------------------------------
    void
    recordOps(const OpCounts &ops)
    {
        if (opScale_ == 1.0) {
            invOps_ += ops;
            return;
        }
        OpCounts scaled;
        scaled.loads = static_cast<std::uint64_t>(
            static_cast<double>(ops.loads) * opScale_);
        scaled.stores = static_cast<std::uint64_t>(
            static_cast<double>(ops.stores) * opScale_);
        scaled.branches = static_cast<std::uint64_t>(
            static_cast<double>(ops.branches) * opScale_);
        scaled.intAlu = static_cast<std::uint64_t>(
            static_cast<double>(ops.intAlu) * opScale_);
        scaled.fpAlu = static_cast<std::uint64_t>(
            static_cast<double>(ops.fpAlu) * opScale_);
        scaled.fpDiv = static_cast<std::uint64_t>(
            static_cast<double>(ops.fpDiv) * opScale_);
        scaled.simd = static_cast<std::uint64_t>(
            static_cast<double>(ops.simd) * opScale_);
        scaled.other = static_cast<std::uint64_t>(
            static_cast<double>(ops.other) * opScale_);
        invOps_ += scaled;
    }
    void recordLoad(std::uintptr_t addr, std::uint32_t bytes)
    { l1d_.read(addr, bytes); }
    void recordStore(std::uintptr_t addr, std::uint32_t bytes)
    { l1d_.write(addr, bytes); }
    void recordHotLoads(std::uint64_t n) { l1d_.creditHits(n, false); }
    void recordHotStores(std::uint64_t n) { l1d_.creditHits(n, true); }
    void recordBranch(std::uint64_t site, bool taken)
    { bp_.record(site, taken); }
    void recordBulkBranches(std::uint64_t count)
    { bp_.recordBulkPredictable(count); }

    const PipelineModel &pipeline() const { return pipe_; }

  private:
    CacheModel l1d_;
    GsharePredictor bp_;
    PipelineModel pipe_;
    std::uint32_t tracePeriod_;
    std::uint64_t invocations_ = 0;
    bool tracing_ = false;
    bool inInvocation_ = false;

    OpCounts invOps_;
    OpCounts totalOps_;
    double totalCycles_ = 0.0;

    // Snapshot of sim stats at beginInvocation for per-invocation
    // deltas.
    CacheStats cacheAtBegin_;
    BranchStats branchAtBegin_;

    double ewmaReadMiss_ = 0.01;
    double ewmaWriteMiss_ = 0.01;
    double ewmaBranchMiss_ = 0.01;
    double opScale_ = 1.0;
};

/**
 * The handle algorithms receive. Copyable, cheap, possibly detached.
 */
class KernelProfiler
{
  public:
    /** Detached profiler: all probes are no-ops. */
    KernelProfiler() = default;

    /** Attached profiler feeding @p state. */
    explicit KernelProfiler(NodeArchState *state) : state_(state) {}

    /** True when address/branch probes should be emitted. */
    bool
    tracing() const
    {
        return state_ != nullptr && state_->tracing();
    }

    /** Bulk dynamic-instruction accounting (always honoured). */
    void
    addOps(const OpCounts &ops)
    {
        if (state_)
            state_->recordOps(ops);
    }

    /**
     * Identifier of one logical data region inside a node's probe
     * address space — an input cloud, an output buffer, a tree's
     * node pool. Distinct regions never alias. Instrumented
     * algorithms that can feed the same NodeArchState must use
     * disjoint ids; each translation unit owns a block of eight:
     * dnn/cost.cc 1-7, pointcloud/kdtree.cc 8-15,
     * pointcloud/voxel_grid.cc 16-23,
     * perception/euclidean_cluster.cc 24-31,
     * perception/imm_ukf_pda.cc 32-39,
     * perception/motion_predict.cc 40-47, perception/ndt.cc 48-55,
     * perception/costmap.cc 56-63,
     * perception/ray_ground_filter.cc 64-71.
     */
    using Region = std::uint32_t;

    /**
     * Report a (sampled) data load at byte @p offset of @p region.
     *
     * Probes address a *logical* space, never host pointers: the
     * host allocator's layout differs run to run (co-location,
     * chunk reuse, alignment), which would make modelled miss
     * rates — and every latency derived from them —
     * nondeterministic. Offsets derived from indices, keys or
     * cursors carry exactly the locality the model needs
     * (sequential scans stay sequential, pointer chasing stays
     * scattered) while keeping replays bit-identical.
     *
     * So the probe stream — each probe's region, offset, size and
     * order, and every branch outcome — is a kernel's contract with
     * the models; its host layout and control flow are not. A kernel
     * may change either freely as long as the stream stays the same:
     * the kd-tree pins its logical node stride in
     * pc::KdTree::kProbeNodeBytes, whatever sizeof its host node is.
     */
    void
    load(Region region, std::uint64_t offset, std::uint32_t bytes)
    {
        if (tracing())
            state_->recordLoad(logicalAddr(region, offset), bytes);
    }

    /** Report a (sampled) data store at @p offset of @p region. */
    void
    store(Region region, std::uint64_t offset, std::uint32_t bytes)
    {
        if (tracing())
            state_->recordStore(logicalAddr(region, offset), bytes);
    }

    /** Report a data-dependent branch outcome. */
    void
    branch(std::uint64_t site, bool taken)
    {
        if (tracing())
            state_->recordBranch(site, taken);
    }

    /**
     * Report @p n loads that are guaranteed L1 hits (hot locals,
     * just-touched data). Keeps traced miss rates representative.
     */
    void
    hotLoads(std::uint64_t n)
    {
        if (tracing())
            state_->recordHotLoads(n);
    }

    /** Report @p n guaranteed-hit stores. */
    void
    hotStores(std::uint64_t n)
    {
        if (tracing())
            state_->recordHotStores(n);
    }

    /** Report @p count trivially predictable branches. */
    void
    bulkBranches(std::uint64_t count)
    {
        if (tracing())
            state_->recordBulkBranches(count);
    }

    /** Attached at all? */
    bool attached() const { return state_ != nullptr; }

  private:
    /**
     * Region bases are staggered by an odd number of cache lines so
     * the regions of one node do not all map to set 0.
     */
    static constexpr std::uintptr_t
    logicalAddr(Region region, std::uint64_t offset)
    {
        return (std::uintptr_t{region} << 40) +
               std::uintptr_t{region} * (11 * 64) + offset;
    }

    NodeArchState *state_ = nullptr;
};

} // namespace av::uarch

#endif // AVSCOPE_UARCH_PROFILER_HH
