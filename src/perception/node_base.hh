/**
 * @file
 * Base class for all perception/actuation nodes.
 *
 * Wires a ros::Node to its persistent microarchitectural state and
 * the machine: a handler runs its algorithm functionally (in zero
 * virtual time, instrumented through the profiler), then converts
 * the recorded work into a CPU task (and optionally GPU phases) on
 * the shared machine. A node's latency (the paper's per-node chrono
 * probes, §III-B) is derived from the run's trace::Recorder
 * activation log (prof::nodeSeries).
 */

#ifndef AVSCOPE_PERCEPTION_NODE_BASE_HH
#define AVSCOPE_PERCEPTION_NODE_BASE_HH

#include <functional>
#include <string>

#include "ros/ros.hh"
#include "uarch/profiler.hh"
#include "util/hash.hh"
#include "util/random.hh"

namespace av::perception {

/** Per-node execution-model knobs. */
struct NodeConfig
{
    /**
     * Abstract-op to machine-instruction expansion (see
     * NodeArchState::setOpScale); calibrated per node in
     * stack/config.cc against the paper's Fig. 5 means.
     */
    double workScale = 1.0;
    /** µarch trace sampling period (1 = every invocation). */
    std::uint32_t tracePeriod = 1;
    uarch::CacheConfig cache;
    uarch::BranchConfig branch;
    uarch::PipelineConfig pipeline;
};

void
fields(auto &&ar, util::MaybeConst<NodeConfig> auto &c)
{
    auto &[workScale, tracePeriod, cache, branch, pipeline] = c;
    ar(workScale, tracePeriod, cache, branch, pipeline);
}

/**
 * Common machinery for stack nodes.
 */
class PerceptionNode : public ros::Node
{
  public:
    /**
     * Residual per-invocation cost jitter (coefficient of
     * variation): the OS/DVFS/cache-weather noise a real node shows
     * even in isolation (the paper measures ~1 ms of stddev on an
     * isolated 73 ms detector). Log-normal, deterministic per node.
     */
    static constexpr double kCostJitterCv = 0.015;

    PerceptionNode(ros::RosGraph &graph, std::string name,
                   const NodeConfig &config = NodeConfig());

    /** Persistent µarch state (Table VII / Fig. 7 source). */
    const uarch::NodeArchState &arch() const { return arch_; }
    uarch::NodeArchState &arch() { return arch_; }

  protected:
    /** Start instrumented functional work for one invocation. */
    void
    beginWork()
    {
        arch_.beginInvocation();
    }

    /** Profiler handle to pass into algorithms. */
    uarch::KernelProfiler
    profiler()
    {
        return uarch::KernelProfiler(&arch_);
    }

    /**
     * Finish the invocation and run its cost as one CPU task.
     * @p then fires when the simulated execution completes.
     */
    void
    finishWorkOnCpu(std::function<void()> then)
    {
        runOnCpu(arch_.endInvocation(), std::move(then));
    }

    /** Run @p cost as one CPU task; @p then fires on completion. */
    void runOnCpu(const uarch::InvocationCost &cost,
                  std::function<void()> then);

    /**
     * Finish the invocation and return the cost so the caller can
     * build a multi-phase (CPU/GPU) execution.
     */
    uarch::InvocationCost
    finishWork()
    {
        return arch_.endInvocation();
    }

    /** Build a CPU task from an invocation cost. */
    hw::CpuTask makeCpuTask(const uarch::InvocationCost &cost,
                            std::function<void()> on_complete);

    /** Derive an output header continuing @p input's lineage. */
    ros::Header
    deriveHeader(const ros::Header &input) const
    {
        ros::Header h;
        h.stamp = graph_.eventQueue().now();
        h.origins = input.origins;
        return h;
    }

    hw::Machine &machine() { return graph_.machine(); }

    /** One residual-jitter factor (see kCostJitterCv). */
    double
    costJitter()
    {
        return jitterRng_.logNormalMeanCv(1.0, kCostJitterCv);
    }

  private:
    uarch::NodeArchState arch_;
    util::Rng jitterRng_;
};

} // namespace av::perception

#endif // AVSCOPE_PERCEPTION_NODE_BASE_HH
