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
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

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

/** A kernel's value with the µarch cost of computing it. */
template <class T>
struct Measured
{
    T value;
    uarch::InvocationCost cost;
};

/**
 * One invocation's simulated work: a CPU task or, with a GPU job,
 * the CPU slice before it, the job, and the CPU slice after it.
 */
struct Work
{
    /** One CPU task, accounted to @p as (empty: the node). */
    Work(const uarch::InvocationCost &cost, std::string_view as = {})
        : cpu(cost), owner(as)
    {}

    /** CPU slice @p pre, then GPU @p job, then CPU slice @p after. */
    Work(const uarch::InvocationCost &pre, hw::GpuJob job,
         const uarch::InvocationCost &after)
        : cpu(pre), gpu(std::move(job)), post(after)
    {}

    uarch::InvocationCost cpu; ///< before the GPU job, if any
    std::optional<hw::GpuJob> gpu;
    uarch::InvocationCost post; ///< after the GPU job
    std::string_view owner;     ///< of every task and the job
};

/**
 * Common machinery for stack nodes. Every invocation takes the same
 * two calls (DESIGN.md §5): measure() runs the real kernel under the
 * node's µarch probes, and dispatch() runs its cost on the machine
 * and publishes when the work retires.
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
    /**
     * The bracket: run @p kernel, which takes the profiler to pass
     * into its algorithms, as one invocation on this node's µarch
     * state, and return its value with the invocation's cost.
     */
    template <class Kernel>
    auto
    measure(Kernel &&kernel)
        -> Measured<std::invoke_result_t<Kernel &, uarch::KernelProfiler>>
    {
        arch_.beginInvocation();
        auto value = kernel(uarch::KernelProfiler(&arch_));
        return {std::move(value), arch_.endInvocation()};
    }

    /**
     * The dispatch: run @p work on the machine, each CPU task with
     * its own cost jitter (the pre slice's drawn first), then call
     * @p publish and @p done when the last of it retires.
     */
    template <class Publish>
    void
    dispatch(Work work, Publish publish, std::function<void()> done)
    {
        execute(std::move(work),
                [publish = std::move(publish), done = std::move(done)] {
                    publish();
                    done();
                });
    }

    /** Derive an output header continuing @p input's lineage. */
    ros::Header
    deriveHeader(const ros::Header &input) const
    {
        ros::Header h;
        h.stamp = graph_.eventQueue().now();
        h.origins = input.origins;
        return h;
    }

    /** One residual-jitter factor (see kCostJitterCv). */
    double
    costJitter()
    {
        return jitterRng_.logNormalMeanCv(1.0, kCostJitterCv);
    }

  private:
    void execute(Work work, std::function<void()> retire);
    hw::CpuTask makeCpuTask(const uarch::InvocationCost &cost,
                            std::string_view owner);

    uarch::NodeArchState arch_;
    util::Rng jitterRng_;
};

} // namespace av::perception

#endif // AVSCOPE_PERCEPTION_NODE_BASE_HH
