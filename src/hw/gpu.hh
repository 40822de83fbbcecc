/**
 * @file
 * Discrete GPU model: a compute engine executing kernels FIFO and a
 * copy engine for PCIe transfers.
 *
 * Vision detection (SSD/YOLO) and GPU Euclidean clustering share this
 * device. Because the compute queue is kernel-granular and
 * non-preemptive, a node's kernels wait behind whatever other nodes
 * enqueued — exactly the cross-node interference the paper measures
 * (e.g. euclidean_cluster's GPU residency shrinking when the lighter
 * SSD300 replaces SSD512, §IV-B).
 */

#ifndef AVSCOPE_HW_GPU_HH
#define AVSCOPE_HW_GPU_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <map>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "trace/trace.hh"
#include "util/hash.hh"

namespace av::hw {

/** One GPU kernel launch. */
struct GpuKernel
{
    double flops = 0.0;       ///< floating-point work
    double bytes = 0.0;       ///< device-memory traffic
    double powerWeight = 1.0; ///< occupancy/intensity for the power model
};

/** A full offload: H2D copy, kernels, D2H copy, completion. */
struct GpuJob
{
    std::string owner;
    double h2dBytes = 0.0;
    std::vector<GpuKernel> kernels;
    double d2hBytes = 0.0;
    std::function<void()> onComplete;
};

/** GPU capability parameters (2019 discrete-card class). */
struct GpuConfig
{
    double tflops = 11.0;        ///< peak fp32
    double memBandwidthGBs = 480.0;
    double pcieGBs = 12.0;       ///< effective host link
    sim::Tick kernelOverhead = 8 * sim::oneUs; ///< launch latency
    sim::Tick copyOverhead = 10 * sim::oneUs;  ///< per-transfer setup
    /**
     * Global derating of peak throughput. Duration =
     * flops / (tflops * efficiency). Per-framework efficiency (cuDNN
     * vs darknet) is folded into the kernels by dnn::networkKernels,
     * so this stays 1.0 unless an ablation sweeps it.
     */
    double computeEfficiency = 1.0;
};

void
fields(auto &&ar, util::MaybeConst<GpuConfig> auto &c)
{
    auto &[tflops, memBandwidthGBs, pcieGBs, kernelOverhead,
           copyOverhead, computeEfficiency] = c;
    ar(tflops, memBandwidthGBs, pcieGBs, kernelOverhead, copyOverhead,
       computeEfficiency);
}

/** Aggregate counters for the profiling layer. */
struct GpuAccounting
{
    double kernelActiveSeconds = 0.0;   ///< compute engine busy time
    double weightedActiveSeconds = 0.0; ///< Σ busy * powerWeight
    double copyActiveSeconds = 0.0;
    double pcieBytes = 0.0;
    std::uint64_t kernelsExecuted = 0;
    std::uint64_t jobsCompleted = 0;
    std::map<std::string, double> activeSecondsByOwner;
    /** Busy *or queued* time per owner — what nvidia-smi pmon style
     *  residency sampling attributes to a process. */
    std::map<std::string, double> residentSecondsByOwner;
};

/**
 * The device.
 */
class GpuModel
{
  public:
    GpuModel(sim::EventQueue &eq, const GpuConfig &config);

    GpuModel(const GpuModel &) = delete;
    GpuModel &operator=(const GpuModel &) = delete;

    /** Enqueue a job; stages run in order, FIFO against other jobs. */
    void submit(GpuJob job);

    /** Duration the compute engine needs for @p kernel. */
    sim::Tick kernelDuration(const GpuKernel &kernel) const;

    /** Duration of a host<->device transfer of @p bytes. */
    sim::Tick copyDuration(double bytes) const;

    /**
     * Thermal-throttle factor in (0, 1]: compute and memory rates
     * scale by it. Applies to kernels *starting* while it is set —
     * a kernel in flight finishes at the rate it started with, like
     * a real DVFS transition quantized to kernel boundaries.
     */
    void setThrottleFactor(double factor);
    double throttleFactor() const { return throttle_; }

    const GpuConfig &config() const { return config_; }
    const GpuAccounting &accounting() const { return acct_; }

    /** Report every executed kernel (start → end) to @p recorder. */
    void setTraceRecorder(trace::Recorder *recorder)
    {
        recorder_ = recorder;
    }

  private:
    struct JobState
    {
        GpuJob job;
        std::size_t nextKernel = 0;
        sim::Tick enqueued = 0;
    };

    sim::EventQueue &eq_;
    GpuConfig config_;
    GpuAccounting acct_;
    trace::Recorder *recorder_ = nullptr;
    bool computeBusy_ = false;
    bool copyBusy_ = false;
    double throttle_ = 1.0;

    /** Compute-queue entry: one kernel of one job. */
    struct ComputeEntry
    {
        std::shared_ptr<JobState> job;
        std::size_t kernelIndex;
    };
    /** Copy-queue entry. */
    struct CopyEntry
    {
        std::shared_ptr<JobState> job;
        double bytes;
        bool isH2d;
    };

    std::deque<ComputeEntry> computeQueue_;
    std::deque<CopyEntry> copyQueue_;

    void pumpCompute();
    void pumpCopy();
    void kernelDone(ComputeEntry entry, sim::Tick started);
    void copyDone(CopyEntry entry, sim::Tick started);
    void advanceJob(const std::shared_ptr<JobState> &job);
    void finishJob(const std::shared_ptr<JobState> &job);
};

} // namespace av::hw

#endif // AVSCOPE_HW_GPU_HH
