#include "hw/gpu.hh"

#include <cmath>

#include "util/logging.hh"

namespace av::hw {

GpuModel::GpuModel(sim::EventQueue &eq, const GpuConfig &config)
    : eq_(eq), config_(config)
{
    AV_ASSERT(config_.tflops > 0.0, "GPU throughput must be positive");
    AV_ASSERT(config_.pcieGBs > 0.0, "PCIe bandwidth must be positive");
}

void
GpuModel::setThrottleFactor(double factor)
{
    AV_ASSERT(factor > 0.0 && factor <= 1.0,
              "throttle factor must be in (0, 1]");
    throttle_ = factor;
}

sim::Tick
GpuModel::kernelDuration(const GpuKernel &kernel) const
{
    // Roofline: bounded by compute or by device memory bandwidth.
    // A thermal throttle scales both rails, like a core+memory
    // clock-down on a real card.
    const double flops_per_ns =
        config_.tflops * 1e3 * config_.computeEfficiency * throttle_;
    const double bytes_per_ns = config_.memBandwidthGBs * throttle_;
    const double compute_ns = kernel.flops / flops_per_ns;
    const double memory_ns = kernel.bytes / bytes_per_ns;
    const double ns = std::max(compute_ns, memory_ns);
    return config_.kernelOverhead +
           static_cast<sim::Tick>(std::ceil(ns));
}

sim::Tick
GpuModel::copyDuration(double bytes) const
{
    const double ns = bytes / config_.pcieGBs; // GB/s == bytes/ns
    return config_.copyOverhead +
           static_cast<sim::Tick>(std::ceil(ns));
}

void
GpuModel::submit(GpuJob job)
{
    AV_ASSERT(job.onComplete, "GPU job without completion callback");
    auto state =
        std::make_shared<JobState>(JobState{std::move(job), 0,
                                            eq_.now()});
    if (state->job.h2dBytes > 0.0) {
        copyQueue_.push_back(CopyEntry{state, state->job.h2dBytes,
                                       true});
        pumpCopy();
    } else {
        advanceJob(state);
    }
}

void
GpuModel::advanceJob(const std::shared_ptr<JobState> &job)
{
    if (job->nextKernel < job->job.kernels.size()) {
        computeQueue_.push_back(
            ComputeEntry{job, job->nextKernel});
        ++job->nextKernel;
        pumpCompute();
        return;
    }
    if (job->job.d2hBytes > 0.0) {
        const double bytes = job->job.d2hBytes;
        job->job.d2hBytes = 0.0; // consume so we do not loop
        copyQueue_.push_back(CopyEntry{job, bytes, false});
        pumpCopy();
        return;
    }
    finishJob(job);
}

void
GpuModel::finishJob(const std::shared_ptr<JobState> &job)
{
    const double resident_s =
        sim::ticksToSeconds(eq_.now() - job->enqueued);
    acct_.residentSecondsByOwner[job->job.owner] += resident_s;
    ++acct_.jobsCompleted;
    // The queue entries holding the last references die with the
    // completion lambda; moving the callback out keeps it alive.
    auto callback = std::move(job->job.onComplete);
    callback();
}

void
GpuModel::pumpCompute()
{
    if (computeBusy_ || computeQueue_.empty())
        return;
    const ComputeEntry entry = computeQueue_.front();
    computeQueue_.pop_front();
    computeBusy_ = true;
    const sim::Tick started = eq_.now();
    const sim::Tick dur =
        kernelDuration(entry.job->job.kernels[entry.kernelIndex]);
    eq_.scheduleAfter(dur, [this, entry, started] {
        kernelDone(entry, started);
    });
}

void
GpuModel::kernelDone(ComputeEntry entry, sim::Tick started)
{
    const double active_s = sim::ticksToSeconds(eq_.now() - started);
    const GpuKernel &k = entry.job->job.kernels[entry.kernelIndex];
    acct_.kernelActiveSeconds += active_s;
    acct_.weightedActiveSeconds += active_s * k.powerWeight;
    acct_.activeSecondsByOwner[entry.job->job.owner] += active_s;
    ++acct_.kernelsExecuted;
    if (recorder_ && recorder_->enabled())
        recorder_->recordGpuKernel(
            recorder_->intern(entry.job->job.owner), started,
            eq_.now());
    computeBusy_ = false;
    const std::shared_ptr<JobState> job = entry.job;
    pumpCompute();
    advanceJob(job);
}

void
GpuModel::pumpCopy()
{
    if (copyBusy_ || copyQueue_.empty())
        return;
    const CopyEntry entry = copyQueue_.front();
    copyQueue_.pop_front();
    copyBusy_ = true;
    const sim::Tick started = eq_.now();
    eq_.scheduleAfter(copyDuration(entry.bytes),
                      [this, entry, started] {
                          copyDone(entry, started);
                      });
}

void
GpuModel::copyDone(CopyEntry entry, sim::Tick started)
{
    acct_.copyActiveSeconds += sim::ticksToSeconds(eq_.now() - started);
    acct_.pcieBytes += entry.bytes;
    copyBusy_ = false;
    const std::shared_ptr<JobState> job = entry.job;
    pumpCopy();
    if (entry.isH2d) {
        advanceJob(job);
    } else {
        finishJob(job);
    }
}

} // namespace av::hw
