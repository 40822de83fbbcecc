/**
 * @file
 * The complete platform: event queue + CPU + GPU + power model.
 *
 * Equivalent of the paper's Table II hardware configuration, as one
 * object the middleware and the profiling layer share.
 */

#ifndef AVSCOPE_HW_MACHINE_HH
#define AVSCOPE_HW_MACHINE_HH

#include <memory>

#include "hw/cpu.hh"
#include "hw/gpu.hh"
#include "hw/power.hh"
#include "sim/event_queue.hh"
#include "util/hash.hh"

namespace av::hw {

/** Full platform configuration. */
struct MachineConfig
{
    CpuConfig cpu;
    GpuConfig gpu;
    PowerConfig power;
};

void
fields(auto &&ar, util::MaybeConst<MachineConfig> auto &c)
{
    auto &[cpu, gpu, power] = c;
    ar(cpu, gpu, power);
}

/**
 * One workstation.
 */
class Machine
{
  public:
    Machine(sim::EventQueue &eq,
            const MachineConfig &config = MachineConfig());

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    sim::EventQueue &eventQueue() { return eq_; }
    sim::Tick now() const { return eq_.now(); }

    CpuModel &cpu() { return *cpu_; }
    const CpuModel &cpu() const { return *cpu_; }
    GpuModel &gpu() { return *gpu_; }
    const GpuModel &gpu() const { return *gpu_; }
    const PowerModel &power() const { return power_; }
    const MachineConfig &config() const { return config_; }

    /** Attach @p recorder to both execution engines (CPU + GPU). */
    void
    setTraceRecorder(trace::Recorder *recorder)
    {
        cpu_->setTraceRecorder(recorder);
        gpu_->setTraceRecorder(recorder);
    }

  private:
    sim::EventQueue &eq_;
    MachineConfig config_;
    std::unique_ptr<CpuModel> cpu_;
    std::unique_ptr<GpuModel> gpu_;
    PowerModel power_;
};

/**
 * One stage of a node's execution (CPU slice or GPU offload).
 * Completion callbacks inside are ignored; the chain's is used.
 */
struct Phase
{
    enum class Kind { Cpu, Gpu };
    Kind kind = Kind::Cpu;
    CpuTask cpu;
    GpuJob gpu;

    static Phase
    makeCpu(CpuTask task)
    {
        Phase p;
        p.kind = Kind::Cpu;
        p.cpu = std::move(task);
        return p;
    }

    static Phase
    makeGpu(GpuJob job)
    {
        Phase p;
        p.kind = Kind::Gpu;
        p.gpu = std::move(job);
        return p;
    }
};

/**
 * Execute @p phases strictly in order on @p machine, then call
 * @p done. This is how nodes with mixed CPU/GPU structure (SSD's
 * preprocess -> inference -> NMS sort) are expressed.
 */
void runPhases(Machine &machine, std::vector<Phase> phases,
               std::function<void()> done);

} // namespace av::hw

#endif // AVSCOPE_HW_MACHINE_HH
