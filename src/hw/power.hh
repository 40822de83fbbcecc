/**
 * @file
 * Platform power model.
 *
 * Converts utilization integrals from the CPU and GPU models into
 * watts, standing in for the paper's wall-power and nvidia-smi
 * measurements (Table VI). Parameters are calibrated to a 2019-class
 * workstation: the CPU baseline includes the idling OS + ROS stack
 * (the paper notes the whole OS runs on the CPU, §IV-B), and GPU
 * dynamic power scales with *occupancy-weighted* active time, which
 * is how a small-batch SSD300 can hold the GPU at a far lower power
 * than SSD512/YOLO despite a similar activity pattern.
 */

#ifndef AVSCOPE_HW_POWER_HH
#define AVSCOPE_HW_POWER_HH

#include "util/hash.hh"

namespace av::hw {

/** Power-model coefficients. */
struct PowerConfig
{
    double cpuIdleW = 35.5;      ///< package + OS/ROS background
    double cpuPerCoreW = 6.0;    ///< per fully-busy core
    double cpuMemWPerGBs = 0.10; ///< DRAM traffic adder
    double gpuIdleW = 55.0;      ///< board idle
    double gpuMaxDynamicW = 195.0; ///< at weighted-active fraction 1
    double gpuCopyW = 8.0;       ///< PCIe copy engine active
};

void
fields(auto &&ar, util::MaybeConst<PowerConfig> auto &c)
{
    auto &[cpuIdleW, cpuPerCoreW, cpuMemWPerGBs, gpuIdleW,
           gpuMaxDynamicW, gpuCopyW] = c;
    ar(cpuIdleW, cpuPerCoreW, cpuMemWPerGBs, gpuIdleW, gpuMaxDynamicW,
       gpuCopyW);
}

/**
 * Stateless converter from utilization fractions to watts.
 */
class PowerModel
{
  public:
    explicit PowerModel(const PowerConfig &config = PowerConfig())
        : config_(config)
    {}

    /**
     * Average CPU power over a window.
     * @param avg_busy_cores mean number of busy cores in the window
     * @param dram_gbs       mean DRAM traffic in GB/s
     */
    double cpuPower(double avg_busy_cores, double dram_gbs) const;

    /**
     * Average GPU power over a window.
     * @param weighted_active occupancy-weighted active fraction [0,~]
     * @param copy_fraction   copy-engine active fraction [0,1]
     */
    double gpuPower(double weighted_active, double copy_fraction) const;

    const PowerConfig &config() const { return config_; }

  private:
    PowerConfig config_;
};

} // namespace av::hw

#endif // AVSCOPE_HW_POWER_HH
