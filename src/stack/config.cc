#include "stack/config.hh"

namespace av::stack {

hw::MachineConfig
defaultMachine()
{
    hw::MachineConfig cfg;
    cfg.cpu.cores = 4;
    cfg.cpu.freqGhz = 3.7;
    cfg.cpu.quantum = 2 * sim::oneMs;
    cfg.cpu.memBandwidthGBs = 20.0;
    cfg.cpu.memPenaltyCyclesPerByte = 18.0;

    cfg.gpu.tflops = 11.0;
    cfg.gpu.computeEfficiency = 1.0; // per-framework derate in dnn
    cfg.gpu.memBandwidthGBs = 480.0;
    cfg.gpu.pcieGBs = 12.0;

    cfg.power = hw::PowerConfig{};
    return cfg;
}

NodeCalibration
defaultCalibration()
{
    // workScale = (sensor-density scale: the simulated LiDAR runs at
    // ~8.5k points/scan versus the ~110k of the paper's unit) x
    // (implementation expansion: PCL/OpenCV instruction overhead per
    // abstract op). Values chosen to land the Fig. 5 means;
    // see EXPERIMENTS.md.
    NodeCalibration cal;
    cal.voxelGridFilter.workScale = 22.0;
    cal.ndtMatching.workScale = 28.0;
    cal.rayGroundFilter.workScale = 27.0;
    cal.euclideanCluster.workScale = 8.0;
    cal.visionDetector.workScale = 1.0; // dnn costs are absolute
    cal.rangeVisionFusion.workScale = 5000.0;
    cal.immUkfPda.workScale = 280.0;
    cal.trackRelay.workScale = 150.0;
    cal.naiveMotionPredict.workScale = 1800.0;
    cal.costmapGenerator.workScale = 22.0;

    // µarch trace sampling: heavyweight point-cloud nodes sample
    // every third invocation (their EWMA miss rates are stable);
    // the vision node runs two sub-invocations per frame and must
    // trace every one.
    cal.voxelGridFilter.tracePeriod = 2;
    cal.ndtMatching.tracePeriod = 3;
    cal.rayGroundFilter.tracePeriod = 3;
    cal.euclideanCluster.tracePeriod = 3;
    cal.visionDetector.tracePeriod = 1;
    cal.immUkfPda.tracePeriod = 2;
    cal.naiveMotionPredict.tracePeriod = 2;
    cal.costmapGenerator.tracePeriod = 2;
    return cal;
}

dnn::GpuCostParams
gpuParamsFor(perception::DetectorKind kind)
{
    dnn::GpuCostParams params;
    switch (kind) {
      case perception::DetectorKind::Ssd512:
        // cuDNN VGG kernels sustain near half of peak; heavyweight
        // kernels keep occupancy (and board power) high.
        params.efficiency = 0.66;
        params.powerWeight = 1.10;
        break;
      case perception::DetectorKind::Ssd300:
        params.efficiency = 0.40;
        params.powerWeight = 0.33;
        break;
      case perception::DetectorKind::Yolov3:
        // darknet's hand-rolled kernels reach ~0.2 of peak but run
        // at high occupancy.
        params.efficiency = 0.21;
        params.powerWeight = 0.74;
        break;
    }
    return params;
}

} // namespace av::stack
