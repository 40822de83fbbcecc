/**
 * @file
 * Platform and calibration configuration.
 *
 * defaultMachine() is our analogue of the paper's Table II rig: a
 * 2019-class 4-core workstation with a high-end discrete GPU.
 * defaultCalibration() holds the per-node work scales and µarch
 * trace periods, and gpuParamsFor() the detector GPU efficiencies
 * and power weights; together they place the simulated node costs in
 * the paper's measured ranges. They are code constants, not run
 * knobs: every stack runs them. The derivation is documented in
 * EXPERIMENTS.md and exercised by bench/ablation_platform.
 */

#ifndef AVSCOPE_STACK_CONFIG_HH
#define AVSCOPE_STACK_CONFIG_HH

#include "dnn/cost.hh"
#include "hw/machine.hh"
#include "perception/node_base.hh"
#include "perception/vision_model.hh"
#include "util/hash.hh"

namespace av::stack {

/** The reference platform (paper Table II analogue). */
hw::MachineConfig defaultMachine();

/** Calibrated per-node execution parameters. */
struct NodeCalibration
{
    perception::NodeConfig voxelGridFilter;
    perception::NodeConfig ndtMatching;
    perception::NodeConfig rayGroundFilter;
    perception::NodeConfig euclideanCluster;
    perception::NodeConfig visionDetector;
    perception::NodeConfig rangeVisionFusion;
    perception::NodeConfig immUkfPda;
    perception::NodeConfig trackRelay;
    perception::NodeConfig naiveMotionPredict;
    perception::NodeConfig costmapGenerator;
};

void
fields(auto &&ar, util::MaybeConst<NodeCalibration> auto &c)
{
    auto &[voxelGridFilter, ndtMatching, rayGroundFilter,
           euclideanCluster, visionDetector, rangeVisionFusion,
           immUkfPda, trackRelay, naiveMotionPredict,
           costmapGenerator] = c;
    ar(voxelGridFilter, ndtMatching, rayGroundFilter, euclideanCluster,
       visionDetector, rangeVisionFusion, immUkfPda, trackRelay,
       naiveMotionPredict, costmapGenerator);
}

/** Calibrated defaults. */
NodeCalibration defaultCalibration();

/**
 * GPU cost parameters per detector: achieved efficiency (cuDNN for
 * SSD, darknet for YOLO) and the occupancy weight driving GPU power
 * (Table VI shapes).
 */
dnn::GpuCostParams gpuParamsFor(perception::DetectorKind kind);

} // namespace av::stack

#endif // AVSCOPE_STACK_CONFIG_HH
