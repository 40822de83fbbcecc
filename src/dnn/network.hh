/**
 * @file
 * DNN architecture descriptions for the vision detectors.
 *
 * The paper evaluates three image detectors: SSD512, SSD300 (VGG-16
 * backbone, Liu et al.) and YOLOv3-416 (Darknet-53 backbone). We
 * cannot run CUDA inference here, so the detectors' *cost structure*
 * is reproduced from layer-accurate specs: every conv/pool/fc layer
 * with its true dimensions, from which FLOPs, weight bytes and
 * activation traffic follow. The hw::GpuModel turns those into
 * kernel timings; the CPU pre/post-processing (including SSD's
 * output-layer sort that dominates its branch mispredictions, paper
 * §IV-C) is modelled in perception/vision_detector.
 */

#ifndef AVSCOPE_DNN_NETWORK_HH
#define AVSCOPE_DNN_NETWORK_HH

#include <cstdint>
#include <string>
#include <vector>

namespace av::dnn {

/** Layer kinds we account for. */
enum class LayerKind {
    Conv,     ///< 2-D convolution (+ bias + activation)
    MaxPool,
    FullyConnected,
    Upsample, ///< nearest-neighbour 2x (YOLOv3 FPN)
    Shortcut, ///< residual add
    Concat,   ///< route/concatenate
};

/** One layer with its true dimensions. */
struct LayerSpec
{
    std::string name;
    LayerKind kind = LayerKind::Conv;
    std::uint32_t inC = 0, inH = 0, inW = 0;
    std::uint32_t outC = 0, outH = 0, outW = 0;
    std::uint32_t kernel = 0; ///< square kernel size (conv/pool)
    std::uint32_t stride = 1;

    /** Multiply-accumulates counted as 2 FLOPs each. */
    double flops() const;

    /** Parameter bytes (fp32). */
    double weightBytes() const;

    /** Output activation bytes (fp32). */
    double outputBytes() const;

    /** Input activation bytes (fp32). */
    double inputBytes() const;
};

/** A whole network. */
struct NetworkSpec
{
    std::string name;
    std::uint32_t inputW = 0;
    std::uint32_t inputH = 0;
    std::uint32_t numClasses = 0;
    /** Raw candidate boxes the head emits before NMS. */
    std::uint32_t numCandidateBoxes = 0;
    std::vector<LayerSpec> layers;

    double totalFlops() const;
    double totalWeightBytes() const;

    /** Input tensor bytes (fp32 CHW). */
    double inputBytes() const
    {
        return 3.0 * inputW * inputH * 4.0;
    }
};

/** SSD with the 300x300 VGG-16 configuration. */
NetworkSpec buildSsd300();

/** SSD with the 512x512 VGG-16 configuration. */
NetworkSpec buildSsd512();

/** YOLOv3 at 416x416 (Darknet-53 + FPN heads). */
NetworkSpec buildYolov3_416();

} // namespace av::dnn

#endif // AVSCOPE_DNN_NETWORK_HH
