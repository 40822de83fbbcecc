/**
 * @file
 * Unit tests for the DNN specs and cost model: layer math, published
 * FLOP/parameter counts, kernel generation, pre/post-processing
 * profiles.
 */

#include <gtest/gtest.h>

#include "dnn/cost.hh"
#include "dnn/network.hh"
#include "uarch/profiler.hh"
#include "util/random.hh"

namespace {

using namespace av::dnn;

TEST(Layer, ConvFlopsAndBytes)
{
    LayerSpec l;
    l.kind = LayerKind::Conv;
    l.inC = 3;
    l.inH = l.inW = 300;
    l.outC = 64;
    l.outH = l.outW = 300;
    l.kernel = 3;
    // 2 * 64*300*300 * 3*3*3 = 311.04e6
    EXPECT_NEAR(l.flops(), 311.04e6, 1e3);
    EXPECT_NEAR(l.weightBytes(), 4.0 * (64 * 3 * 9 + 64), 1.0);
    EXPECT_NEAR(l.outputBytes(), 4.0 * 64 * 300 * 300, 1.0);
}

TEST(Network, Ssd300MatchesPublishedScale)
{
    const NetworkSpec net = buildSsd300();
    EXPECT_EQ(net.numCandidateBoxes, 8732u); // the canonical count
    // ~31 GMACs = ~62 GFLOPs for SSD300-VGG16.
    EXPECT_GT(net.totalFlops(), 55e9);
    EXPECT_LT(net.totalFlops(), 75e9);
    // VGG-16 backbone dominates parameters: ~24-35M params.
    EXPECT_GT(net.totalWeightBytes(), 80e6);
    EXPECT_LT(net.totalWeightBytes(), 180e6);
}

TEST(Network, Ssd512MatchesPublishedScale)
{
    const NetworkSpec net = buildSsd512();
    EXPECT_EQ(net.numCandidateBoxes, 24564u);
    // ~90 GMACs = ~180 GFLOPs.
    EXPECT_GT(net.totalFlops(), 150e9);
    EXPECT_LT(net.totalFlops(), 220e9);
}

TEST(Network, Yolov3MatchesPublishedScale)
{
    const NetworkSpec net = buildYolov3_416();
    EXPECT_EQ(net.numCandidateBoxes, 10647u);
    // darknet reports 65.9 BFLOPs for YOLOv3-416.
    EXPECT_GT(net.totalFlops(), 58e9);
    EXPECT_LT(net.totalFlops(), 75e9);
    // Darknet-53 + heads: ~62M params ~ 248 MB fp32.
    EXPECT_GT(net.totalWeightBytes(), 200e6);
    EXPECT_LT(net.totalWeightBytes(), 300e6);
}

TEST(Network, OrderingBySize)
{
    // The cost ordering the paper's Fig. 5 rests on.
    EXPECT_GT(buildSsd512().totalFlops(), buildSsd300().totalFlops());
    EXPECT_GT(buildSsd512().totalFlops(),
              buildYolov3_416().totalFlops());
}

TEST(Cost, KernelsCoverEveryLayer)
{
    const NetworkSpec net = buildSsd300();
    const auto kernels = networkKernels(net, GpuCostParams{0.5, 1.0});
    EXPECT_EQ(kernels.size(), net.layers.size());
    double flops = 0.0;
    for (const auto &k : kernels)
        flops += k.flops;
    // Efficiency 0.5 doubles the effective FLOPs.
    EXPECT_NEAR(flops, 2.0 * net.totalFlops(), 1e6);
}

TEST(Cost, TransferSizes)
{
    const NetworkSpec ssd = buildSsd512();
    EXPECT_NEAR(networkH2dBytes(ssd), 3.0 * 512 * 512 * 4, 1.0);
    EXPECT_NEAR(networkD2hBytes(ssd), 4.0 * 24564 * 25, 1.0);
}

TEST(Cost, PostprocessSsdHeavierThanYolo)
{
    av::util::Rng rng(1);
    const auto ssd = postprocessFrame(buildSsd512(), rng,
                                      av::uarch::KernelProfiler());
    const auto yolo = postprocessFrame(buildYolov3_416(), rng,
                                       av::uarch::KernelProfiler());
    // The per-class full sort makes SSD512's host postprocess more
    // than an order of magnitude heavier (paper: SSD >50% CPU, YOLO
    // >90% GPU).
    EXPECT_GT(ssd.total(), 10 * yolo.total());
    EXPECT_GT(ssd.total(), 50e6); // tens of ms at ~GHz rates
    EXPECT_LT(yolo.total(), 20e6);
}

TEST(Cost, PostprocessBranchMixSupportsMisprediction)
{
    av::util::Rng rng(2);
    const auto ops = postprocessFrame(buildSsd512(), rng,
                                      av::uarch::KernelProfiler());
    // Sort-dominated: meaningful branch fraction, high mem fraction.
    EXPECT_GT(static_cast<double>(ops.branches),
              0.10 * static_cast<double>(ops.total()));
    EXPECT_GT(ops.memFraction(), 0.30);
}

TEST(Cost, PostprocessTracingFeedsPredictor)
{
    av::uarch::NodeArchState state(
        av::uarch::CacheConfig(), av::uarch::BranchConfig(),
        av::uarch::PipelineConfig(), /*trace_period=*/1);
    av::util::Rng rng(3);
    av::uarch::InvocationCost cost;
    for (int frame = 0; frame < 10; ++frame) {
        state.beginInvocation();
        postprocessFrame(buildSsd512(), rng,
                         av::uarch::KernelProfiler(&state));
        cost = state.endInvocation();
    }
    // Real sort comparisons produce a markedly nonzero mispredict
    // rate on the data-dependent branch sites: the SSD sort story
    // of the paper's Table VII (9.78% overall for SSD512).
    EXPECT_GT(state.branchStats().total(), 1000u);
    EXPECT_GT(cost.branchMissRate, 0.04);
    EXPECT_LT(cost.branchMissRate, 0.20);
    EXPECT_GT(cost.cycles, 0.0);
}

TEST(Cost, PreprocessScalesWithNetworkInput)
{
    const auto big = preprocessFrame(buildSsd512(), 1280, 720,
                                     av::uarch::KernelProfiler());
    const auto small = preprocessFrame(buildYolov3_416(), 1280, 720,
                                       av::uarch::KernelProfiler());
    EXPECT_GT(big.total(), small.total());
    EXPECT_GT(big.memFraction(), 0.2);
}

TEST(Cost, DeterministicAcrossCalls)
{
    av::util::Rng r1(5), r2(5);
    const auto a = postprocessFrame(buildSsd300(), r1,
                                    av::uarch::KernelProfiler());
    const auto b = postprocessFrame(buildSsd300(), r2,
                                    av::uarch::KernelProfiler());
    EXPECT_EQ(a.total(), b.total());
}

/** Sanity sweep over every network: invariants hold. */
class NetworkInvariantTest
    : public ::testing::TestWithParam<const char *>
{
  protected:
    NetworkSpec
    build() const
    {
        const std::string which = GetParam();
        if (which == "ssd300")
            return buildSsd300();
        if (which == "ssd512")
            return buildSsd512();
        return buildYolov3_416();
    }
};

TEST_P(NetworkInvariantTest, ShapesChain)
{
    const NetworkSpec net = build();
    std::size_t convs = 0;
    double activation_bytes = 0.0;
    for (const LayerSpec &l : net.layers) {
        EXPECT_GT(l.outC, 0u) << l.name;
        EXPECT_GT(l.outH, 0u) << l.name;
        EXPECT_GE(l.flops(), 0.0) << l.name;
        convs += l.kind == LayerKind::Conv;
        activation_bytes += l.outputBytes();
    }
    EXPECT_GT(convs, 20u);
    EXPECT_GT(activation_bytes, net.inputBytes());
}

INSTANTIATE_TEST_SUITE_P(Networks, NetworkInvariantTest,
                         ::testing::Values("ssd300", "ssd512",
                                           "yolov3"));

} // namespace
