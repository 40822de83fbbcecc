#include "dnn/network.hh"

#include <cmath>

#include "util/logging.hh"

namespace av::dnn {

double
LayerSpec::flops() const
{
    const double out_elems =
        static_cast<double>(outC) * outH * outW;
    switch (kind) {
      case LayerKind::Conv:
        // 2 FLOPs per MAC over the receptive field.
        return 2.0 * out_elems * inC * kernel * kernel;
      case LayerKind::FullyConnected:
        return 2.0 * static_cast<double>(outC) * inC;
      case LayerKind::MaxPool:
        return out_elems * kernel * kernel;
      case LayerKind::Upsample:
        return out_elems;
      case LayerKind::Shortcut:
        return out_elems;
      case LayerKind::Concat:
        return 0.0;
    }
    return 0.0;
}

double
LayerSpec::weightBytes() const
{
    switch (kind) {
      case LayerKind::Conv:
        return 4.0 * (static_cast<double>(outC) * inC * kernel *
                          kernel +
                      outC);
      case LayerKind::FullyConnected:
        return 4.0 * (static_cast<double>(outC) * inC + outC);
      default:
        return 0.0;
    }
}

double
LayerSpec::outputBytes() const
{
    return 4.0 * static_cast<double>(outC) * outH * outW;
}

double
LayerSpec::inputBytes() const
{
    return 4.0 * static_cast<double>(inC) * inH * inW;
}

double
NetworkSpec::totalFlops() const
{
    double acc = 0.0;
    for (const LayerSpec &l : layers)
        acc += l.flops();
    return acc;
}

double
NetworkSpec::totalWeightBytes() const
{
    double acc = 0.0;
    for (const LayerSpec &l : layers)
        acc += l.weightBytes();
    return acc;
}

namespace {

/** Incremental network builder tracking the live tensor shape. */
class Builder
{
  public:
    Builder(NetworkSpec &net, std::uint32_t c, std::uint32_t h,
            std::uint32_t w)
        : net_(net), c_(c), h_(h), w_(w)
    {}

    Builder &
    conv(const std::string &name, std::uint32_t out_c,
         std::uint32_t kernel, std::uint32_t stride = 1,
         bool same_pad = true)
    {
        LayerSpec l;
        l.name = name;
        l.kind = LayerKind::Conv;
        l.inC = c_;
        l.inH = h_;
        l.inW = w_;
        l.outC = out_c;
        if (same_pad) {
            l.outH = (h_ + stride - 1) / stride;
            l.outW = (w_ + stride - 1) / stride;
        } else {
            // valid padding
            AV_ASSERT(h_ >= kernel && w_ >= kernel,
                      "valid conv ", name, " kernel larger than input");
            l.outH = (h_ - kernel) / stride + 1;
            l.outW = (w_ - kernel) / stride + 1;
        }
        l.kernel = kernel;
        l.stride = stride;
        push(l);
        return *this;
    }

    Builder &
    pool(const std::string &name, std::uint32_t kernel,
         std::uint32_t stride)
    {
        LayerSpec l;
        l.name = name;
        l.kind = LayerKind::MaxPool;
        l.inC = c_;
        l.inH = h_;
        l.inW = w_;
        l.outC = c_;
        l.outH = (h_ + stride - 1) / stride;
        l.outW = (w_ + stride - 1) / stride;
        l.kernel = kernel;
        l.stride = stride;
        push(l);
        return *this;
    }

    Builder &
    upsample(const std::string &name)
    {
        LayerSpec l;
        l.name = name;
        l.kind = LayerKind::Upsample;
        l.inC = c_;
        l.inH = h_;
        l.inW = w_;
        l.outC = c_;
        l.outH = h_ * 2;
        l.outW = w_ * 2;
        push(l);
        return *this;
    }

    Builder &
    shortcut(const std::string &name)
    {
        LayerSpec l;
        l.name = name;
        l.kind = LayerKind::Shortcut;
        l.inC = c_;
        l.inH = h_;
        l.inW = w_;
        l.outC = c_;
        l.outH = h_;
        l.outW = w_;
        push(l);
        return *this;
    }

    /** Concatenate extra channels onto the live tensor (route). */
    Builder &
    concat(const std::string &name, std::uint32_t extra_c)
    {
        LayerSpec l;
        l.name = name;
        l.kind = LayerKind::Concat;
        l.inC = c_;
        l.inH = h_;
        l.inW = w_;
        l.outC = c_ + extra_c;
        l.outH = h_;
        l.outW = w_;
        push(l);
        return *this;
    }

    /**
     * Add a detached detection-head conv reading from an arbitrary
     * earlier feature map; the live shape is unaffected.
     */
    Builder &
    head(const std::string &name, std::uint32_t in_c,
         std::uint32_t hw, std::uint32_t out_c, std::uint32_t kernel)
    {
        LayerSpec l;
        l.name = name;
        l.kind = LayerKind::Conv;
        l.inC = in_c;
        l.inH = hw;
        l.inW = hw;
        l.outC = out_c;
        l.outH = hw;
        l.outW = hw;
        l.kernel = kernel;
        l.stride = 1;
        net_.layers.push_back(l);
        return *this;
    }

    /** Reset the live shape (jump to a saved route point). */
    Builder &
    at(std::uint32_t c, std::uint32_t h, std::uint32_t w)
    {
        c_ = c;
        h_ = h;
        w_ = w;
        return *this;
    }

    std::uint32_t channels() const { return c_; }
    std::uint32_t height() const { return h_; }

  private:
    void
    push(const LayerSpec &l)
    {
        net_.layers.push_back(l);
        c_ = l.outC;
        h_ = l.outH;
        w_ = l.outW;
    }

    NetworkSpec &net_;
    std::uint32_t c_, h_, w_;
};

/** VGG-16 base shared by both SSD variants (through fc7). */
void
vggBase(Builder &b)
{
    b.conv("conv1_1", 64, 3).conv("conv1_2", 64, 3)
        .pool("pool1", 2, 2)
        .conv("conv2_1", 128, 3).conv("conv2_2", 128, 3)
        .pool("pool2", 2, 2)
        .conv("conv3_1", 256, 3).conv("conv3_2", 256, 3)
        .conv("conv3_3", 256, 3)
        .pool("pool3", 2, 2)
        .conv("conv4_1", 512, 3).conv("conv4_2", 512, 3)
        .conv("conv4_3", 512, 3)
        .pool("pool4", 2, 2)
        .conv("conv5_1", 512, 3).conv("conv5_2", 512, 3)
        .conv("conv5_3", 512, 3)
        .pool("pool5", 3, 1)
        .conv("fc6", 1024, 3)   // dilated conv, same MAC count
        .conv("fc7", 1024, 1);
}

/** SSD multibox heads: (feature size, channels, boxes per cell). */
struct SsdSource
{
    std::uint32_t size;
    std::uint32_t channels;
    std::uint32_t boxes;
};

void
ssdHeads(Builder &b, const std::vector<SsdSource> &sources,
         std::uint32_t num_classes, NetworkSpec &net)
{
    std::uint32_t candidates = 0;
    for (const SsdSource &src : sources) {
        b.head("loc_" + std::to_string(src.size), src.channels,
               src.size, src.boxes * 4, 3);
        b.head("conf_" + std::to_string(src.size), src.channels,
               src.size, src.boxes * num_classes, 3);
        candidates += src.size * src.size * src.boxes;
    }
    net.numCandidateBoxes = candidates;
}

} // namespace

NetworkSpec
buildSsd300()
{
    NetworkSpec net;
    net.name = "SSD300";
    net.inputW = net.inputH = 300;
    net.numClasses = 21; // VOC + background, per the Autoware models
    Builder b(net, 3, 300, 300);
    vggBase(b); // ends at 19x19x1024 (300->150->75->38->19)
    b.conv("conv8_1", 256, 1).conv("conv8_2", 512, 3, 2)   // 10
        .conv("conv9_1", 128, 1).conv("conv9_2", 256, 3, 2) // 5
        .conv("conv10_1", 128, 1)
        .conv("conv10_2", 256, 3, 1, false)                 // 3
        .conv("conv11_1", 128, 1)
        .conv("conv11_2", 256, 3, 1, false);                // 1
    ssdHeads(b,
             {{38, 512, 4},
              {19, 1024, 6},
              {10, 512, 6},
              {5, 256, 6},
              {3, 256, 4},
              {1, 256, 4}},
             net.numClasses, net);
    AV_ASSERT(net.numCandidateBoxes == 8732,
              "SSD300 prior-box count drifted: ",
              net.numCandidateBoxes);
    return net;
}

NetworkSpec
buildSsd512()
{
    NetworkSpec net;
    net.name = "SSD512";
    net.inputW = net.inputH = 512;
    net.numClasses = 21;
    Builder b(net, 3, 512, 512);
    vggBase(b); // 512->256->128->64->32
    b.conv("conv8_1", 256, 1).conv("conv8_2", 512, 3, 2)    // 16
        .conv("conv9_1", 128, 1).conv("conv9_2", 256, 3, 2)  // 8
        .conv("conv10_1", 128, 1).conv("conv10_2", 256, 3, 2)// 4
        .conv("conv11_1", 128, 1).conv("conv11_2", 256, 3, 2)// 2
        .conv("conv12_1", 128, 1)
        .conv("conv12_2", 256, 3, 2);                        // 1
    ssdHeads(b,
             {{64, 512, 4},
              {32, 1024, 6},
              {16, 512, 6},
              {8, 256, 6},
              {4, 256, 6},
              {2, 256, 4},
              {1, 256, 4}},
             net.numClasses, net);
    AV_ASSERT(net.numCandidateBoxes == 24564,
              "SSD512 prior-box count drifted: ",
              net.numCandidateBoxes);
    return net;
}

namespace {

/** One Darknet-53 residual block: 1x1 squeeze + 3x3 expand + add. */
void
residual(Builder &b, const std::string &prefix,
         std::uint32_t channels)
{
    b.conv(prefix + "_1x1", channels / 2, 1)
        .conv(prefix + "_3x3", channels, 3)
        .shortcut(prefix + "_add");
}

} // namespace

NetworkSpec
buildYolov3_416()
{
    NetworkSpec net;
    net.name = "YOLOv3-416";
    net.inputW = net.inputH = 416;
    net.numClasses = 80; // COCO, per the Autoware YOLOv3 weights
    Builder b(net, 3, 416, 416);

    b.conv("conv0", 32, 3);
    b.conv("down1", 64, 3, 2); // 208
    residual(b, "res1_0", 64);
    b.conv("down2", 128, 3, 2); // 104
    for (int i = 0; i < 2; ++i)
        residual(b, "res2_" + std::to_string(i), 128);
    b.conv("down3", 256, 3, 2); // 52
    for (int i = 0; i < 8; ++i)
        residual(b, "res3_" + std::to_string(i), 256);
    // route point A: 52x52x256
    b.conv("down4", 512, 3, 2); // 26
    for (int i = 0; i < 8; ++i)
        residual(b, "res4_" + std::to_string(i), 512);
    // route point B: 26x26x512
    b.conv("down5", 1024, 3, 2); // 13
    for (int i = 0; i < 4; ++i)
        residual(b, "res5_" + std::to_string(i), 1024);

    const std::uint32_t det_c = 3 * (4 + 1 + net.numClasses); // 255

    // Head 1 at 13x13.
    b.conv("h1_conv0", 512, 1).conv("h1_conv1", 1024, 3)
        .conv("h1_conv2", 512, 1).conv("h1_conv3", 1024, 3)
        .conv("h1_conv4", 512, 1);
    b.conv("h1_conv5", 1024, 3).conv("h1_detect", det_c, 1);

    // Route back to h1_conv4 output (512 @ 13), squeeze + upsample,
    // concat with route point B.
    b.at(512, 13, 13);
    b.conv("h2_squeeze", 256, 1).upsample("h2_up"); // 26x26x256
    b.concat("h2_route", 512);                      // + 26x26x512
    b.conv("h2_conv0", 256, 1).conv("h2_conv1", 512, 3)
        .conv("h2_conv2", 256, 1).conv("h2_conv3", 512, 3)
        .conv("h2_conv4", 256, 1);
    b.conv("h2_conv5", 512, 3).conv("h2_detect", det_c, 1);

    // Route back to h2_conv4 (256 @ 26), squeeze + upsample, concat
    // with route point A.
    b.at(256, 26, 26);
    b.conv("h3_squeeze", 128, 1).upsample("h3_up"); // 52x52x128
    b.concat("h3_route", 256);                      // + 52x52x256
    b.conv("h3_conv0", 128, 1).conv("h3_conv1", 256, 3)
        .conv("h3_conv2", 128, 1).conv("h3_conv3", 256, 3)
        .conv("h3_conv4", 128, 1);
    b.conv("h3_conv5", 256, 3).conv("h3_detect", det_c, 1);

    net.numCandidateBoxes = 3 * (13 * 13 + 26 * 26 + 52 * 52);
    AV_ASSERT(net.numCandidateBoxes == 10647,
              "YOLOv3 candidate count drifted");
    return net;
}

} // namespace av::dnn
