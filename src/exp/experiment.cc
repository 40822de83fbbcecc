#include "exp/experiment.hh"

#include <bit>
#include <cstdint>

#include "stack/config.hh"

namespace av::exp {

namespace {

/**
 * Streaming 64-bit FNV-1a over a canonical field encoding. Every
 * value is folded as its exact bit pattern (doubles via bit_cast, so
 * -0.0 vs 0.0 and every NaN payload are distinct — bit-identical in,
 * bit-identical out), and each struct boundary is salted with a tag
 * string so field sequences from adjacent structs cannot alias.
 */
class Hasher
{
  public:
    void bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= p[i];
            hash_ *= 1099511628211ULL;
        }
    }

    void tag(const char *text)
    {
        for (const char *p = text; *p != '\0'; ++p)
            bytes(p, 1);
        const unsigned char sep = 0xff; // never appears in a tag
        bytes(&sep, 1);
    }

    void u64(std::uint64_t value) { bytes(&value, sizeof(value)); }
    void f64(double value)
    {
        u64(std::bit_cast<std::uint64_t>(value));
    }
    void boolean(bool value) { u64(value ? 1u : 0u); }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ULL;
};

void
fold(Hasher &h, const world::ScenarioConfig &c)
{
    h.tag("scenario");
    h.u64(c.seed);
    h.f64(c.blockLength);
    h.f64(c.blockWidth);
    h.f64(c.egoSpeed);
    h.u64(c.nVehicles);
    h.f64(c.vehicleLaneOffset);
    h.u64(c.nParked);
    h.u64(c.nPedestrians);
    h.u64(c.nBuildings);
}

void
fold(Hasher &h, const world::RecorderConfig &c)
{
    h.tag("recorder");
    h.u64(c.cameraPeriod);
    h.u64(c.cameraPhase);
}

void
fold(Hasher &h, const stack::StackOptions &c)
{
    h.tag("stack");
    h.u64(static_cast<std::uint64_t>(c.detector));
    h.boolean(c.enableVision);
    h.boolean(c.enableLocalization);
    h.boolean(c.enableLidarDetection);
    h.boolean(c.enableTracking);
    h.boolean(c.enableCostmap);
    h.boolean(c.degraded);
}

void
fold(Hasher &h, const fault::FaultPlan &plan)
{
    h.tag("faults");
    h.u64(plan.seed);
    h.u64(plan.faults.size());
    for (const fault::FaultSpec &spec : plan.faults) {
        h.tag("fault");
        h.u64(static_cast<std::uint64_t>(spec.kind));
        h.u64(spec.start);
        h.u64(spec.duration);
        h.tag(spec.target.c_str());
        h.f64(spec.probability);
        h.f64(spec.factor);
        h.u64(spec.extraDelay);
        h.u64(spec.respawnDelay);
        h.tag(spec.watchTopic.c_str());
    }
}

void
fold(Hasher &h, const stack::SafetyOptions &c)
{
    h.tag("safety");
    h.boolean(c.enabled);
    h.u64(c.trackLossSamples);
    h.f64(c.maxLocalizationError);
    h.f64(c.deadlineMs);
    h.u64(c.deadlineMissStreak);
    h.u64(c.livenessAfter);
}

void
fold(Hasher &h, const hw::MachineConfig &c)
{
    h.tag("cpu");
    h.u64(c.cpu.cores);
    h.f64(c.cpu.freqGhz);
    h.u64(c.cpu.quantum);
    h.f64(c.cpu.memBandwidthGBs);
    h.f64(c.cpu.memPenaltyCyclesPerByte);
    h.f64(c.cpu.maxMemSlowdown);
    h.tag("gpu");
    h.f64(c.gpu.tflops);
    h.f64(c.gpu.memBandwidthGBs);
    h.f64(c.gpu.pcieGBs);
    h.u64(c.gpu.kernelOverhead);
    h.u64(c.gpu.copyOverhead);
    h.f64(c.gpu.computeEfficiency);
    h.tag("power");
    h.f64(c.power.cpuIdleW);
    h.f64(c.power.cpuPerCoreW);
    h.f64(c.power.cpuMemWPerGBs);
    h.f64(c.power.gpuIdleW);
    h.f64(c.power.gpuMaxDynamicW);
    h.f64(c.power.gpuCopyW);
}

void
fold(Hasher &h, const ros::TransportConfig &c)
{
    h.tag("transport");
    h.f64(c.bandwidthGBs);
}

void
fold(Hasher &h, const perception::NodeConfig &c)
{
    h.tag("node");
    h.f64(c.workScale);
    h.u64(c.tracePeriod);
    h.u64(c.cache.sizeBytes);
    h.u64(c.cache.assoc);
    h.u64(c.cache.lineBytes);
    h.u64(c.branch.tableBits);
    h.u64(c.branch.historyBits);
    h.f64(c.pipeline.peakIpc);
    h.f64(c.pipeline.memIssueCost);
    h.f64(c.pipeline.readMissPenalty);
    h.f64(c.pipeline.writeMissPenalty);
    h.f64(c.pipeline.flushPenalty);
    h.f64(c.pipeline.divExtraLatency);
    h.f64(c.pipeline.simdBonus);
    h.f64(c.pipeline.l2MissFactor);
}

void
fold(Hasher &h, const stack::NodeCalibration &c)
{
    h.tag("calibration");
    fold(h, c.voxelGridFilter);
    fold(h, c.ndtMatching);
    fold(h, c.rayGroundFilter);
    fold(h, c.euclideanCluster);
    fold(h, c.visionDetector);
    fold(h, c.rangeVisionFusion);
    fold(h, c.immUkfPda);
    fold(h, c.trackRelay);
    fold(h, c.naiveMotionPredict);
    fold(h, c.costmapGenerator);
}

void
foldDrive(Hasher &h, const ExperimentSpec &spec)
{
    fold(h, spec.scenario);
    fold(h, spec.recorder);
    h.tag("duration");
    h.u64(spec.driveDuration);
}

std::string
hex16(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

} // namespace

std::string
cacheKey(const ExperimentSpec &spec)
{
    Hasher h;
    // Format version: bump whenever the key encoding, the RunConfig
    // field set or the result file format changes, so stale cache
    // entries miss instead of misloading. v5: safety-invariant
    // thresholds, violations section in the result file,
    // content-derived fault Rng salts. v6: the transport mode is
    // gone from the key and from the result file. v7: the watchdog's
    // period and stale threshold are constants, gone from the key.
    // v8: so are the probe grain, the drain grace and the safety
    // monitor's sample period. v9: so are the degradation thresholds
    // and the safety monitor's track range and gate; degradation is
    // one flag. v10: the node calibration is no longer a RunConfig
    // field; the key folds stack::defaultCalibration() itself, so
    // recalibrating stack/config.cc still invalidates every key. The
    // cost jitter, the CPU-only clustering switch, the transport's
    // base latency and the LiDAR, GNSS and IMU periods are constants,
    // gone from the key.
    h.tag("avscope-exp-v10");
    foldDrive(h, spec);
    fold(h, spec.config.stack);
    fold(h, spec.config.machine);
    fold(h, spec.config.transport);
    fold(h, stack::defaultCalibration());
    fold(h, spec.config.faults);
    fold(h, spec.config.safety);
    h.tag("trace");
    h.boolean(spec.config.trace);
    h.tag("queuedepths");
    h.u64(spec.config.queueDepths.size());
    for (const ros::QueueDepthOverride &o : spec.config.queueDepths) {
        h.tag(o.topic.c_str());
        h.tag(o.node.c_str());
        h.u64(o.depth);
    }
    return hex16(h.value());
}

std::string
driveKey(const ExperimentSpec &spec)
{
    Hasher h;
    h.tag("avscope-drive-v1");
    foldDrive(h, spec);
    return hex16(h.value());
}

} // namespace av::exp
