#include "exp/experiment.hh"

#include <cstdint>
#include <vector>

#include "stack/config.hh"
#include "util/hash.hh"

namespace av::exp {

namespace {

/** The drive inputs: what driveKey() hashes and cacheKey() starts
 *  with. The label is presentation and the config is the replay. */
void
foldDrive(util::Hasher &h, const ExperimentSpec &spec)
{
    [[maybe_unused]] const auto &[label, scenario, recorder,
                                  driveDuration, config] = spec;
    h("scenario", scenario, "recorder", recorder, "duration",
      driveDuration);
}

std::string
hex16(std::uint64_t value)
{
    std::string out(16, '0');
    for (auto it = out.rbegin(); it != out.rend(); ++it, value >>= 4)
        *it = "0123456789abcdef"[value & 0xf];
    return out;
}

} // namespace

std::string
cacheKey(const ExperimentSpec &spec)
{
    util::Hasher h;
    // Format version: bump whenever the key encoding, the RunConfig
    // field set or the result file format changes, so stale cache
    // entries miss instead of misloading. DESIGN.md §10 has the
    // history (v10: the calibration is stack::defaultCalibration()).
    h("avscope-exp-v10");
    foldDrive(h, spec);
    const auto &[options, machine, transport, plan, traced, safety,
                 queueDepths] = spec.config;
    h("stack", options);
    hw::fields(
        [&h](const hw::CpuConfig &cpu, const hw::GpuConfig &gpu,
             const hw::PowerConfig &power) {
            h("cpu", cpu, "gpu", gpu, "power", power);
        },
        machine);
    h("transport", transport, "calibration");
    const stack::NodeCalibration calibration = stack::defaultCalibration();
    stack::fields([&h](const auto &...nodes) { (h("node", nodes), ...); },
                  calibration);
    h("faults");
    fault::fields(
        [&h](std::uint64_t seed,
             const std::vector<fault::FaultSpec> &faults) {
            h(seed, faults.size());
            for (const fault::FaultSpec &f : faults)
                h("fault", f);
        },
        plan);
    h("safety", safety, "trace", traced, "queuedepths",
      queueDepths.size());
    for (const ros::QueueDepthOverride &o : queueDepths)
        h(o);
    return hex16(h.value());
}

std::string
driveKey(const ExperimentSpec &spec)
{
    util::Hasher h;
    h("avscope-drive-v1");
    foldDrive(h, spec);
    return hex16(h.value());
}

} // namespace av::exp
