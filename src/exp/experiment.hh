/**
 * @file
 * ExperimentSpec — the typed description of one characterization
 * experiment: which drive to record (scenario + recorder + length)
 * and which configuration to replay it under (RunConfig), plus a
 * human-readable label.
 *
 * A spec is a pure value. Two specs with equal content denote the
 * same experiment, which is what makes results cacheable: cacheKey()
 * hashes every replay-relevant field (and nothing else — the label
 * is presentation), so the on-disk result cache can prove "this
 * exact replay already happened" across processes.
 */

#ifndef AVSCOPE_EXP_EXPERIMENT_HH
#define AVSCOPE_EXP_EXPERIMENT_HH

#include <cstdint>
#include <string>

#include "core/characterization.hh"

namespace av::exp {

/**
 * One experiment: drive inputs + run configuration + label.
 *
 * Build fluently:
 *
 *   auto s = spec().detector(DetectorKind::Ssd512)
 *                  .durationSeconds(120)
 *                  .seed(2020)
 *                  .named("ssd512 full stack");
 *
 * or mutate the public fields directly for sweeps.
 */
struct ExperimentSpec
{
    std::string label = "experiment";
    world::ScenarioConfig scenario;
    world::RecorderConfig recorder;
    sim::Tick driveDuration = 60 * sim::oneSec;
    prof::RunConfig config;

    /** Set the presentation label (not part of the cache key). */
    ExperimentSpec &named(std::string name)
    {
        label = std::move(name);
        return *this;
    }

    /** Select the vision detector under test. */
    ExperimentSpec &detector(perception::DetectorKind kind)
    {
        config.stack.detector = kind;
        return *this;
    }

    /** Set the drive length in virtual ticks. */
    ExperimentSpec &duration(sim::Tick ticks)
    {
        driveDuration = ticks;
        return *this;
    }

    /** Set the drive length in virtual seconds. */
    ExperimentSpec &durationSeconds(long seconds)
    {
        driveDuration =
            static_cast<sim::Tick>(seconds) * sim::oneSec;
        return *this;
    }

    /** Set the scenario seed. */
    ExperimentSpec &seed(std::uint64_t value)
    {
        scenario.seed = value;
        return *this;
    }

    /** Replace the platform configuration. */
    ExperimentSpec &machine(const hw::MachineConfig &m)
    {
        config.machine = m;
        return *this;
    }

    /** Replace the sensor recording configuration. */
    ExperimentSpec &recording(const world::RecorderConfig &r)
    {
        recorder = r;
        return *this;
    }

    /**
     * Isolation mode (the paper's Fig. 8): run the vision detector
     * alone against the same bag — every other stack section off.
     */
    ExperimentSpec &isolatedVision()
    {
        config.stack.enableLocalization = false;
        config.stack.enableLidarDetection = false;
        config.stack.enableTracking = false;
        config.stack.enableCostmap = false;
        return *this;
    }

    /** Arm a fault schedule against the replay (cache-key salted). */
    ExperimentSpec &faults(const fault::FaultPlan &plan)
    {
        config.faults = plan;
        return *this;
    }

    /** Enable the graceful-degradation responses (LiDAR-only
     *  fusion fallback, tracker coasting, NDT reseeding) and the
     *  stale-event counter. */
    ExperimentSpec &degraded()
    {
        config.stack.degraded = true;
        return *this;
    }

    /**
     * Arm the safety-invariant monitor with the given thresholds
     * (cache-key salted; every threshold folds in). The monitor is
     * a pure observer — enabling it changes no measurement, but the
     * result gains the violations section, hence the salt.
     */
    ExperimentSpec &invariants(const stack::SafetyOptions &options =
                                   stack::SafetyOptions())
    {
        config.safety = options;
        config.safety.enabled = true;
        return *this;
    }

    /**
     * Retain the full trace event stream and attach the execution-
     * DAG analysis to the result (cache-key salted). Named traced()
     * — not trace() — so reading a call site never confuses the
     * switch with the av::trace namespace it switches on.
     */
    ExperimentSpec &traced(bool on = true)
    {
        config.trace = on;
        return *this;
    }

    /**
     * Override one subscription's queue depth at runtime (cache-key
     * salted; stackable). The closed-loop optimizer's knob: source
     * literals and the static topology stay untouched.
     */
    ExperimentSpec &queueDepth(std::string topic, std::string node,
                               std::size_t depth)
    {
        config.queueDepths.push_back(
            {std::move(topic), std::move(node), depth});
        return *this;
    }
};

/** Fresh spec with calibrated defaults. */
inline ExperimentSpec
spec()
{
    return ExperimentSpec();
}

/**
 * Content key of the full experiment: every field that influences
 * the replay's measurements — scenario, recorder, drive duration,
 * stack options, machine, transport, faults, safety thresholds,
 * trace switch and queue-depth overrides — plus the code's node
 * calibration, hashed by util::Hasher into 16 hex digits. Excludes
 * the label. Each struct's members come from its fields() list
 * (util/hash.hh); the key adds the order, tags and list lengths.
 * Adding a keyed field: add the member, add it to the list the
 * compiler points at, then bump the format version (old cache
 * entries simply stop matching).
 */
std::string cacheKey(const ExperimentSpec &spec);

/**
 * Content key of the drive inputs alone (scenario + recorder +
 * duration): specs sharing a driveKey replay the same recorded bag
 * and map, which the Runner records once and shares.
 */
std::string driveKey(const ExperimentSpec &spec);

} // namespace av::exp

#endif // AVSCOPE_EXP_EXPERIMENT_HH
