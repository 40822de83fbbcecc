/**
 * @file
 * Deterministic fault injection for whole-stack resilience studies.
 *
 * The paper characterizes the stack degrading under load (queue drops,
 * deadline violations); this layer *provokes* degradation on purpose
 * so the recovery behaviour can be characterized too. A FaultPlan is a
 * typed, replayable schedule: every fault window is expressed in sim
 * ticks and every probabilistic decision draws from an explicitly
 * seeded util::Rng, so a faulted run is exactly as reproducible as a
 * clean one — same plan + same seed => byte-identical results at any
 * worker count.
 *
 * Fault classes:
 *  - sensor blackout (LiDAR / camera / GNSS publication windows
 *    suppressed at the transport),
 *  - probabilistic frame loss on any topic,
 *  - node crash with respawn delay (queued inputs drain, node state
 *    resets via Node::onRespawn),
 *  - message delay / duplication / corruption at the minros layer,
 *  - GPU thermal-throttle windows (scaled kernel rate in av::hw).
 */

#ifndef AVSCOPE_FAULT_FAULT_HH
#define AVSCOPE_FAULT_FAULT_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "ros/ros.hh"
#include "sim/ticks.hh"
#include "util/hash.hh"

namespace av::fault {

/** The fault classes the injector can schedule. */
enum class FaultKind : std::uint8_t {
    LidarBlackout,    ///< /points_raw suppressed for a window
    CameraBlackout,   ///< /image_raw suppressed for a window
    GnssBlackout,     ///< /gnss_pose suppressed for a window
    FrameLoss,        ///< probabilistic drop on a chosen topic
    NodeCrash,        ///< node down; respawns after a delay
    MessageDelay,     ///< extra transport latency on a topic
    MessageDuplicate, ///< probabilistic duplicate delivery
    MessageCorrupt,   ///< probabilistic corrupt-and-discard
    GpuThrottle,      ///< thermal window scaling kernel rate
};

/** Stable lowercase name, e.g. "camera_blackout". */
const char *faultKindName(FaultKind kind);

/** Inverse of faultKindName(); false when @p name is unknown. */
bool faultKindFromName(const std::string &name, FaultKind &out);

/**
 * One scheduled fault. A flat record on purpose: its field list
 * feeds exp::cacheKey() and faultSalt(), and it serializes without a
 * per-kind schema. Unused fields stay at their defaults.
 */
struct FaultSpec
{
    FaultKind kind = FaultKind::LidarBlackout;
    sim::Tick start = 0;    ///< fault onset (virtual time)
    sim::Tick duration = 0; ///< window length (0 for NodeCrash)
    /** Topic name for transport faults; node name for NodeCrash. */
    std::string target;
    double probability = 1.0; ///< per-message chance (loss/dup/corrupt)
    double factor = 1.0;      ///< GPU throttle rate multiplier
    sim::Tick extraDelay = 0;   ///< MessageDelay surcharge
    sim::Tick respawnDelay = 0; ///< NodeCrash downtime
    /**
     * Topic whose publications indicate this fault has been absorbed;
     * empty picks a per-kind default (see defaultWatchTopic).
     */
    std::string watchTopic;

    bool operator==(const FaultSpec &) const = default;
};

void
fields(auto &&ar, util::MaybeConst<FaultSpec> auto &c)
{
    auto &[kind, start, duration, target, probability, factor,
           extraDelay, respawnDelay, watchTopic] = c;
    ar(kind, start, duration, target, probability, factor, extraDelay,
       respawnDelay, watchTopic);
}

/** End of the disturbance window (crashes end at respawn). */
sim::Tick faultWindowEnd(const FaultSpec &spec);

/** Report label, e.g. "camera_blackout@2000ms" (token-safe). */
std::string faultLabel(const FaultSpec &spec);

/** Per-kind default recovery-watch topic for @p spec. */
std::string defaultWatchTopic(const FaultSpec &spec);

/**
 * Content-derived Rng-stream salt for one fault: util::Hasher over
 * its field list (cacheKey() folds the same bytes after a tag).
 * Overlapping transport faults compose commutatively at the minros
 * layer (any drop wins, any corrupt wins, delays add, duplicate
 * counts add — see ros::TransportFaults), so with content-derived
 * streams the *order* faults appear in a plan cannot change the run:
 * each fault draws from a stream defined by what it is, not by where
 * it sits in the vector.
 */
std::uint64_t faultSalt(const FaultSpec &spec);

/**
 * A replayable fault schedule. Build fluently:
 *
 *   auto plan = FaultPlan()
 *                   .cameraBlackout(2 * sim::oneSec, sim::oneSec)
 *                   .gpuThrottle(4 * sim::oneSec, sim::oneSec, 0.4);
 */
struct FaultPlan
{
    /** Seed for every probabilistic fault decision in this plan. */
    std::uint64_t seed = 2027;
    std::vector<FaultSpec> faults;

    bool empty() const { return faults.empty(); }
    bool operator==(const FaultPlan &) const = default;

    FaultPlan &lidarBlackout(sim::Tick start, sim::Tick duration);
    FaultPlan &cameraBlackout(sim::Tick start, sim::Tick duration);
    FaultPlan &gnssBlackout(sim::Tick start, sim::Tick duration);
    FaultPlan &frameLoss(const std::string &topic, sim::Tick start,
                         sim::Tick duration, double probability);
    FaultPlan &nodeCrash(const std::string &node, sim::Tick start,
                         sim::Tick respawn_delay);
    FaultPlan &messageDelay(const std::string &topic, sim::Tick start,
                            sim::Tick duration, sim::Tick extra);
    FaultPlan &messageDuplicate(const std::string &topic,
                                sim::Tick start, sim::Tick duration,
                                double probability);
    FaultPlan &messageCorrupt(const std::string &topic,
                              sim::Tick start, sim::Tick duration,
                              double probability);
    FaultPlan &gpuThrottle(sim::Tick start, sim::Tick duration,
                           double factor);
};

void
fields(auto &&ar, util::MaybeConst<FaultPlan> auto &c)
{
    auto &[seed, faults] = c;
    ar(seed, faults);
}

/**
 * What one fault did to the run: transport counters filled by the
 * injector's policies, recovery fields filled by prof::RecoveryProbe.
 */
struct FaultOutcome
{
    std::string label;  ///< faultLabel() of the spec
    FaultKind kind = FaultKind::LidarBlackout;
    sim::Tick onset = 0;
    sim::Tick windowEnd = 0;
    std::string watchTopic;
    /** Watch-topic publications inside [onset, windowEnd). */
    std::uint64_t publishedDuringWindow = 0;
    /** Fault onset -> first watch-topic publication at/after the
     *  window end, in ms; -1 = never recovered. */
    double recoveryMs = -1.0;
    std::uint64_t suppressed = 0; ///< messages dropped on the wire
    std::uint64_t corrupted = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t delayed = 0;
};

/**
 * Arms a FaultPlan against one RosGraph + Machine. Construct after
 * the stack (so crash targets resolve), call arm() once before the
 * run. Throws std::invalid_argument for a plan referencing an unknown
 * node or an empty topic target — a plan typo must not silently
 * no-op an experiment.
 *
 * Composition rule for overlapping windows: transport faults merge
 * commutatively (see faultSalt), so any set of them may overlap on
 * any topic and the plan's fault order is immaterial. Three shapes
 * are *genuinely* ambiguous and rejected from the ctor instead:
 *  - two byte-identical FaultSpecs (their Rng streams would collapse
 *    into one correlated stream — duplicate the window with distinct
 *    probabilities or starts if doubling intensity is intended),
 *  - overlapping GpuThrottle windows (the earlier window's end event
 *    resets the throttle factor to 1.0 while the later window is
 *    still open — last-writer-wins on a global knob),
 *  - overlapping NodeCrash windows on the same node (crashing an
 *    already-crashed node and racing its respawns has no defined
 *    semantics).
 */
class FaultInjector
{
  public:
    FaultInjector(ros::RosGraph &graph, const FaultPlan &plan);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Install transport policies and schedule crash/throttle events. */
    void arm();

    /** One outcome per plan fault, in plan order. */
    std::vector<FaultOutcome> outcomes() const;

  private:
    ros::RosGraph &graph_;
    FaultPlan plan_;
    bool armed_ = false;
    /** Stable storage: policies capture pointers into this deque. */
    std::deque<FaultOutcome> outcomes_;

    void armTransportFault(const FaultSpec &spec, FaultOutcome *out);
    void armNodeCrash(const FaultSpec &spec);
    void armGpuThrottle(const FaultSpec &spec);
};

} // namespace av::fault

#endif // AVSCOPE_FAULT_FAULT_HH
