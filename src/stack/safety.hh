/**
 * @file
 * Safety-invariant monitor: machine-checked resilience bounds.
 *
 * bench/fault_resilience (PR 5) *measures* degradation — recovery
 * times, drop inflation — but leaves "did the stack stay safe?" to a
 * human reading tables. This monitor turns that judgment into typed,
 * threshold-configurable invariants checked against ground truth
 * during the replay:
 *
 *  - TrackContinuity: an in-range actor the tracker had confirmed
 *    must not stay uncovered longer than N consecutive samples;
 *  - LocalizationError: the NDT pose must stay within a bound of the
 *    scenario's ground-truth ego pose (a *stale* pose diverges at
 *    ego speed, so silence shows up here too);
 *  - DeadlineStreak: the terminal costmap topic must not miss the
 *    E2E deadline (LiDAR origin -> publication) M times in a row;
 *  - PipelineLiveness: no watched inter-node topic that has started
 *    publishing may go silent beyond the liveness threshold — the
 *    escalation tier above the staleness probe's stale-event count
 *    (prof::StalenessMonitor).
 *
 * Violations are recorded as timestamped, token-safe records that
 * serialize into the result cache; av::chaos classifies campaign
 * cells by them. The monitor is a pure observer: liveness and the
 * deadline read the run's trace::Recorder publish log (header stamps
 * and lineage), the rest reads node state, all from a periodic
 * sample on the shared EventQueue — no ros::Node, no simulated cost
 * — so enabling it cannot perturb any measurement.
 */

#ifndef AVSCOPE_STACK_SAFETY_HH
#define AVSCOPE_STACK_SAFETY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ros/ros.hh"
#include "sim/periodic.hh"
#include "trace/trace.hh"
#include "util/hash.hh"

namespace av::world {
class Scenario;
}

namespace av::stack {

class AutowareStack;

/** The invariant classes the monitor checks. */
enum class InvariantKind : std::uint8_t {
    TrackContinuity,   ///< confirmed track lost while actor in range
    LocalizationError, ///< NDT pose error vs ground truth
    DeadlineStreak,    ///< consecutive E2E deadline misses
    PipelineLiveness,  ///< watched topic silent beyond threshold
};

/** Stable lowercase name, e.g. "localization_error". */
const char *invariantName(InvariantKind kind);

/** Inverse of invariantName(); false when @p name is unknown. */
bool invariantFromName(const std::string &name, InvariantKind &out);

/**
 * Invariant thresholds. Default-off (like StackOptions::degraded)
 * so the seed behaviour and every cached result reproduce
 * unchanged; fault campaigns opt in. Every field folds into the
 * experiment cache key.
 */
struct SafetyOptions
{
    bool enabled = false;
    /** TrackContinuity: tolerated consecutive uncovered samples. */
    std::uint64_t trackLossSamples = 8;
    /** LocalizationError: NDT-vs-ground-truth bound (m). */
    double maxLocalizationError = 3.0;
    /** DeadlineStreak: E2E budget (ms; the paper's 100 ms). */
    double deadlineMs = 100.0;
    /** DeadlineStreak: tolerated consecutive misses. */
    std::uint64_t deadlineMissStreak = 10;
    /** PipelineLiveness: silence beyond this escalates (> the
     *  staleness probe's kStaleAfter, which merely counts). */
    sim::Tick livenessAfter = 2 * sim::oneSec;
};

void
fields(auto &&ar, util::MaybeConst<SafetyOptions> auto &c)
{
    auto &[enabled, trackLossSamples, maxLocalizationError, deadlineMs,
           deadlineMissStreak, livenessAfter] = c;
    ar(enabled, trackLossSamples, maxLocalizationError, deadlineMs,
       deadlineMissStreak, livenessAfter);
}

/**
 * One recorded invariant breach. subject is token-safe (a topic name
 * or "actor_<id>") so the record serializes on one cache line.
 */
struct SafetyViolation
{
    InvariantKind kind = InvariantKind::PipelineLiveness;
    sim::Tick time = 0;   ///< virtual time of detection
    std::string subject;  ///< topic or actor the breach concerns
    double value = 0.0;   ///< measured quantity at detection
    double bound = 0.0;   ///< the configured threshold it crossed
};

/** Report label, e.g. "localization_error@2500ms:/ndt_pose". */
std::string violationLabel(const SafetyViolation &violation);

/**
 * The monitor. Construct after the stack on a graph with its
 * trace::Recorder attached (disabled subsystems are skipped per
 * invariant), start() before the replay. Each invariant re-arms only
 * after its condition clears, so one sustained breach yields one
 * violation record.
 *
 * DeadlineStreak judges every terminal publication logged between
 * start() and stop(), at its own publish tick: each sample() and
 * stop() first drains the log from a cursor, so the records keep the
 * order they would have had if judged at publication.
 *
 * @p horizon is the end of sensor input (the drive duration):
 * invariants are only judged while the bag is still feeding the
 * stack. Past the horizon every topic legitimately falls silent and
 * the ground-truth ego keeps moving, so liveness, localization and
 * deadline checks would all fire spuriously during the drain-grace
 * window; 0 means no horizon.
 */
class SafetyMonitor
{
  public:
    /** Sampling period for the polled invariants. */
    static constexpr sim::Tick kPeriod = 100 * sim::oneMs;
    /** TrackContinuity: actors within this range (m) must be kept. */
    static constexpr double kTrackRange = 18.0;
    /** TrackContinuity: track-to-truth association gate (m). */
    static constexpr double kTrackGate = 4.0;

    SafetyMonitor(ros::RosGraph &graph, const AutowareStack &stack,
                  const world::Scenario &scenario,
                  const SafetyOptions &options, sim::Tick horizon);

    SafetyMonitor(const SafetyMonitor &) = delete;
    SafetyMonitor &operator=(const SafetyMonitor &) = delete;

    void start();
    void stop();

    /** Violations in detection order (deterministic). */
    const std::vector<SafetyViolation> &violations() const
    {
        return violations_;
    }

    /** Violations of one kind. */
    std::uint64_t count(InvariantKind kind) const;

  private:
    /** Per-actor continuity episode state. */
    struct ActorCover
    {
        std::uint64_t lostStreak = 0;
        bool everCovered = false;
        bool inViolation = false;
    };

    /** Per-topic liveness latch. */
    struct TopicPulse
    {
        std::string topic;
        bool inViolation = false;
    };

    void sample();
    void sampleLocalization(sim::Tick now);
    void sampleContinuity(sim::Tick now);
    void sampleLiveness(sim::Tick now);
    /** Judge the terminal publications logged since the last drain. */
    void drainTerminal();
    void judgeTerminal(const trace::PublishRecord &pub);
    void record(InvariantKind kind, sim::Tick time,
                const std::string &subject, double value,
                double bound);

    ros::RosGraph &graph_;
    const trace::Recorder *recorder_;
    const AutowareStack &stack_;
    const world::Scenario &scenario_;
    SafetyOptions options_;
    sim::Tick horizon_ = 0; ///< end of sensor input; 0 = none
    sim::PeriodicTask task_;
    std::vector<SafetyViolation> violations_;
    /** Liveness latch per watched topic. */
    std::vector<TopicPulse> pulses_;
    /** Continuity state per truth-actor id (sorted map semantics via
     *  linear scan: actor counts are tens, not thousands). */
    std::vector<std::pair<std::uint32_t, ActorCover>> covers_;
    /** DeadlineStreak state on the terminal topic ("" = none). */
    std::string terminalTopic_;
    std::size_t terminalCursor_ = 0; ///< next publish-log index
    std::uint64_t missStreak_ = 0;
    bool deadlineInViolation_ = false;
    /** LocalizationError re-arm latch. */
    bool locInViolation_ = false;
};

} // namespace av::stack

#endif // AVSCOPE_STACK_SAFETY_HH
