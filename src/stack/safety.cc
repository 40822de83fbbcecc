#include "stack/safety.hh"

#include "perception/nodes.hh"
#include "stack/autoware_stack.hh"
#include "util/logging.hh"
#include "world/scenario.hh"

namespace av::stack {

const char *
invariantName(InvariantKind kind)
{
    switch (kind) {
      case InvariantKind::TrackContinuity:
        return "track_continuity";
      case InvariantKind::LocalizationError:
        return "localization_error";
      case InvariantKind::DeadlineStreak: return "deadline_streak";
      case InvariantKind::PipelineLiveness:
        return "pipeline_liveness";
    }
    return "?";
}

bool
invariantFromName(const std::string &name, InvariantKind &out)
{
    static constexpr InvariantKind kAll[] = {
        InvariantKind::TrackContinuity,
        InvariantKind::LocalizationError,
        InvariantKind::DeadlineStreak,
        InvariantKind::PipelineLiveness,
    };
    for (InvariantKind kind : kAll) {
        if (name == invariantName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

std::string
violationLabel(const SafetyViolation &violation)
{
    return std::string(invariantName(violation.kind)) + "@" +
           std::to_string(violation.time / sim::oneMs) + "ms:" +
           violation.subject;
}

SafetyMonitor::SafetyMonitor(ros::RosGraph &graph,
                             const AutowareStack &stack,
                             const world::Scenario &scenario,
                             const SafetyOptions &options,
                             sim::Tick horizon)
    : graph_(graph), recorder_(graph.traceRecorder()), stack_(stack),
      scenario_(scenario), options_(options), horizon_(horizon),
      task_(graph.eventQueue(), kPeriod,
            [this](std::uint64_t) { sample(); })
{
    AV_ASSERT(recorder_, "the safety monitor reads the trace recorder");
    for (const char *name : perception::topics::watched)
        if (graph.findTopic(name)) // absent: invariant not in force
            pulses_.push_back(TopicPulse{name, false});
    // E2E deadline on the terminal topic: the costmap when a node
    // publishes it (the topic is declared even when the generator
    // is off), else the predicted-objects output.
    const ros::TopicBase *costmap =
        graph.findTopic(perception::topics::costmap);
    if (costmap && !costmap->advertisers().empty())
        terminalTopic_ = perception::topics::costmap;
    else if (graph.findTopic(perception::topics::objects))
        terminalTopic_ = perception::topics::objects;
}

void
SafetyMonitor::start()
{
    // Publications before the monitor runs are not judged.
    const auto *log = recorder_->publishLog(terminalTopic_);
    terminalCursor_ = log ? log->size() : 0;
    task_.start(kPeriod);
}

void
SafetyMonitor::stop()
{
    drainTerminal(); // publications since the last sample
    task_.stop();
}

std::uint64_t
SafetyMonitor::count(InvariantKind kind) const
{
    std::uint64_t n = 0;
    for (const SafetyViolation &v : violations_)
        n += v.kind == kind;
    return n;
}

void
SafetyMonitor::record(InvariantKind kind, sim::Tick time,
                      const std::string &subject, double value,
                      double bound)
{
    SafetyViolation v;
    v.kind = kind;
    v.time = time;
    v.subject = subject;
    v.value = value;
    v.bound = bound;
    violations_.push_back(std::move(v));
}

void
SafetyMonitor::sample()
{
    const sim::Tick now = graph_.eventQueue().now();
    // Each terminal publication is judged at its own tick, so the
    // drain runs even past the horizon.
    drainTerminal();
    // Past the horizon the bag has stopped feeding the stack: every
    // topic legitimately falls silent while the ground-truth ego
    // keeps moving, so judging invariants there would manufacture
    // violations out of the drain-grace window.
    if (horizon_ != 0 && now > horizon_)
        return;
    sampleLocalization(now);
    sampleContinuity(now);
    sampleLiveness(now);
}

void
SafetyMonitor::sampleLocalization(sim::Tick now)
{
    const perception::NdtMatchingNode *ndt = stack_.ndt();
    if (!ndt || !ndt->lastPose())
        return;
    // Compare the latest estimate against ground truth *now*: a pose
    // that stopped updating diverges at ego speed, so a silent
    // localizer breaches this bound exactly like a wrong one.
    const double err =
        (ndt->lastPose()->position - scenario_.egoPoseAt(now).p)
            .norm();
    if (err > options_.maxLocalizationError) {
        if (!locInViolation_)
            record(InvariantKind::LocalizationError, now,
                   perception::topics::ndtPose, err,
                   options_.maxLocalizationError);
        locInViolation_ = true;
    } else {
        locInViolation_ = false;
    }
}

void
SafetyMonitor::sampleContinuity(sim::Tick now)
{
    const perception::ImmUkfPdaNode *node = stack_.trackerNode();
    if (!node)
        return;
    const geom::Pose2 ego = scenario_.egoPoseAt(now);
    const std::vector<perception::Track> tracks =
        node->tracker().tracks();
    for (const world::ActorState &actor : scenario_.actorsAt(now)) {
        const geom::Vec2 pos = actor.box.pose.p;
        ActorCover *cover = nullptr;
        for (auto &entry : covers_)
            if (entry.first == actor.id)
                cover = &entry.second;
        if (!cover) {
            covers_.emplace_back(actor.id, ActorCover{});
            cover = &covers_.back().second;
        }
        if ((pos - ego.p).norm() > kTrackRange) {
            // Out of range: the invariant is not in force; a fresh
            // episode starts when the actor comes back.
            cover->lostStreak = 0;
            cover->inViolation = false;
            continue;
        }
        bool covered = false;
        for (const perception::Track &track : tracks) {
            if (!track.confirmed)
                continue;
            const geom::Vec2 est{track.state[0], track.state[1]};
            if ((est - pos).norm() <= kTrackGate) {
                covered = true;
                break;
            }
        }
        if (covered) {
            cover->everCovered = true;
            cover->lostStreak = 0;
            cover->inViolation = false;
        } else if (cover->everCovered) {
            ++cover->lostStreak;
            if (cover->lostStreak > options_.trackLossSamples &&
                !cover->inViolation) {
                record(InvariantKind::TrackContinuity, now,
                       "actor_" + std::to_string(actor.id),
                       static_cast<double>(cover->lostStreak),
                       static_cast<double>(
                           options_.trackLossSamples));
                cover->inViolation = true;
            }
        }
    }
}

void
SafetyMonitor::sampleLiveness(sim::Tick now)
{
    for (TopicPulse &pulse : pulses_) {
        const trace::PublishRecord *last =
            recorder_->lastPublish(pulse.topic);
        if (!last)
            continue; // silence before first publication ≠ outage
        const sim::Tick age = now - last->stamp;
        if (age > options_.livenessAfter) {
            if (!pulse.inViolation)
                record(InvariantKind::PipelineLiveness, now,
                       pulse.topic, sim::ticksToMs(age),
                       sim::ticksToMs(options_.livenessAfter));
            pulse.inViolation = true;
        } else {
            pulse.inViolation = false;
        }
    }
}

void
SafetyMonitor::drainTerminal()
{
    const auto *log = recorder_->publishLog(terminalTopic_);
    if (!log)
        return;
    for (; terminalCursor_ < log->size(); ++terminalCursor_)
        judgeTerminal((*log)[terminalCursor_]);
}

void
SafetyMonitor::judgeTerminal(const trace::PublishRecord &pub)
{
    if (pub.originLidar == 0)
        return; // not derived from a LiDAR scan: no E2E lineage
    if (horizon_ != 0 && pub.tick > horizon_)
        return; // drain-grace publications are expected to be late
    const double e2e = sim::ticksToMs(pub.tick - pub.originLidar);
    if (e2e > options_.deadlineMs) {
        ++missStreak_;
        if (missStreak_ >= options_.deadlineMissStreak &&
            !deadlineInViolation_) {
            record(InvariantKind::DeadlineStreak, pub.tick,
                   terminalTopic_,
                   static_cast<double>(missStreak_),
                   static_cast<double>(options_.deadlineMissStreak));
            deadlineInViolation_ = true;
        }
    } else {
        missStreak_ = 0;
        deadlineInViolation_ = false;
    }
}

} // namespace av::stack
