#include "fault/fault.hh"

#include <stdexcept>

#include "perception/nodes.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "world/recorder.hh"

namespace av::fault {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::LidarBlackout: return "lidar_blackout";
      case FaultKind::CameraBlackout: return "camera_blackout";
      case FaultKind::GnssBlackout: return "gnss_blackout";
      case FaultKind::FrameLoss: return "frame_loss";
      case FaultKind::NodeCrash: return "node_crash";
      case FaultKind::MessageDelay: return "msg_delay";
      case FaultKind::MessageDuplicate: return "msg_duplicate";
      case FaultKind::MessageCorrupt: return "msg_corrupt";
      case FaultKind::GpuThrottle: return "gpu_throttle";
    }
    return "?";
}

bool
faultKindFromName(const std::string &name, FaultKind &out)
{
    static constexpr FaultKind kAll[] = {
        FaultKind::LidarBlackout,    FaultKind::CameraBlackout,
        FaultKind::GnssBlackout,     FaultKind::FrameLoss,
        FaultKind::NodeCrash,        FaultKind::MessageDelay,
        FaultKind::MessageDuplicate, FaultKind::MessageCorrupt,
        FaultKind::GpuThrottle,
    };
    for (FaultKind kind : kAll) {
        if (name == faultKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

sim::Tick
faultWindowEnd(const FaultSpec &spec)
{
    if (spec.kind == FaultKind::NodeCrash)
        return spec.start + spec.respawnDelay;
    return spec.start + spec.duration;
}

std::string
faultLabel(const FaultSpec &spec)
{
    return std::string(faultKindName(spec.kind)) + "@" +
           std::to_string(spec.start / sim::oneMs) + "ms";
}

std::string
defaultWatchTopic(const FaultSpec &spec)
{
    switch (spec.kind) {
      case FaultKind::LidarBlackout:
        return perception::topics::lidarObjects;
      case FaultKind::CameraBlackout:
        return perception::topics::fusedObjects;
      case FaultKind::GnssBlackout:
        return perception::topics::ndtPose;
      case FaultKind::NodeCrash:
        return perception::topics::objects;
      case FaultKind::GpuThrottle:
        return perception::topics::imageObjects;
      case FaultKind::FrameLoss:
      case FaultKind::MessageDelay:
      case FaultKind::MessageDuplicate:
      case FaultKind::MessageCorrupt:
        return spec.target;
    }
    return spec.target;
}

std::uint64_t
faultSalt(const FaultSpec &spec)
{
    util::Hasher h;
    h(spec);
    return h.value();
}

namespace {

/** True when the [start, end) windows of @p a and @p b intersect. */
bool
windowsOverlap(const FaultSpec &a, const FaultSpec &b)
{
    return a.start < faultWindowEnd(b) && b.start < faultWindowEnd(a);
}

FaultSpec
makeSpec(FaultKind kind, sim::Tick start, sim::Tick duration,
         std::string target)
{
    FaultSpec spec;
    spec.kind = kind;
    spec.start = start;
    spec.duration = duration;
    spec.target = std::move(target);
    return spec;
}

} // namespace

FaultPlan &
FaultPlan::lidarBlackout(sim::Tick start, sim::Tick duration)
{
    faults.push_back(makeSpec(FaultKind::LidarBlackout, start,
                              duration, world::topics::pointsRaw));
    return *this;
}

FaultPlan &
FaultPlan::cameraBlackout(sim::Tick start, sim::Tick duration)
{
    faults.push_back(makeSpec(FaultKind::CameraBlackout, start,
                              duration, world::topics::imageRaw));
    return *this;
}

FaultPlan &
FaultPlan::gnssBlackout(sim::Tick start, sim::Tick duration)
{
    faults.push_back(makeSpec(FaultKind::GnssBlackout, start,
                              duration, world::topics::gnss));
    return *this;
}

FaultPlan &
FaultPlan::frameLoss(const std::string &topic, sim::Tick start,
                     sim::Tick duration, double probability)
{
    FaultSpec spec =
        makeSpec(FaultKind::FrameLoss, start, duration, topic);
    spec.probability = probability;
    faults.push_back(std::move(spec));
    return *this;
}

FaultPlan &
FaultPlan::nodeCrash(const std::string &node, sim::Tick start,
                     sim::Tick respawn_delay)
{
    FaultSpec spec = makeSpec(FaultKind::NodeCrash, start, 0, node);
    spec.respawnDelay = respawn_delay;
    faults.push_back(std::move(spec));
    return *this;
}

FaultPlan &
FaultPlan::messageDelay(const std::string &topic, sim::Tick start,
                        sim::Tick duration, sim::Tick extra)
{
    FaultSpec spec =
        makeSpec(FaultKind::MessageDelay, start, duration, topic);
    spec.extraDelay = extra;
    faults.push_back(std::move(spec));
    return *this;
}

FaultPlan &
FaultPlan::messageDuplicate(const std::string &topic, sim::Tick start,
                            sim::Tick duration, double probability)
{
    FaultSpec spec =
        makeSpec(FaultKind::MessageDuplicate, start, duration, topic);
    spec.probability = probability;
    faults.push_back(std::move(spec));
    return *this;
}

FaultPlan &
FaultPlan::messageCorrupt(const std::string &topic, sim::Tick start,
                          sim::Tick duration, double probability)
{
    FaultSpec spec =
        makeSpec(FaultKind::MessageCorrupt, start, duration, topic);
    spec.probability = probability;
    faults.push_back(std::move(spec));
    return *this;
}

FaultPlan &
FaultPlan::gpuThrottle(sim::Tick start, sim::Tick duration,
                       double factor)
{
    FaultSpec spec = makeSpec(FaultKind::GpuThrottle, start, duration,
                              std::string());
    spec.factor = factor;
    faults.push_back(std::move(spec));
    return *this;
}

FaultInjector::FaultInjector(ros::RosGraph &graph,
                             const FaultPlan &plan)
    : graph_(graph), plan_(plan)
{
    for (const FaultSpec &spec : plan_.faults) {
        switch (spec.kind) {
          case FaultKind::NodeCrash:
            if (!graph_.findNode(spec.target))
                throw std::invalid_argument(
                    "fault plan: unknown crash target node '" +
                    spec.target + "'");
            break;
          case FaultKind::GpuThrottle:
            if (!(spec.factor > 0.0 && spec.factor <= 1.0))
                throw std::invalid_argument(
                    "fault plan: GPU throttle factor must be in "
                    "(0, 1]");
            break;
          default:
            if (spec.target.empty())
                throw std::invalid_argument(
                    "fault plan: transport fault '" +
                    std::string(faultKindName(spec.kind)) +
                    "' needs a target topic");
            if (spec.probability < 0.0 || spec.probability > 1.0)
                throw std::invalid_argument(
                    "fault plan: probability must be in [0, 1]");
            break;
        }
        FaultOutcome out;
        out.label = faultLabel(spec);
        out.kind = spec.kind;
        out.onset = spec.start;
        out.windowEnd = faultWindowEnd(spec);
        out.watchTopic = spec.watchTopic.empty()
                             ? defaultWatchTopic(spec)
                             : spec.watchTopic;
        outcomes_.push_back(std::move(out));
    }
    // Reject the genuinely ambiguous overlaps (see class comment);
    // everything else composes commutatively and may overlap freely.
    for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
        for (std::size_t j = i + 1; j < plan_.faults.size(); ++j) {
            const FaultSpec &a = plan_.faults[i];
            const FaultSpec &b = plan_.faults[j];
            if (a == b)
                throw std::invalid_argument(
                    "fault plan: duplicate fault '" + faultLabel(a) +
                    "' — identical specs share one Rng stream; vary "
                    "a field to make the streams independent");
            if (a.kind != b.kind)
                continue;
            if (a.kind == FaultKind::GpuThrottle &&
                windowsOverlap(a, b))
                throw std::invalid_argument(
                    "fault plan: overlapping GPU throttle windows "
                    "('" + faultLabel(a) + "', '" + faultLabel(b) +
                    "') — the first window's end would reset the "
                    "factor under the second");
            if (a.kind == FaultKind::NodeCrash &&
                a.target == b.target && windowsOverlap(a, b))
                throw std::invalid_argument(
                    "fault plan: overlapping crash windows for node "
                    "'" + a.target + "' — crash-while-down has no "
                    "defined respawn order");
        }
    }
}

void
FaultInjector::arm()
{
    AV_ASSERT(!armed_, "FaultInjector armed twice");
    armed_ = true;
    for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
        const FaultSpec &spec = plan_.faults[i];
        switch (spec.kind) {
          case FaultKind::NodeCrash:
            armNodeCrash(spec);
            break;
          case FaultKind::GpuThrottle:
            armGpuThrottle(spec);
            break;
          default:
            armTransportFault(spec, &outcomes_[i]);
            break;
        }
    }
}

void
FaultInjector::armTransportFault(const FaultSpec &spec,
                                 FaultOutcome *out)
{
    // Each fault gets an independent stream forked from the plan
    // seed, salted by the fault's *content* (not its plan index):
    // publish order is deterministic, so the draw sequence — and
    // therefore every probabilistic decision — replays exactly, and
    // reordering the plan cannot change any stream.
    util::Rng rng = util::Rng(plan_.seed).fork(faultSalt(spec));
    const sim::Tick start = spec.start;
    const sim::Tick end = spec.start + spec.duration;
    const FaultKind kind = spec.kind;
    const double p = spec.probability;
    const sim::Tick extra = spec.extraDelay;
    graph_.faults().addPolicy(
        spec.target,
        [rng, start, end, kind, p, extra, out](
            const ros::Header &, sim::Tick now) mutable {
            ros::Disruption d;
            if (now < start || now >= end)
                return d;
            switch (kind) {
              case FaultKind::LidarBlackout:
              case FaultKind::CameraBlackout:
              case FaultKind::GnssBlackout:
                d.drop = true;
                ++out->suppressed;
                break;
              case FaultKind::FrameLoss:
                if (rng.bernoulli(p)) {
                    d.drop = true;
                    ++out->suppressed;
                }
                break;
              case FaultKind::MessageDelay:
                d.extraDelay = extra;
                ++out->delayed;
                break;
              case FaultKind::MessageDuplicate:
                if (rng.bernoulli(p)) {
                    d.duplicates = 1;
                    ++out->duplicated;
                }
                break;
              case FaultKind::MessageCorrupt:
                if (rng.bernoulli(p)) {
                    d.corrupt = true;
                    ++out->corrupted;
                }
                break;
              default:
                break;
            }
            return d;
        });
}

void
FaultInjector::armNodeCrash(const FaultSpec &spec)
{
    ros::Node *node = graph_.findNode(spec.target);
    AV_ASSERT(node, "crash target vanished after validation");
    sim::EventQueue &eq = graph_.eventQueue();
    eq.schedule(spec.start, [node] { node->crash(); });
    eq.schedule(spec.start + spec.respawnDelay,
                [node] { node->respawn(); });
}

void
FaultInjector::armGpuThrottle(const FaultSpec &spec)
{
    hw::GpuModel &gpu = graph_.machine().gpu();
    sim::EventQueue &eq = graph_.eventQueue();
    const double factor = spec.factor;
    eq.schedule(spec.start,
                [&gpu, factor] { gpu.setThrottleFactor(factor); });
    eq.schedule(spec.start + spec.duration,
                [&gpu] { gpu.setThrottleFactor(1.0); });
}

std::vector<FaultOutcome>
FaultInjector::outcomes() const
{
    return std::vector<FaultOutcome>(outcomes_.begin(),
                                     outcomes_.end());
}

} // namespace av::fault
