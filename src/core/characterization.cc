#include "core/characterization.hh"

#include <stdexcept>

#include "util/logging.hh"

namespace av::prof {

namespace {

/** Run-out after the bag ends before the probes stop. */
constexpr sim::Tick kDrainGrace = 3 * sim::oneSec;

} // namespace

std::shared_ptr<DriveData>
recordDriveBag(const world::ScenarioConfig &scenario_cfg,
               sim::Tick duration,
               const world::RecorderConfig &recorder)
{
    auto drive = std::make_shared<DriveData>();
    drive->scenarioConfig = scenario_cfg;
    drive->duration = duration;
    const world::Scenario scenario(scenario_cfg);
    world::recordDrive(scenario, world::LidarModel(),
                       world::CameraModel(), world::GnssModel(),
                       world::ImuModel(), duration, recorder,
                       drive->bag);
    drive->initialPose = scenario.egoPoseAt(0);
    return drive;
}

pc::PointCloud
buildDriveMap(const world::ScenarioConfig &scenario_cfg)
{
    // Standard mapping practice: the pass is driven on a quiet
    // street — moving vehicles and pedestrians would be baked into
    // the map as ghost geometry along the lane and capture the scan
    // matcher. Parked cars and buildings (identical streams, same
    // seed) stay as landmarks.
    world::ScenarioConfig mapping_cfg = scenario_cfg;
    mapping_cfg.nVehicles = 0;
    mapping_cfg.nPedestrians = 0;
    const world::Scenario mapping_scenario(mapping_cfg);
    const double loop_s =
        mapping_scenario.routeLength() / scenario_cfg.egoSpeed;
    return world::MapBuilder().build(mapping_scenario,
                                     world::LidarModel(),
                                     sim::secondsToTicks(loop_s));
}

std::shared_ptr<DriveData>
makeDrive(const world::ScenarioConfig &scenario_cfg,
          sim::Tick duration, const world::RecorderConfig &recorder)
{
    // Map first: the bag then reuses the heap the mapping pass's
    // keyframe scans freed, so peak memory is the larger of the two
    // passes, not their sum.
    pc::PointCloud map = buildDriveMap(scenario_cfg);
    std::shared_ptr<DriveData> drive =
        recordDriveBag(scenario_cfg, duration, recorder);
    drive->map = std::move(map);
    return drive;
}

CharacterizationRun::CharacterizationRun(
    std::shared_ptr<const DriveData> drive, const RunConfig &config)
    : drive_(std::move(drive)), config_(config)
{
    AV_ASSERT(drive_ != nullptr, "null drive data");
    // Only a localizing stack reads the map; an isolated replay may
    // share its drive with a job that is still building it.
    if (config_.stack.enableLocalization && drive_->map.empty())
        throw std::invalid_argument(
            "localizing run on a drive without a map: NDT would "
            "never match (build it with buildDriveMap)");
    eq_ = std::make_unique<sim::EventQueue>();
    recorder_.setEnabled(config_.trace);
    machine_ = std::make_unique<hw::Machine>(*eq_, config_.machine);
    machine_->setTraceRecorder(&recorder_);
    graph_ = std::make_unique<ros::RosGraph>(*machine_, config_.transport);
    graph_->setTraceRecorder(&recorder_);
    // Overrides must be in place before the stack subscribes.
    graph_->setQueueDepthOverrides(config_.queueDepths);
    stack_ = std::make_unique<stack::AutowareStack>(
        *graph_, drive_->map, config_.stack, drive_->initialPose,
        drive_->memos);
    // pathSeries() reads these two topics' publish logs. Declared in
    // every configuration, so the topic set (and the staleness rows)
    // is the same when a stack section is off.
    graph_->topic<perception::PoseEstimate>(perception::topics::ndtPose);
    graph_->topic<perception::Costmap>(perception::topics::costmap);
    monitor_ = std::make_unique<MachineMonitor>(*eq_, *machine_);
    staleness_ = std::make_unique<StalenessMonitor>(*graph_,
                                                    recorder_);
    if (!config_.faults.empty()) {
        // Constructor-time validation: a typo'd node name throws
        // std::invalid_argument here, before any simulation runs.
        injector_ = std::make_unique<fault::FaultInjector>(
            *graph_, config_.faults);
        recovery_ = std::make_unique<RecoveryProbe>(recorder_,
                                                    config_.faults);
    }
    if (config_.safety.enabled) {
        // Ground truth is rebuilt from the drive's config — the
        // same pure queries the sensors sampled when recording.
        safetyScenario_ = std::make_unique<world::Scenario>(
            drive_->scenarioConfig);
        safety_ = std::make_unique<stack::SafetyMonitor>(
            *graph_, *stack_, *safetyScenario_, config_.safety,
            drive_->duration);
    }
}

CharacterizationRun::~CharacterizationRun() = default;

void
CharacterizationRun::execute()
{
    AV_ASSERT(!executed_, "CharacterizationRun executed twice");
    executed_ = true;
    if (injector_)
        injector_->arm();
    monitor_->start();
    staleness_->start();
    if (safety_)
        safety_->start();
    drive_->bag.replay(*graph_);
    eq_->runUntil(drive_->duration + kDrainGrace);
    monitor_->stop();
    staleness_->stop();
    if (safety_)
        safety_->stop();
    // Drain whatever is still in flight (bounded).
    eq_->runUntil(drive_->duration + 2 * kDrainGrace);
}

trace::Summary
CharacterizationRun::traceSummary() const
{
    return recorder_.enabled() ? trace::analyze(recorder_)
                               : trace::Summary();
}

std::vector<DropRow>
CharacterizationRun::drops() const
{
    return collectDrops(*graph_);
}

std::vector<CounterRow>
CharacterizationRun::counters() const
{
    return collectCounters(stack_->nodes());
}

std::vector<fault::FaultOutcome>
CharacterizationRun::faultOutcomes() const
{
    if (!injector_)
        return {};
    std::vector<fault::FaultOutcome> out = injector_->outcomes();
    recovery_->fill(out);
    return out;
}

std::vector<std::pair<std::string, double>>
CharacterizationRun::resilienceCounters() const
{
    const stack::AutowareStack &s = *stack_;
    double lidar_only = 0.0, coasts = 0.0, reseeds = 0.0;
    double crash_discarded = 0.0;
    if (const auto *fusion = s.fusion())
        lidar_only = static_cast<double>(fusion->lidarOnlyCount());
    if (const auto *tracker = s.trackerNode())
        coasts = static_cast<double>(tracker->coastCount());
    if (const auto *ndt = s.ndt())
        reseeds = static_cast<double>(ndt->reseedCount());
    // The probe samples every run; the counter reports it only
    // where the degradation responses react to it.
    const double stale_events =
        config_.stack.degraded
            ? static_cast<double>(staleness_->staleEvents())
            : 0.0;
    for (const ros::Node *node : graph_->nodes()) {
        for (const auto &sub : node->subscriptions())
            crash_discarded += static_cast<double>(
                sub->stats().crashDiscarded);
    }
    return {{"fusion_lidar_only", lidar_only},
            {"tracker_coasts", coasts},
            {"ndt_reseeds", reseeds},
            {"watchdog_stale_events", stale_events},
            {"crash_discarded", crash_discarded}};
}

std::vector<stack::SafetyViolation>
CharacterizationRun::safetyViolations() const
{
    return safety_ ? safety_->violations()
                   : std::vector<stack::SafetyViolation>();
}

} // namespace av::prof
