/**
 * @file
 * One-call orchestration of the paper's methodology (Fig. 3):
 * record a drive once (sensor bag + point-cloud map), then replay
 * it into an instrumented stack configuration and harvest every
 * measurement the paper reports.
 */

#ifndef AVSCOPE_CORE_CHARACTERIZATION_HH
#define AVSCOPE_CORE_CHARACTERIZATION_HH

#include <memory>
#include <string>
#include <vector>

#include "core/probes.hh"
#include "fault/fault.hh"
#include "ros/bag.hh"
#include "trace/dag.hh"
#include "stack/autoware_stack.hh"
#include "stack/safety.hh"
#include "world/map_builder.hh"
#include "world/recorder.hh"

namespace av::prof {

/**
 * The reproducible inputs: one recorded drive and its map. Shared
 * by every configuration under comparison — the ROSBAG-replay
 * methodology.
 */
struct DriveData
{
    world::ScenarioConfig scenarioConfig;
    /** Read-only once recorded: a replay's pending events refer to
     *  its messages (ros::Bag::replay). The experiment Runner fills
     *  only `map` while replays of the drive run. */
    ros::Bag bag;
    /** The ndt_mapping output. Only NDT reads it, so a replay with
     *  StackOptions::enableLocalization off never touches it and
     *  may run on a drive whose map is empty or still being built. */
    pc::PointCloud map;
    sim::Tick duration = 0;
    /** Operator-provided initial pose (Autoware's rviz "2D Pose
     *  Estimate"): the ego's ground-truth pose at t = 0. */
    geom::Pose2 initialPose;
    /** The LiDAR front end's invocations, one memo per node, shared
     *  by every replay of this drive (perception::InvocationMemo).
     *  Only the experiment Runner attaches them; a node whose memo
     *  is null computes live. The NDT memo holds alignments against
     *  `map`. */
    perception::FrontEndMemos memos;
};

/**
 * Record a drive's sensor bag, the input every replay needs. The
 * map is left empty; buildDriveMap() fills it.
 * @param scenario_cfg world knobs
 * @param duration     drive length
 */
std::shared_ptr<DriveData>
recordDriveBag(const world::ScenarioConfig &scenario_cfg,
               sim::Tick duration,
               const world::RecorderConfig &recorder =
                   world::RecorderConfig());

/**
 * The ndt_mapping pass (§III-A): one loop of the route on a quiet
 * street, the map NDT localizes against. A pure function of
 * @p scenario_cfg, independent of the bag.
 */
pc::PointCloud buildDriveMap(const world::ScenarioConfig &scenario_cfg);

/**
 * Record a drive and build its map: buildDriveMap() and
 * recordDriveBag() in one call.
 * @param scenario_cfg world knobs
 * @param duration     drive length
 */
std::shared_ptr<DriveData>
makeDrive(const world::ScenarioConfig &scenario_cfg,
          sim::Tick duration,
          const world::RecorderConfig &recorder =
              world::RecorderConfig());

/** One characterization run's configuration. Every field folds into
 *  exp::cacheKey(), which binds them all. */
struct RunConfig
{
    stack::StackOptions stack;
    hw::MachineConfig machine = stack::defaultMachine();
    ros::TransportConfig transport; ///< middleware transport cost
    /** Fault schedule to arm against this run; empty = clean replay. */
    fault::FaultPlan faults;

    /**
     * Retain the full trace event stream (publish/deliver hops,
     * activation spans, CPU tasks, GPU kernels) and attach the DAG
     * analysis to the result. The recorder's publish log is always
     * on regardless — this switches on the per-event retention.
     */
    bool trace = false;

    /**
     * Safety-invariant thresholds; SafetyOptions::enabled arms the
     * SafetyMonitor against this run (ground truth rebuilt from the
     * drive's ScenarioConfig).
     */
    stack::SafetyOptions safety;

    /**
     * Runtime subscription queue-depth overrides, applied before the
     * stack subscribes (the closed-loop optimizer's knob). Source
     * literals — and avgraph's static extraction of them — stay
     * intact.
     */
    std::vector<ros::QueueDepthOverride> queueDepths;
};

/** Per-node latency result. */
struct NodeLatency
{
    std::string name;
    util::DistributionSummary summary;
};

/**
 * A full instrumented replay.
 */
class CharacterizationRun
{
  public:
    /**
     * @throws std::invalid_argument when the stack localizes and
     *         @p drive has no map (NDT would never match).
     */
    CharacterizationRun(std::shared_ptr<const DriveData> drive,
                        const RunConfig &config = RunConfig());
    ~CharacterizationRun();

    /** Replay the bag to completion. */
    void execute();

    const stack::AutowareStack &stack() const { return *stack_; }
    /** The 1 Hz utilization and power sampler (Tables V, VI). */
    const MachineMonitor &monitor() const { return *monitor_; }
    const StalenessMonitor &staleness() const { return *staleness_; }

    /**
     * The run's single recording surface: the publish and
     * activation logs are always on (snapshotRun derives the node
     * and path latencies from them); the full event stream only
     * when RunConfig::trace is set.
     */
    const trace::Recorder &recorder() const { return recorder_; }

    /**
     * DAG analysis of the traced drive (critical path, per-node
     * slack, bottleneck classes). Summary::enabled is false when the
     * run was untraced.
     */
    trace::Summary traceSummary() const;

    /**
     * The machine / middleware under test. The mutable overloads
     * exist for pre-execute() customization (taps, fault injection);
     * every consumer of a *finished* run reads through the const
     * path, which is what lets the experiment Runner hand completed
     * runs out as const references.
     */
    const hw::Machine &machine() const { return *machine_; }
    hw::Machine &machine() { return *machine_; }
    const ros::RosGraph &graph() const { return *graph_; }
    ros::RosGraph &graph() { return *graph_; }

    const RunConfig &config() const { return config_; }

    std::vector<DropRow> drops() const;
    std::vector<CounterRow> counters() const;

    /**
     * Per-fault outcomes: transport counters from the injector
     * merged with the recovery probe's measurements. Empty for a
     * clean (fault-free) run.
     */
    std::vector<fault::FaultOutcome> faultOutcomes() const;

    /**
     * Degradation-response counters (LiDAR-only fusions, tracker
     * coasts, NDT reseeds, the staleness probe's stale events,
     * crash-discarded messages). Fixed schema; zeros when
     * degradation is off.
     */
    std::vector<std::pair<std::string, double>>
    resilienceCounters() const;

    /**
     * Safety-invariant violations recorded by the monitor, in
     * detection order. Empty when RunConfig::safety is disabled.
     */
    std::vector<stack::SafetyViolation> safetyViolations() const;

    /** The monitor itself; nullptr when safety is disabled. */
    const stack::SafetyMonitor *safety() const
    {
        return safety_.get();
    }

  private:
    /** Owned: the replay's events refer to the bag's messages
     *  (ros::Bag::replay), so the run keeps its drive alive for as
     *  long as execute() runs, whatever its caller drops. */
    std::shared_ptr<const DriveData> drive_;
    RunConfig config_;
    /** Declared before eq_: the machine and graph hold raw
     *  pointers to it and callbacks still pending in the queue may
     *  hold open spans, so it must be destroyed after all of them. */
    trace::Recorder recorder_;
    std::unique_ptr<sim::EventQueue> eq_;
    std::unique_ptr<hw::Machine> machine_;
    std::unique_ptr<ros::RosGraph> graph_;
    std::unique_ptr<stack::AutowareStack> stack_;
    std::unique_ptr<MachineMonitor> monitor_;
    std::unique_ptr<StalenessMonitor> staleness_;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::unique_ptr<RecoveryProbe> recovery_;
    /** Ground truth + monitor; only built when safety is enabled.
     *  Declared after stack_ (the monitor taps its topics). */
    std::unique_ptr<world::Scenario> safetyScenario_;
    std::unique_ptr<stack::SafetyMonitor> safety_;
    bool executed_ = false;
};

} // namespace av::prof

#endif // AVSCOPE_CORE_CHARACTERIZATION_HH
