#include "core/run_result.hh"

#include <algorithm>

namespace av::prof {

namespace {

/** Retained samples per latency row. */
constexpr std::size_t kCapacity = 1u << 15;

/** The four paths in reporting order (= Path order). */
constexpr Path kPaths[] = {
    Path::Localization,
    Path::CostmapPoints,
    Path::CostmapVisionObj,
    Path::CostmapClusterObj,
};

double
secondsOf(const std::vector<std::pair<std::string, double>> &table,
          const std::string &owner)
{
    for (const auto &[name, seconds] : table)
        if (name == owner)
            return seconds;
    return 0.0;
}

} // namespace

const util::SampleSeries *
RunResult::findNodeSeries(const std::string &name) const
{
    for (const NamedSeries &node : nodes)
        if (node.name == name)
            return &node.series;
    return nullptr;
}

const util::SampleSeries *
RunResult::findPathSeries(Path path) const
{
    for (const NamedSeries &row : paths)
        if (row.name == pathName(path))
            return &row.series;
    return nullptr;
}

std::vector<NodeLatency>
RunResult::nodeLatencies() const
{
    std::vector<NodeLatency> out;
    out.reserve(nodes.size());
    for (const NamedSeries &node : nodes)
        out.push_back({node.name, node.series.summarize()});
    return out;
}

double
RunResult::worstCaseP99() const
{
    double worst = 0.0;
    for (const NamedSeries &row : paths)
        worst = std::max(worst, row.series.quantile(0.99));
    return worst;
}

double
RunResult::worstCaseMean() const
{
    double worst = 0.0;
    for (const NamedSeries &row : paths)
        worst = std::max(worst, row.series.running().mean());
    return worst;
}

double
RunResult::worstCaseMax() const
{
    double worst = 0.0;
    for (const NamedSeries &row : paths) {
        if (row.series.count() > 0)
            worst = std::max(worst, row.series.running().max());
    }
    return worst;
}

double
RunResult::cpuSecondsOf(const std::string &owner) const
{
    return secondsOf(cpuSecondsByOwner, owner);
}

double
RunResult::gpuSecondsOf(const std::string &owner) const
{
    return secondsOf(gpuSecondsByOwner, owner);
}

double
RunResult::resilienceOf(const std::string &name) const
{
    return secondsOf(resilience, name);
}

std::uint64_t
RunResult::violationsOf(stack::InvariantKind kind) const
{
    std::uint64_t n = 0;
    for (const stack::SafetyViolation &v : violations)
        n += v.kind == kind;
    return n;
}

std::vector<NamedSeries>
nodeSeries(const trace::Recorder &recorder,
           const std::vector<perception::PerceptionNode *> &nodes)
{
    namespace t = perception::topics;
    std::vector<NamedSeries> out;
    std::vector<std::pair<trace::Id, trace::Id>> rows; // node, trigger
    const auto add = [&](std::string name, trace::Id node,
                         trace::Id trigger) { // trigger 0 = any
        out.push_back({std::move(name), util::SampleSeries(kCapacity)});
        rows.emplace_back(node, trigger);
    };
    for (const perception::PerceptionNode *node : nodes) {
        const trace::Id id = recorder.find(node->name());
        if (node->name() == "costmap_generator") {
            add("costmap_generator_obj", id,
                recorder.find(t::predictedObjects));
            add("costmap_generator_points", id,
                recorder.find(t::pointsNoGround));
            continue;
        }
        add(node->name(), id, 0);
    }
    for (const trace::ActivationRecord &act : recorder.activations()) {
        if (!act.published)
            continue;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const auto [node, trigger] = rows[i];
            if (node == act.node && (trigger == 0 || trigger == act.topic)) {
                out[i].series.add(sim::ticksToMs(act.end - act.start));
                break;
            }
        }
    }
    return out;
}

std::vector<NamedSeries>
pathSeries(const trace::Recorder &recorder)
{
    std::vector<NamedSeries> out;
    for (const Path path : kPaths)
        out.push_back({pathName(path), util::SampleSeries(kCapacity)});
    const auto record = [&out](Path path, sim::Tick origin, sim::Tick now) {
        if (now >= origin)
            out[static_cast<std::size_t>(path)].series.add(
                sim::ticksToMs(now - origin));
    };
    namespace t = perception::topics;
    if (const auto *log = recorder.publishLog(t::ndtPose))
        for (const trace::PublishRecord &pub : *log)
            if (pub.originLidar)
                record(Path::Localization, pub.originLidar, pub.tick);
    if (const auto *log = recorder.publishLog(t::costmap)) {
        for (const trace::PublishRecord &pub : *log) {
            if (pub.originCamera) { // object layer (fused lineage)
                record(Path::CostmapVisionObj, pub.originCamera,
                       pub.tick);
                if (pub.originLidar)
                    record(Path::CostmapClusterObj, pub.originLidar,
                           pub.tick);
            } else if (pub.originLidar) { // points layer
                record(Path::CostmapPoints, pub.originLidar, pub.tick);
            }
        }
    }
    return out;
}

RunResult
snapshotRun(const CharacterizationRun &run, std::string label)
{
    RunResult out;
    out.label = std::move(label);

    // Copied, not moved: a copy keeps only the retained samples, not
    // each series' construction-time reserve, and results outlive runs.
    const auto nodes = nodeSeries(run.recorder(), run.stack().nodes());
    const auto paths = pathSeries(run.recorder());
    out.nodes.assign(nodes.begin(), nodes.end());
    out.paths.assign(paths.begin(), paths.end());

    out.drops = run.drops();
    out.counters = run.counters();

    const MachineMonitor &monitor = run.monitor();
    for (const auto &[owner, row] : monitor.rows())
        out.utilization.push_back(
            {owner, row.cpuShare, row.gpuShare});
    out.totalCpu = monitor.totalCpu();
    out.totalGpu = monitor.totalGpu();
    out.cpuWatts = monitor.cpuWatts();
    out.gpuWatts = monitor.gpuWatts();
    out.cpuEnergyJ = monitor.cpuEnergyJ();
    out.gpuEnergyJ = monitor.gpuEnergyJ();

    const auto &cpu_acct = run.machine().cpu().accounting();
    const auto &gpu_acct = run.machine().gpu().accounting();
    out.cpuSecondsByOwner.assign(
        cpu_acct.busySecondsByOwner.begin(),
        cpu_acct.busySecondsByOwner.end());
    out.gpuSecondsByOwner.assign(
        gpu_acct.activeSecondsByOwner.begin(),
        gpu_acct.activeSecondsByOwner.end());

    out.faults = run.faultOutcomes();
    for (const StalenessRow &row : run.staleness().rows())
        out.staleness.push_back({row.topic, row.ageMs});
    out.resilience = run.resilienceCounters();
    out.violations = run.safetyViolations();
    out.transport = run.graph().transportCounters();
    out.trace = run.traceSummary();
    return out;
}

} // namespace av::prof
