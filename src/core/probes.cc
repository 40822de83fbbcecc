#include "core/probes.hh"

namespace av::prof {

namespace {

/** @p owner's value in a previous sample; 0 before it first ran. */
double
previous(const std::map<std::string, double> &last,
         const std::string &owner)
{
    const auto it = last.find(owner);
    return it == last.end() ? 0.0 : it->second;
}

} // namespace

MachineMonitor::MachineMonitor(sim::EventQueue &eq, hw::Machine &machine)
    : machine_(machine),
      task_(eq, kPeriod, [this](std::uint64_t) { sample(); })
{
}

void
MachineMonitor::sample()
{
    const double window = sim::ticksToSeconds(kPeriod);
    const hw::CpuAccounting &cpu = machine_.cpu().accounting();
    const hw::GpuAccounting &gpu = machine_.gpu().accounting();
    const double cores =
        static_cast<double>(machine_.cpu().config().cores);

    const double busy_delta =
        cpu.busyCoreSeconds - lastCpu_.busyCoreSeconds;
    totalCpu_.add(busy_delta / (window * cores));
    const double kernel_delta =
        gpu.kernelActiveSeconds - lastGpu_.kernelActiveSeconds;
    totalGpu_.add(kernel_delta / window);

    // Per-owner CPU share of the whole processor.
    for (const auto &[owner, seconds] : cpu.busySecondsByOwner) {
        const double delta =
            seconds - previous(lastCpu_.busySecondsByOwner, owner);
        rows_[owner].cpuShare.add(delta / (window * cores));
    }
    // Per-owner GPU residency (nvidia-smi pmon style).
    for (const auto &[owner, seconds] : gpu.residentSecondsByOwner) {
        const double delta =
            seconds - previous(lastGpu_.residentSecondsByOwner, owner);
        rows_[owner].gpuShare.add(delta / window);
    }

    // Power over the same window's utilization integrals.
    const double dram_delta = cpu.dramBytes - lastCpu_.dramBytes;
    const double weighted_delta =
        gpu.weightedActiveSeconds - lastGpu_.weightedActiveSeconds;
    const double copy_delta =
        gpu.copyActiveSeconds - lastGpu_.copyActiveSeconds;
    const double cpu_watts = machine_.power().cpuPower(
        busy_delta / window, dram_delta / window * 1e-9);
    const double gpu_watts = machine_.power().gpuPower(
        weighted_delta / window, copy_delta / window);
    cpuW_.add(cpu_watts);
    gpuW_.add(gpu_watts);
    cpuJ_ += cpu_watts * window;
    gpuJ_ += gpu_watts * window;

    lastCpu_ = cpu;
    lastGpu_ = gpu;
}

const char *
pathName(Path path)
{
    switch (path) {
      case Path::Localization: return "localization";
      case Path::CostmapPoints: return "costmap_points";
      case Path::CostmapVisionObj: return "costmap_vision_obj";
      case Path::CostmapClusterObj: return "costmap_cluster_obj";
    }
    return "?";
}

std::vector<DropRow>
collectDrops(const ros::RosGraph &graph)
{
    std::vector<DropRow> out;
    for (const ros::Node *node : graph.nodes()) {
        for (const auto &sub : node->subscriptions()) {
            DropRow row;
            row.topic = sub->topicName();
            row.node = node->name();
            row.delivered = sub->stats().delivered;
            row.dropped = sub->stats().dropped;
            out.push_back(std::move(row));
        }
    }
    return out;
}

StalenessMonitor::StalenessMonitor(ros::RosGraph &graph,
                                   const trace::Recorder &recorder)
    : eq_(graph.eventQueue()), recorder_(recorder),
      task_(graph.eventQueue(), kPeriod,
            [this](std::uint64_t) { sample(); })
{
    for (const char *name : perception::topics::watched)
        if (graph.findTopic(name)) // absent: no row, not "stale"
            rows_.emplace_back(name);
}

void
StalenessMonitor::sample()
{
    const sim::Tick now = eq_.now();
    for (StalenessRow &row : rows_) {
        const trace::PublishRecord *last =
            recorder_.lastPublish(row.topic);
        if (!last)
            continue; // silence before first publication ≠ outage
        const sim::Tick age = now - last->stamp;
        row.ageMs.add(sim::ticksToMs(age));
        const bool stale_now = age > kStaleAfter;
        if (stale_now && !row.stale)
            ++row.staleEvents;
        row.stale = stale_now;
    }
}

std::uint64_t
StalenessMonitor::staleEvents() const
{
    std::uint64_t total = 0;
    for (const StalenessRow &row : rows_)
        total += row.staleEvents;
    return total;
}

RecoveryProbe::RecoveryProbe(const trace::Recorder &recorder,
                             const fault::FaultPlan &plan)
    : recorder_(recorder)
{
    for (const fault::FaultSpec &spec : plan.faults) {
        Record rec;
        rec.watchTopic = spec.watchTopic.empty()
                             ? fault::defaultWatchTopic(spec)
                             : spec.watchTopic;
        rec.onset = spec.start;
        rec.windowEnd = fault::faultWindowEnd(spec);
        windows_.push_back(std::move(rec));
    }
}

std::vector<RecoveryProbe::Record>
RecoveryProbe::records() const
{
    std::vector<Record> out = windows_;
    for (Record &rec : out) {
        const std::vector<trace::PublishRecord> *log =
            recorder_.publishLog(rec.watchTopic);
        if (!log)
            continue; // never published: recoveryMs stays -1
        for (const trace::PublishRecord &pub : *log) {
            if (pub.stamp >= rec.onset &&
                pub.stamp < rec.windowEnd)
                ++rec.publishedDuringWindow;
            if (pub.stamp >= rec.windowEnd && rec.recoveryMs < 0.0)
                rec.recoveryMs =
                    sim::ticksToMs(pub.stamp - rec.onset);
        }
    }
    return out;
}

void
RecoveryProbe::fill(std::vector<fault::FaultOutcome> &outcomes) const
{
    const std::vector<Record> recs = records();
    AV_ASSERT(outcomes.size() == recs.size(),
              "recovery probe / injector plan mismatch");
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        outcomes[i].publishedDuringWindow =
            recs[i].publishedDuringWindow;
        outcomes[i].recoveryMs = recs[i].recoveryMs;
    }
}

std::vector<CounterRow>
collectCounters(
    const std::vector<perception::PerceptionNode *> &nodes)
{
    std::vector<CounterRow> out;
    for (const perception::PerceptionNode *node : nodes) {
        CounterRow row;
        row.node = node->name();
        row.ipc = node->arch().lifetimeIpc();
        row.l1ReadMissRate = node->arch().cacheStats().readMissRate();
        row.l1WriteMissRate =
            node->arch().cacheStats().writeMissRate();
        row.branchMissRate = node->arch().branchStats().missRate();
        row.mix = node->arch().totalOps();
        out.push_back(std::move(row));
    }
    return out;
}

} // namespace av::prof
