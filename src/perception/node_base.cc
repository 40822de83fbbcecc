#include "perception/node_base.hh"

namespace av::perception {

PerceptionNode::PerceptionNode(ros::RosGraph &graph, std::string name,
                               const NodeConfig &config)
    : ros::Node(graph, std::move(name)),
      arch_(config.cache, config.branch, config.pipeline,
            config.tracePeriod),
      jitterRng_(util::stringHash(this->name()))
{
    arch_.setOpScale(config.workScale);
}

void
PerceptionNode::execute(Work work, std::function<void()> retire)
{
    const std::string_view owner =
        work.owner.empty() ? std::string_view(name()) : work.owner;
    hw::CpuTask first = makeCpuTask(work.cpu, owner);
    if (!work.gpu) {
        first.onComplete = std::move(retire);
        graph_.machine().cpu().submit(std::move(first));
        return;
    }
    // runPhases chains synchronously: the first slice is submitted
    // exactly where a lone CPU task would be.
    work.gpu->owner = owner;
    std::vector<hw::Phase> phases;
    phases.push_back(hw::Phase::makeCpu(std::move(first)));
    phases.push_back(hw::Phase::makeGpu(std::move(*work.gpu)));
    phases.push_back(hw::Phase::makeCpu(makeCpuTask(work.post, owner)));
    hw::runPhases(graph_.machine(), std::move(phases), std::move(retire));
}

hw::CpuTask
PerceptionNode::makeCpuTask(const uarch::InvocationCost &cost,
                            std::string_view owner)
{
    hw::CpuTask task;
    task.owner = owner;
    task.cycles = cost.cycles * costJitter();
    task.memBytesPerCycle =
        cost.cycles > 0.0 ? cost.dramBytes / cost.cycles : 0.0;
    // Sensitivity: the full L1-miss traffic (DRAM estimate divided
    // back by the L2 absorption factor).
    const double l2_factor =
        arch_.pipeline().config().l2MissFactor;
    task.l1BytesPerCycle =
        l2_factor > 0.0 ? task.memBytesPerCycle / l2_factor : 0.0;
    return task;
}

} // namespace av::perception
