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

hw::CpuTask
PerceptionNode::makeCpuTask(const uarch::InvocationCost &cost,
                            std::function<void()> on_complete)
{
    hw::CpuTask task;
    task.owner = name();
    task.cycles = cost.cycles * costJitter();
    task.memBytesPerCycle =
        cost.cycles > 0.0 ? cost.dramBytes / cost.cycles : 0.0;
    // Sensitivity: the full L1-miss traffic (DRAM estimate divided
    // back by the L2 absorption factor).
    const double l2_factor =
        arch_.pipeline().config().l2MissFactor;
    task.l1BytesPerCycle =
        l2_factor > 0.0 ? task.memBytesPerCycle / l2_factor : 0.0;
    task.onComplete = std::move(on_complete);
    return task;
}

void
PerceptionNode::runOnCpu(const uarch::InvocationCost &cost,
                         std::function<void()> then)
{
    machine().cpu().submit(makeCpuTask(cost, std::move(then)));
}

} // namespace av::perception
