// A measurement probe growing a private recording path.
#include "ros/ros.hh"

void
watch(av::ros::RosGraph &graph, int &count)
{
    graph.topic<int>("/a").addTap([&](const auto &) { ++count; });
}
