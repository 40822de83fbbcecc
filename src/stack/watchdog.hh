/**
 * @file
 * Stack watchdog: detects stale topics from header timestamps.
 *
 * A real AV safety monitor (Autoware's health checker, the paper's
 * deadline framing in §IV) watches for pipeline stages going silent.
 * The watchdog samples the publication age of the inter-node topics
 * (perception::topics::watched) every 100 ms, reading each topic's
 * newest header stamp from the run's trace::Recorder, and counts
 * *stale transitions* — a topic that was flowing and then stayed
 * silent for more than 500 ms. Degradation responses elsewhere in
 * the stack (LiDAR-only fusion, tracker coasting, NDT reseeding) are
 * the reactions; the watchdog is the detector and the metric source.
 * It is a pure observer: no ros::Node, no subscription, no simulated
 * cost.
 */

#ifndef AVSCOPE_STACK_WATCHDOG_HH
#define AVSCOPE_STACK_WATCHDOG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ros/ros.hh"
#include "sim/periodic.hh"

namespace av::stack {

/** Per-topic watchdog state (reporting view). */
struct WatchedTopic
{
    std::string topic;
    bool stale = false;             ///< currently beyond threshold
    std::uint64_t staleEvents = 0;  ///< fresh->stale transitions
};

/**
 * The watchdog. Construct after the stack so the watched topics
 * exist; topics absent from the graph (disabled subsystems) are
 * skipped. The graph must have its trace::Recorder attached.
 */
class StackWatchdog
{
  public:
    static constexpr sim::Tick kPeriod = 100 * sim::oneMs;
    static constexpr sim::Tick kStaleAfter = 500 * sim::oneMs;

    explicit StackWatchdog(ros::RosGraph &graph);

    void start() { task_.start(kPeriod); }

    /** Per-topic state, in perception::topics::watched order. */
    const std::vector<WatchedTopic> &watched() const
    {
        return watched_;
    }

    /** Total fresh->stale transitions across all topics. */
    std::uint64_t totalStaleEvents() const;

  private:
    void sample();

    sim::EventQueue &eq_;
    const trace::Recorder *recorder_;
    std::vector<WatchedTopic> watched_;
    sim::PeriodicTask task_;
};

} // namespace av::stack

#endif // AVSCOPE_STACK_WATCHDOG_HH
