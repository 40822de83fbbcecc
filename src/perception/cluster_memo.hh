/**
 * @file
 * ClusterMemo — euclidean_cluster's invocations, computed once per
 * drive and shared by every replay of it.
 *
 * A batch replays one recorded drive into many configurations
 * (detectors, queue depths, fault plans), and each replay runs the
 * detector-independent LiDAR clustering again. What one invocation
 * computes is a pure function of two things:
 *
 *  - the no-ground cloud it receives. ray_ground_filter is a pure
 *    function of the bag scan, and transport faults drop, delay,
 *    duplicate or corrupt-and-discard messages but never rewrite a
 *    payload, so the cloud is a pure function of the scan, named by
 *    its header's `origins.lidar` stamp;
 *  - the node's NodeArchState before the call (the warm cache and
 *    branch predictor the probes drive). That state is a pure
 *    function of the node's calibration, which every stack shares,
 *    and of the node's whole input history.
 *
 * So the memo is a trie of input histories: an entry is keyed by its
 * parent entry (the history so far; Id 0 is a fresh node) and the
 * next input's LiDAR stamp. It holds the vehicle-frame clusters, the
 * cropped point count, the InvocationCost and the NodeArchState
 * after the call. A replay whose history reaches an entry adopts it
 * instead of running the kernel, and its results are byte-identical
 * to computing live. What depends on the replay stays live in the
 * node: the ego transform, the cost jitter, the GPU job and the
 * publish.
 *
 * Entries are produced once: the first replay to reach an absent
 * entry claims it and computes live; replays reaching it meanwhile
 * wait for it. A producer that throws erases its claim and wakes
 * the waiters, which then claim it themselves, so no waiter blocks
 * forever. Memory is bounded by a fixed entry budget: once it is
 * spent, a miss computes live, stores nothing, and its replay stops
 * consulting the memo (its history has left the trie).
 */

#ifndef AVSCOPE_PERCEPTION_CLUSTER_MEMO_HH
#define AVSCOPE_PERCEPTION_CLUSTER_MEMO_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "perception/euclidean_cluster.hh"
#include "sim/ticks.hh"
#include "uarch/profiler.hh"

namespace av::perception {

/** What one euclidean_cluster invocation computes from its cloud. */
struct ClusterInvocation
{
    std::vector<Cluster> clusters; ///< vehicle frame
    std::size_t croppedPoints = 0; ///< sizes the GPU job
    uarch::InvocationCost cost;
};

class ClusterMemo
{
  public:
    /** An entry's place in the trie; kRoot is a fresh node. */
    using Id = std::uint64_t;
    static constexpr Id kRoot = 0;

    /** Budget per LiDAR scan of the drive (see Runner::driveFor). */
    static constexpr std::size_t kEntriesPerScan = 8;

    struct Entry
    {
        ClusterInvocation result;
        uarch::NodeArchState after; ///< the node's state after the call
    };

    /** One invocation's outcome, as step() hands it back. */
    struct Step
    {
        std::shared_ptr<const Entry> entry;
        /** Produced by another replay: the caller adopts
         *  entry->after. False when the caller computed it. */
        bool adopt = false;
        /** The caller's history now; meaningless unless stored. */
        Id at = kRoot;
        /** False once the budget is spent: the caller computed live,
         *  nothing was stored, and it must stop consulting the memo. */
        bool stored = true;
    };

    /** @param budget the most entries this memo ever holds */
    explicit ClusterMemo(std::size_t budget) : budget_(budget) {}

    ClusterMemo(const ClusterMemo &) = delete;
    ClusterMemo &operator=(const ClusterMemo &) = delete;

    /**
     * The invocation that follows history @p at on the scan stamped
     * @p lidar: the stored entry, or else @p live's, which runs the
     * kernel on the caller's own NodeArchState and returns the
     * result with that state. Blocks while another replay produces
     * the same entry. An exception from @p live propagates after
     * the claim is released.
     */
    Step step(Id at, sim::Tick lidar, const std::function<Entry()> &live);

    /** Entries stored or being produced. */
    std::size_t entries() const;

    /** Invocations served from an entry another replay produced. */
    std::size_t hits() const;

  private:
    using Key = std::pair<Id, sim::Tick>;

    struct Slot
    {
        Id id = kRoot;
        /** Null while its producer runs. */
        std::shared_ptr<const Entry> entry;
    };

    const std::size_t budget_;
    mutable std::mutex mutex_; ///< guards everything below
    std::condition_variable produced_;
    std::map<Key, Slot> slots_;
    Id lastId_ = kRoot;
    std::size_t hits_ = 0;
};

} // namespace av::perception

#endif // AVSCOPE_PERCEPTION_CLUSTER_MEMO_HH
