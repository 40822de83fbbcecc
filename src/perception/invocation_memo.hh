/**
 * @file
 * InvocationMemo — one node's invocations, computed once per drive
 * and shared by every replay of it.
 *
 * A batch replays one recorded drive into many configurations
 * (detectors, queue depths, fault plans), and each replay runs the
 * detector-independent LiDAR front end again. What one invocation of
 * such a node computes is a pure function of two things:
 *
 *  - its input, named by an Input key that determines it: for a node
 *    fed (directly or through pure nodes) by one bag scan, the
 *    scan's `origins.lidar` stamp, since transport faults drop,
 *    delay, duplicate or corrupt-and-discard messages but never
 *    rewrite a payload; a node with more inputs folds them in (NDT's
 *    key adds the bits of its initial guess);
 *  - the node's NodeArchState before the call (the warm cache and
 *    branch predictor the probes drive). That state is a pure
 *    function of the node's calibration, which every stack shares,
 *    and of the node's whole input history.
 *
 * So the memo is a trie of input histories: an entry is keyed by its
 * parent entry (the history so far; Id 0 is a fresh node) and the
 * next input's key. It holds the node's Result (what the kernel
 * computed, with its InvocationCost) and the NodeArchState after the
 * call. A replay whose history reaches an entry adopts it instead of
 * running the kernel, and its results are byte-identical to
 * computing live. What depends on the replay stays live in the node:
 * the cost jitter, the CPU/GPU tasks and the publishes.
 *
 * Entries are produced once: the first replay to reach an absent
 * entry claims it and computes live; replays reaching it meanwhile
 * wait for it. A producer that throws erases its claim and wakes
 * the waiters, which then claim it themselves, so no waiter blocks
 * forever. Memory is bounded by a fixed entry budget: once it is
 * spent, a miss computes live, stores nothing, and its replay stops
 * consulting the memo (its history has left the trie).
 */

#ifndef AVSCOPE_PERCEPTION_INVOCATION_MEMO_HH
#define AVSCOPE_PERCEPTION_INVOCATION_MEMO_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "uarch/profiler.hh"

namespace av::perception {

/** A memo's budget per LiDAR scan of its drive (Runner::driveFor). */
inline constexpr std::size_t kMemoEntriesPerScan = 8;

/**
 * @tparam ResultT what one invocation computes (with its cost)
 * @tparam InputT  the key naming one invocation's input; ordered
 */
template <class ResultT, class InputT>
class InvocationMemo
{
  public:
    using Result = ResultT;
    using Input = InputT;

    /** An entry's place in the trie; kRoot is a fresh node. */
    using Id = std::uint64_t;
    static constexpr Id kRoot = 0;

    struct Entry
    {
        Result result;
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
    explicit InvocationMemo(std::size_t budget) : budget_(budget) {}

    InvocationMemo(const InvocationMemo &) = delete;
    InvocationMemo &operator=(const InvocationMemo &) = delete;

    /**
     * The invocation that follows history @p at on @p input: the
     * stored entry, or else @p live's, which runs the kernel on the
     * caller's own NodeArchState and returns the result with that
     * state. Blocks while another replay produces the same entry.
     * An exception from @p live propagates after the claim is
     * released.
     */
    Step step(Id at, const Input &input,
              const std::function<Entry()> &live);

    /** Entries stored or being produced. */
    std::size_t
    entries() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return slots_.size();
    }

    /** Invocations served from an entry another replay produced. */
    std::size_t
    hits() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hits_;
    }

    /**
     * One node's history in a memo, or none: a node holds a Cursor
     * and runs every invocation through invoke().
     */
    class Cursor
    {
      public:
        /** @param memo the drive's memo; null computes live */
        explicit Cursor(std::shared_ptr<InvocationMemo> memo)
            : memo_(std::move(memo))
        {}

        /**
         * The invocation on @p input: @p live's result, computed on
         * @p arch, or the memo's entry, whose state @p arch adopts.
         */
        template <class Live>
        std::shared_ptr<const Result>
        invoke(uarch::NodeArchState &arch, const Input &input,
               Live &&live)
        {
            if (!memo_)
                return std::make_shared<const Result>(live());
            const Step step = memo_->step(at_, input, [&] {
                Result result = live();
                return Entry{std::move(result), arch};
            });
            if (step.adopt)
                arch = step.entry->after;
            at_ = step.at;
            if (!step.stored)
                memo_.reset();
            // Aliasing: the result lives as long as its entry.
            return {step.entry, &step.entry->result};
        }

      private:
        /** Reset once the memo's budget is spent. */
        std::shared_ptr<InvocationMemo> memo_;
        Id at_ = kRoot; ///< our history
    };

  private:
    using Key = std::pair<Id, Input>;

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

template <class ResultT, class InputT>
typename InvocationMemo<ResultT, InputT>::Step
InvocationMemo<ResultT, InputT>::step(Id at, const Input &input,
                                      const std::function<Entry()> &live)
{
    const Key key{at, input};
    typename std::map<Key, Slot>::iterator slot;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        // A slot without an entry is in flight elsewhere; its
        // producer either stores the entry or erases the claim, and
        // both wake us.
        produced_.wait(lock, [&] {
            slot = slots_.find(key);
            return slot == slots_.end() || slot->second.entry;
        });
        if (slot != slots_.end()) {
            ++hits_;
            return {slot->second.entry, true, slot->second.id, true};
        }
        if (slots_.size() >= budget_) {
            lock.unlock();
            return {std::make_shared<const Entry>(live()), false,
                    kRoot, false};
        }
        slot = slots_.emplace(key, Slot{++lastId_, nullptr}).first;
    }
    // std::map iterators stay valid across other threads' inserts,
    // and only this claimant may erase the slot.
    std::shared_ptr<const Entry> entry;
    try {
        entry = std::make_shared<const Entry>(live());
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            slots_.erase(slot);
        }
        produced_.notify_all();
        throw;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        slot->second.entry = entry;
    }
    produced_.notify_all();
    return {entry, false, slot->second.id, true};
}

} // namespace av::perception

#endif // AVSCOPE_PERCEPTION_INVOCATION_MEMO_HH
