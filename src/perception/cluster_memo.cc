#include "perception/cluster_memo.hh"

namespace av::perception {

ClusterMemo::Step
ClusterMemo::step(Id at, sim::Tick lidar,
                  const std::function<Entry()> &live)
{
    const Key key{at, lidar};
    std::map<Key, Slot>::iterator slot;
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

std::size_t
ClusterMemo::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
}

std::size_t
ClusterMemo::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

} // namespace av::perception
