#include "uarch/cache.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace av::uarch {

double
CacheStats::readMissRate() const
{
    const std::uint64_t total = readHits + readMisses;
    return total ? static_cast<double>(readMisses) /
                       static_cast<double>(total)
                 : 0.0;
}

double
CacheStats::writeMissRate() const
{
    const std::uint64_t total = writeHits + writeMisses;
    return total ? static_cast<double>(writeMisses) /
                       static_cast<double>(total)
                 : 0.0;
}

CacheStats &
CacheStats::operator+=(const CacheStats &o)
{
    readHits += o.readHits;
    readMisses += o.readMisses;
    writeHits += o.writeHits;
    writeMisses += o.writeMisses;
    return *this;
}

CacheModel::CacheModel(const CacheConfig &config) : config_(config)
{
    AV_ASSERT(config_.lineBytes > 0 &&
                  std::has_single_bit(config_.lineBytes),
              "cache line size must be a power of two");
    AV_ASSERT(config_.assoc > 0, "cache associativity must be positive");
    const std::uint32_t lines = config_.sizeBytes / config_.lineBytes;
    AV_ASSERT(lines >= config_.assoc, "cache smaller than one set");
    numSets_ = lines / config_.assoc;
    AV_ASSERT(std::has_single_bit(numSets_),
              "number of cache sets must be a power of two");
    lineShift_ =
        static_cast<std::uint32_t>(std::countr_zero(config_.lineBytes));
    setShift_ =
        static_cast<std::uint32_t>(std::countr_zero(numSets_));
    const std::size_t ways =
        static_cast<std::size_t>(numSets_) * config_.assoc;
    tags_.assign(ways, 0);
    lastUse_.assign(ways, 0);
    mru_.assign(numSets_, 0);
}

void
CacheModel::fill(std::size_t base, std::uint64_t key)
{
    // Invalid ways hold clock 0 and valid clocks are unique, so the
    // last way with the minimal clock is the last invalid way, else
    // the least recently used one.
    std::size_t victim = base;
    std::uint64_t oldest = lastUse_[base];
    for (std::size_t w = base + 1; w < base + config_.assoc; ++w) {
        const std::uint64_t use = lastUse_[w];
        const bool older = use <= oldest;
        victim = older ? w : victim;
        oldest = older ? use : oldest;
    }
    tags_[victim] = key;
    lastUse_[victim] = ++useClock_;
}

void
CacheModel::reset()
{
    std::fill(tags_.begin(), tags_.end(), 0);
    std::fill(lastUse_.begin(), lastUse_.end(), 0);
    std::fill(mru_.begin(), mru_.end(), 0);
    stats_ = CacheStats();
    useClock_ = 0;
}

} // namespace av::uarch
