/**
 * @file
 * Set-associative cache model.
 *
 * Stands in for the PAPI L1 counters of the paper's Table VII. Fed
 * with the (sampled) address streams that the instrumented perception
 * algorithms emit, it measures read/write miss rates that reflect the
 * algorithms' real data layouts: kd-tree chasing in
 * euclidean_cluster shows poor locality, the costmap's sequential
 * grid writes show almost none.
 */

#ifndef AVSCOPE_UARCH_CACHE_HH
#define AVSCOPE_UARCH_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hash.hh"

namespace av::uarch {

/** Geometry of one cache level. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t lineBytes = 64;
};

void
fields(auto &&ar, util::MaybeConst<CacheConfig> auto &c)
{
    auto &[sizeBytes, assoc, lineBytes] = c;
    ar(sizeBytes, assoc, lineBytes);
}

/** Hit/miss counters split by access type. */
struct CacheStats
{
    std::uint64_t readHits = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeHits = 0;
    std::uint64_t writeMisses = 0;

    double readMissRate() const;
    double writeMissRate() const;
    std::uint64_t accesses() const
    {
        return readHits + readMisses + writeHits + writeMisses;
    }
    std::uint64_t misses() const { return readMisses + writeMisses; }

    CacheStats &operator+=(const CacheStats &o);
};

/**
 * A single-level, write-allocate, LRU, set-associative cache.
 *
 * Every set is simulated. access() runs once per traced probe, so
 * the lookup lives in this header where it inlines into the
 * instrumented kernels' loops; only the replacement path (a miss)
 * calls out. DESIGN.md §17 gives the argument that the layout and
 * the per-set MRU shortcut below pick exactly the hits, misses and
 * victims of a textbook LRU with a global use clock.
 */
class CacheModel
{
  public:
    explicit CacheModel(const CacheConfig &config = CacheConfig());

    /**
     * Simulate one access covering [addr, addr + bytes). Accesses
     * spanning line boundaries touch every covered line.
     */
    void
    access(std::uintptr_t addr, std::uint32_t bytes, bool is_write)
    {
        const std::uint64_t first = addr >> lineShift_;
        const std::uint64_t last =
            (addr + (bytes ? bytes : 1) - 1) >> lineShift_;
        std::uint64_t &hits =
            is_write ? stats_.writeHits : stats_.readHits;
        std::uint64_t &misses =
            is_write ? stats_.writeMisses : stats_.readMisses;
        for (std::uint64_t line = first; line <= last; ++line) {
            const bool hit = touch(line);
            hits += hit;
            misses += !hit;
        }
    }

    /** Convenience wrappers. */
    void read(std::uintptr_t addr, std::uint32_t bytes)
    { access(addr, bytes, false); }
    void write(std::uintptr_t addr, std::uint32_t bytes)
    { access(addr, bytes, true); }

    /**
     * Credit @p n guaranteed hits without simulating them. Used by
     * instrumented algorithms for the register-adjacent / hot-stack
     * accesses that always hit, so traced miss *rates* stay
     * proportional to the real access population.
     */
    void
    creditHits(std::uint64_t n, bool is_write)
    {
        if (is_write)
            stats_.writeHits += n;
        else
            stats_.readHits += n;
    }

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }

    /** Drop all cached lines and zero the statistics. */
    void reset();

    /** Zero the statistics, keep cache contents warm. */
    void resetStats() { stats_ = CacheStats(); }

  private:
    CacheConfig config_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_;
    std::uint32_t setShift_;
    /**
     * Per way, set-major (numSets_ * assoc): the line's tag + 1 and
     * the use-clock value of its last touch. 0 in either marks an
     * invalid way; a valid way's clock is unique and >= 1.
     */
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> lastUse_;
    /**
     * Per set, tag + 1 of the line it touched last (0 = none). That
     * line is resident and already holds the set's newest clock, so
     * touching it again is a hit that changes no LRU order.
     */
    std::vector<std::uint64_t> mru_;
    CacheStats stats_;
    std::uint64_t useClock_ = 0;

    static constexpr std::size_t noWay = ~std::size_t{0};

    /** Look up @p line, allocating it on a miss; true on a hit. */
    bool
    touch(std::uint64_t line)
    {
        const std::size_t set = line & (numSets_ - 1);
        const std::uint64_t key = (line >> setShift_) + 1;
        if (mru_[set] == key)
            return true;
        mru_[set] = key;
        // At most one way holds key. Scanning every way without an
        // early exit costs less than the mispredicted jump out of the
        // loop that a hit in a data-dependent way would take.
        const std::size_t base = set * config_.assoc;
        std::size_t way = noWay;
        for (std::size_t w = base; w < base + config_.assoc; ++w)
            way = tags_[w] == key ? w : way;
        if (way == noWay) {
            fill(base, key);
            return false;
        }
        lastUse_[way] = ++useClock_;
        return true;
    }

    /** Miss: replace the set's LRU way (an invalid one first). */
    void fill(std::size_t base, std::uint64_t key);
};

} // namespace av::uarch

#endif // AVSCOPE_UARCH_CACHE_HH
