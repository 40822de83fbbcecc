/**
 * @file
 * Differential tests of the µarch probe simulators against their
 * straightforward reference implementations.
 *
 * ReferenceCacheModel and ReferenceGshare are the textbook models the
 * library's CacheModel and GsharePredictor must reproduce exactly: an
 * array of {tag, lastUse, valid} lines with a global use clock that
 * ticks on every line touch, and an out-of-line gshare update. Seeded
 * random streams mixing strides, scattered and repeated lines,
 * line-straddling accesses, writes and interleaved reset() /
 * resetStats() calls drive both sides, and every counter must agree
 * after every single access — so every hit, miss, replacement and
 * prediction is the same, not just the totals.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <vector>

#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "util/random.hh"

namespace {

using namespace av::uarch;

/** Single-level, write-allocate, LRU, set-associative reference. */
class ReferenceCacheModel
{
  public:
    explicit ReferenceCacheModel(const CacheConfig &config)
        : config_(config),
          numSets_(config.sizeBytes / config.lineBytes / config.assoc),
          lineShift_(static_cast<std::uint32_t>(
              std::countr_zero(config.lineBytes))),
          lines_(static_cast<std::size_t>(numSets_) * config.assoc)
    {
    }

    void
    access(std::uintptr_t addr, std::uint32_t bytes, bool is_write)
    {
        if (bytes == 0)
            bytes = 1;
        const std::uint64_t first = addr >> lineShift_;
        const std::uint64_t last = (addr + bytes - 1) >> lineShift_;
        for (std::uint64_t line = first; line <= last; ++line) {
            const bool hit = lookupInsert(line);
            if (is_write) {
                hit ? ++stats_.writeHits : ++stats_.writeMisses;
            } else {
                hit ? ++stats_.readHits : ++stats_.readMisses;
            }
        }
    }

    void
    creditHits(std::uint64_t n, bool is_write)
    {
        if (is_write)
            stats_.writeHits += n;
        else
            stats_.readHits += n;
    }

    const CacheStats &stats() const { return stats_; }

    void
    reset()
    {
        for (auto &line : lines_)
            line.valid = false;
        stats_ = CacheStats();
        useClock_ = 0;
    }

    void resetStats() { stats_ = CacheStats(); }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    CacheConfig config_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_;
    std::vector<Line> lines_;
    CacheStats stats_;
    std::uint64_t useClock_ = 0;

    bool
    lookupInsert(std::uint64_t line_addr)
    {
        const std::uint32_t set =
            static_cast<std::uint32_t>(line_addr & (numSets_ - 1));
        const std::uint64_t tag = line_addr >> std::countr_zero(numSets_);
        Line *base = &lines_[static_cast<std::size_t>(set) * config_.assoc];
        ++useClock_;

        Line *victim = base;
        for (std::uint32_t w = 0; w < config_.assoc; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == tag) {
                line.lastUse = useClock_;
                return true;
            }
            if (!line.valid) {
                victim = &line;
            } else if (victim->valid && line.lastUse < victim->lastUse) {
                victim = &line;
            }
        }
        victim->valid = true;
        victim->tag = tag;
        victim->lastUse = useClock_;
        return false;
    }
};

/** Gshare reference: history XOR folded site indexes 2-bit counters. */
class ReferenceGshare
{
  public:
    explicit ReferenceGshare(const BranchConfig &config)
        : table_(std::size_t(1) << config.tableBits, 1),
          historyMask_(config.historyBits >= 32
                           ? ~0u
                           : ((1u << config.historyBits) - 1)),
          tableMask_((1u << config.tableBits) - 1)
    {
    }

    bool
    record(std::uint64_t site, bool taken)
    {
        const std::uint32_t folded =
            static_cast<std::uint32_t>(site ^ (site >> 17) ^ (site >> 31));
        const std::uint32_t index = (folded ^ history_) & tableMask_;
        std::uint8_t &counter = table_[index];
        const bool prediction = counter >= 2;
        const bool correct = prediction == taken;

        if (taken && counter < 3)
            ++counter;
        else if (!taken && counter > 0)
            --counter;
        history_ = ((history_ << 1) | (taken ? 1u : 0u)) & historyMask_;

        correct ? ++stats_.predicted : ++stats_.mispredicted;
        return correct;
    }

    void
    recordBulkPredictable(std::uint64_t count, double accuracy = 0.999)
    {
        const double expected_miss =
            static_cast<double>(count) * (1.0 - accuracy) + bulkResidual_;
        const std::uint64_t misses =
            static_cast<std::uint64_t>(expected_miss);
        bulkResidual_ = expected_miss - static_cast<double>(misses);
        stats_.mispredicted += misses;
        stats_.predicted += count - misses;
    }

    const BranchStats &stats() const { return stats_; }

    void
    reset()
    {
        table_.assign(table_.size(), 1);
        history_ = 0;
        stats_ = BranchStats();
        bulkResidual_ = 0.0;
    }

    void resetStats() { stats_ = BranchStats(); }

  private:
    std::vector<std::uint8_t> table_;
    std::uint32_t history_ = 0;
    std::uint32_t historyMask_;
    std::uint32_t tableMask_;
    BranchStats stats_;
    double bulkResidual_ = 0.0;
};

::testing::AssertionResult
sameStats(const CacheStats &a, const CacheStats &b)
{
    if (a.readHits == b.readHits && a.readMisses == b.readMisses &&
        a.writeHits == b.writeHits && a.writeMisses == b.writeMisses)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "rd " << a.readHits << '/' << a.readMisses << " vs "
           << b.readHits << '/' << b.readMisses << ", wr "
           << a.writeHits << '/' << a.writeMisses << " vs "
           << b.writeHits << '/' << b.writeMisses;
}

/** One seeded mixed access stream over a cache geometry. */
void
runCacheStream(const CacheConfig &config, std::uint64_t seed,
               int accesses)
{
    CacheModel model(config);
    ReferenceCacheModel ref(config);
    av::util::Rng rng(seed);

    const std::uint64_t line = config.lineBytes;
    const std::uint64_t span = 4 * std::uint64_t{config.sizeBytes};
    std::deque<std::uintptr_t> recent{0};
    std::uintptr_t cursor = 0;
    std::uintptr_t stride = 8;

    for (int i = 0; i < accesses; ++i) {
        std::uintptr_t addr = 0;
        std::uint32_t bytes = 8;
        switch (rng.uniformInt(0, 9)) {
          case 0: // new strided run
            cursor = static_cast<std::uintptr_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(span)));
            stride = std::uintptr_t{1}
                     << rng.uniformInt(0, 9); // 1 B .. 512 B
            [[fallthrough]];
          case 1:
          case 2:
          case 3: // continue the strided run
            cursor += stride;
            addr = cursor;
            bytes = static_cast<std::uint32_t>(
                std::min<std::uintptr_t>(stride, 16));
            break;
          case 4:
          case 5: // scattered over the working set
            addr = static_cast<std::uintptr_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(span)));
            break;
          case 6:
          case 7: // repeat a recently touched address
            addr = recent[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(recent.size()) - 1))];
            bytes = static_cast<std::uint32_t>(rng.uniformInt(0, 8));
            break;
          case 8: // straddle one or more line boundaries
            addr = static_cast<std::uintptr_t>(
                       rng.uniformInt(0, static_cast<std::int64_t>(
                                             span / line))) *
                       line +
                   line - static_cast<std::uintptr_t>(
                              rng.uniformInt(1, 8));
            bytes = static_cast<std::uint32_t>(
                rng.uniformInt(2, static_cast<std::int64_t>(3 * line)));
            break;
          default: // same set, other tags: conflict misses
            addr = recent.back() +
                   static_cast<std::uintptr_t>(rng.uniformInt(1, 3)) *
                       (config.sizeBytes / config.assoc);
            break;
        }
        const bool is_write = rng.bernoulli(0.3);
        model.access(addr, bytes, is_write);
        ref.access(addr, bytes, is_write);

        recent.push_back(addr);
        if (recent.size() > 24)
            recent.pop_front();

        const std::int64_t event = rng.uniformInt(0, 999);
        if (event == 0) {
            model.reset();
            ref.reset();
        } else if (event < 4) {
            model.resetStats();
            ref.resetStats();
        } else if (event < 12) {
            const auto n = static_cast<std::uint64_t>(
                rng.uniformInt(1, 64));
            model.creditHits(n, is_write);
            ref.creditHits(n, is_write);
        }
        ASSERT_TRUE(sameStats(model.stats(), ref.stats()))
            << "diverged at access " << i << " (addr " << addr
            << ", " << bytes << " B)";
    }
}

/** (size bytes, assoc, line bytes). */
class CacheOracleTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>>
{};

TEST_P(CacheOracleTest, MatchesReferenceOnEveryAccess)
{
    const auto [size, assoc, line] = GetParam();
    const CacheConfig config{size, assoc, line};
    for (std::uint64_t seed = 1; seed <= 3 && !HasFatalFailure(); ++seed)
        runCacheStream(config, seed * 7919 + size + assoc + line,
                       20000);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOracleTest,
    ::testing::Combine(::testing::Values(1024u, 32u * 1024u),
                       ::testing::Values(1u, 2u, 4u, 8u, 16u),
                       ::testing::Values(32u, 64u)));

TEST(GshareOracle, MatchesReferenceOnEveryBranch)
{
    const BranchConfig configs[] = {
        {4, 0}, {4, 4}, {8, 12}, {12, 12}, {12, 32}, {16, 20}};
    for (const BranchConfig &config : configs) {
        GsharePredictor model(config);
        ReferenceGshare ref(config);
        av::util::Rng rng(config.tableBits * 131 + config.historyBits);
        const std::uint64_t sites[] = {0x1, 0x42, 0xdeadbeefcafe,
                                       0x8000000000000001ull, 0x777};
        for (int i = 0; i < 40000; ++i) {
            const std::uint64_t site = sites[rng.uniformInt(0, 4)];
            // Mix of biased, alternating and random outcomes.
            bool taken = false;
            switch (site & 3u) {
              case 0:
                taken = i % 2 == 0;
                break;
              case 1:
                taken = rng.bernoulli(0.9);
                break;
              default:
                taken = rng.bernoulli(0.5);
                break;
            }
            ASSERT_EQ(model.record(site, taken), ref.record(site, taken))
                << "prediction diverged at branch " << i;

            const std::int64_t event = rng.uniformInt(0, 999);
            if (event == 0) {
                model.reset();
                ref.reset();
            } else if (event < 4) {
                model.resetStats();
                ref.resetStats();
            } else if (event < 12) {
                const auto n = static_cast<std::uint64_t>(
                    rng.uniformInt(1, 5000));
                model.recordBulkPredictable(n);
                ref.recordBulkPredictable(n);
            }
            ASSERT_EQ(model.stats().predicted, ref.stats().predicted);
            ASSERT_EQ(model.stats().mispredicted,
                      ref.stats().mispredicted);
        }
    }
}

} // namespace
