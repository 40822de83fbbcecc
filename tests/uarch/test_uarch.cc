/**
 * @file
 * Unit tests for the µarch models: op counting, cache behaviour,
 * branch prediction, pipeline CPI, profiler lifecycle.
 */

#include <gtest/gtest.h>

#include <vector>

#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/opcounts.hh"
#include "uarch/pipeline.hh"
#include "uarch/profiler.hh"
#include "util/random.hh"

namespace {

using namespace av::uarch;

TEST(OpCounts, TotalsAndFractions)
{
    OpCounts ops;
    ops.loads = 30;
    ops.stores = 20;
    ops.branches = 10;
    ops.intAlu = 25;
    ops.fpAlu = 15;
    EXPECT_EQ(ops.total(), 100u);
    EXPECT_DOUBLE_EQ(ops.memFraction(), 0.5);
}

TEST(OpCounts, AddAndScale)
{
    OpCounts a;
    a.loads = 1;
    a.fpDiv = 2;
    OpCounts b;
    b.loads = 3;
    b.simd = 4;
    const OpCounts c = a + b;
    EXPECT_EQ(c.loads, 4u);
    EXPECT_EQ(c.fpDiv, 2u);
    EXPECT_EQ(c.simd, 4u);
    const OpCounts s = c.scaled(10);
    EXPECT_EQ(s.loads, 40u);
    EXPECT_EQ(s.total(), c.total() * 10);
}

TEST(OpCounts, MixStringEmptyAndNonempty)
{
    EXPECT_EQ(OpCounts().mixString(), "(empty)");
    OpCounts ops;
    ops.loads = 50;
    ops.stores = 50;
    EXPECT_NE(ops.mixString().find("ld 50%"), std::string::npos);
}

TEST(Cache, SequentialStreamMissesOncePerLine)
{
    CacheModel cache(CacheConfig{32 * 1024, 8, 64});
    // 4 KiB sequential read at 8-byte strides: 64 lines, each missed
    // exactly once then hit 7 times.
    for (std::uintptr_t addr = 0; addr < 4096; addr += 8)
        cache.read(addr, 8);
    EXPECT_EQ(cache.stats().readMisses, 64u);
    EXPECT_EQ(cache.stats().readHits, 448u);
}

TEST(Cache, WorkingSetFitsThenThrashes)
{
    CacheModel cache(CacheConfig{32 * 1024, 8, 64});
    // Pass 1 warms 16 KiB; pass 2 over the same set hits fully.
    for (int pass = 0; pass < 2; ++pass)
        for (std::uintptr_t addr = 0; addr < 16 * 1024; addr += 64)
            cache.read(addr, 4);
    EXPECT_EQ(cache.stats().readMisses, 256u);
    EXPECT_EQ(cache.stats().readHits, 256u);

    // A 1 MiB streaming sweep: the 16 KiB (256 lines) still resident
    // from above hit, the rest miss; everything resident gets
    // evicted, so re-touching the 16 KiB misses all 256 lines.
    cache.resetStats();
    for (std::uintptr_t addr = 0; addr < (1u << 20); addr += 64)
        cache.read(addr, 4);
    for (std::uintptr_t addr = 0; addr < 16 * 1024; addr += 64)
        cache.read(addr, 4);
    EXPECT_EQ(cache.stats().readMisses, (16384u - 256u) + 256u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // Direct test on one set: 2-way cache, 64 B lines, 2 sets.
    CacheModel cache(CacheConfig{256, 2, 64});
    // Three lines mapping to set 0 (stride = numSets * line = 128).
    cache.read(0, 4);    // miss, way 0
    cache.read(256, 4);  // miss, way 1
    cache.read(0, 4);    // hit (refreshes line 0)
    cache.read(512, 4);  // miss, evicts 256 (LRU)
    cache.read(0, 4);    // hit
    cache.read(256, 4);  // miss again
    EXPECT_EQ(cache.stats().readMisses, 4u);
    EXPECT_EQ(cache.stats().readHits, 2u);
}

TEST(Cache, WriteMissesTrackedSeparately)
{
    CacheModel cache;
    cache.write(0, 8);
    cache.write(0, 8);
    cache.read(0, 8);
    EXPECT_EQ(cache.stats().writeMisses, 1u);
    EXPECT_EQ(cache.stats().writeHits, 1u);
    EXPECT_EQ(cache.stats().readHits, 1u);
    EXPECT_DOUBLE_EQ(cache.stats().writeMissRate(), 0.5);
}

TEST(Cache, StraddlingAccessTouchesTwoLines)
{
    CacheModel cache;
    cache.read(60, 8); // crosses the 64 B boundary
    EXPECT_EQ(cache.stats().readMisses, 2u);
}

TEST(Cache, ResetClearsContents)
{
    CacheModel cache;
    cache.read(0, 4);
    cache.reset();
    EXPECT_EQ(cache.stats().accesses(), 0u);
    cache.read(0, 4);
    EXPECT_EQ(cache.stats().readMisses, 1u);
}

TEST(Branch, LearnsStablePattern)
{
    GsharePredictor bp;
    // Always-taken branch: cold counters mispredict once per new
    // history state during warmup, then never again.
    for (int i = 0; i < 10000; ++i)
        bp.record(0x1234, true);
    EXPECT_LT(bp.stats().missRate(), 0.005);
}

TEST(Branch, LearnsAlternatingPatternViaHistory)
{
    GsharePredictor bp;
    // T/NT alternation is perfectly predictable with history.
    for (int i = 0; i < 4000; ++i)
        bp.record(0x777, i % 2 == 0);
    EXPECT_LT(bp.stats().missRate(), 0.05);
}

TEST(Branch, RandomOutcomesNearHalfMissRate)
{
    GsharePredictor bp;
    av::util::Rng rng(17);
    for (int i = 0; i < 20000; ++i)
        bp.record(0x42, rng.bernoulli(0.5));
    EXPECT_NEAR(bp.stats().missRate(), 0.5, 0.05);
}

TEST(Branch, BiasedOutcomesLowMissRate)
{
    GsharePredictor bp;
    av::util::Rng rng(18);
    for (int i = 0; i < 20000; ++i)
        bp.record(0x42, rng.bernoulli(0.95));
    EXPECT_LT(bp.stats().missRate(), 0.12);
}

TEST(Branch, BulkPredictableDilutes)
{
    GsharePredictor bp;
    av::util::Rng rng(19);
    for (int i = 0; i < 1000; ++i)
        bp.record(0x1, rng.bernoulli(0.5)); // ~50% misses
    const double before = bp.stats().missRate();
    bp.recordBulkPredictable(100000);
    EXPECT_LT(bp.stats().missRate(), before / 10.0);
    EXPECT_EQ(bp.stats().total(), 101000u);
}

TEST(Pipeline, ComputeBoundKernelNearPeak)
{
    PipelineModel pipe;
    OpCounts ops;
    ops.intAlu = 80;
    ops.fpAlu = 15;
    ops.branches = 5;
    const double cpi = pipe.cpi(ops, 0.0, 0.0, 0.0);
    EXPECT_NEAR(cpi, 1.0 / pipe.config().peakIpc, 0.05);
}

TEST(Pipeline, MissesAndMispredictsStall)
{
    PipelineModel pipe;
    OpCounts ops;
    ops.loads = 35;
    ops.stores = 15;
    ops.branches = 15;
    ops.intAlu = 20;
    ops.fpAlu = 15;
    const double clean = pipe.cpi(ops, 0.0, 0.0, 0.0);
    const double missy = pipe.cpi(ops, 0.05, 0.05, 0.0);
    const double branchy = pipe.cpi(ops, 0.0, 0.0, 0.10);
    EXPECT_GT(missy, clean);
    EXPECT_GT(branchy, clean);
    // Monotone in miss rate.
    EXPECT_GT(pipe.cpi(ops, 0.10, 0.05, 0.0), missy);
}

TEST(Pipeline, DivHeavyKernelsSerialize)
{
    PipelineModel pipe;
    OpCounts light;
    light.fpAlu = 100;
    OpCounts divy = light;
    divy.fpDiv = 3;
    EXPECT_GT(pipe.cpi(divy, 0, 0, 0), pipe.cpi(light, 0, 0, 0));
}

TEST(Pipeline, CyclesScaleWithInstructions)
{
    PipelineModel pipe;
    OpCounts ops;
    ops.intAlu = 1000;
    const double c1 = pipe.cycles(ops, 0, 0, 0);
    const double c2 = pipe.cycles(ops.scaled(10), 0, 0, 0);
    EXPECT_NEAR(c2, 10.0 * c1, 1e-6);
}

TEST(Profiler, DetachedIsNoop)
{
    KernelProfiler prof;
    EXPECT_FALSE(prof.attached());
    EXPECT_FALSE(prof.tracing());
    OpCounts ops;
    ops.loads = 5;
    prof.addOps(ops); // must not crash
    prof.load(1, 0, sizeof(int));
    prof.branch(1, true);
}

TEST(Profiler, InvocationCostReflectsWork)
{
    NodeArchState state;
    state.beginInvocation();
    KernelProfiler prof(&state);
    EXPECT_TRUE(prof.tracing()); // first invocation always traced
    OpCounts ops;
    ops.loads = 400;
    ops.intAlu = 600;
    prof.addOps(ops);
    for (std::size_t i = 0; i < 1000; ++i)
        prof.load(1, i * sizeof(int), sizeof(int));
    const InvocationCost cost = state.endInvocation();
    EXPECT_EQ(cost.ops.total(), 1000u);
    EXPECT_GT(cost.cycles, 0.0);
    EXPECT_GT(state.cacheStats().accesses(), 0u);
}

TEST(Profiler, TracePeriodSkipsTracing)
{
    NodeArchState state(CacheConfig(), BranchConfig(),
                        PipelineConfig(), /*trace_period=*/3);
    int traced = 0;
    for (int i = 0; i < 9; ++i) {
        state.beginInvocation();
        traced += state.tracing() ? 1 : 0;
        state.endInvocation();
    }
    EXPECT_EQ(traced, 3);
}

TEST(Profiler, CumulativeOpsAccumulate)
{
    NodeArchState state;
    for (int i = 0; i < 4; ++i) {
        state.beginInvocation();
        KernelProfiler prof(&state);
        OpCounts ops;
        ops.fpAlu = 100;
        prof.addOps(ops);
        state.endInvocation();
    }
    EXPECT_EQ(state.totalOps().fpAlu, 400u);
    EXPECT_GT(state.lifetimeIpc(), 0.0);
}

TEST(Profiler, EwmaTracksLocality)
{
    // Streaming misses push the EWMA read-miss estimate up; repeated
    // hot-set hits pull it down.
    NodeArchState state(CacheConfig{4096, 4, 64}, BranchConfig(),
                        PipelineConfig(), 1);
    const std::size_t big = 1 << 20;
    for (int inv = 0; inv < 5; ++inv) {
        state.beginInvocation();
        KernelProfiler prof(&state);
        OpCounts ops;
        ops.loads = 16384;
        prof.addOps(ops);
        for (std::size_t i = 0; i < big; i += 64)
            prof.load(1, i, 1);
        state.endInvocation();
    }
    const double streaming_miss = state.ewmaReadMiss();
    EXPECT_GT(streaming_miss, 0.5);

    const std::size_t small = 1024;
    for (int inv = 0; inv < 30; ++inv) {
        state.beginInvocation();
        KernelProfiler prof(&state);
        OpCounts ops;
        ops.loads = 4096;
        prof.addOps(ops);
        for (int rep = 0; rep < 256; ++rep)
            for (std::size_t i = 0; i < small; i += 64)
                prof.load(2, i, 1);
        state.endInvocation();
    }
    EXPECT_LT(state.ewmaReadMiss(), streaming_miss / 4.0);
}

/** Property: cache miss count never exceeds accesses (sweep). */
class CacheGeomTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(CacheGeomTest, StatsInvariant)
{
    const auto [size_kb, assoc] = GetParam();
    CacheModel cache(CacheConfig{
        static_cast<std::uint32_t>(size_kb * 1024),
        static_cast<std::uint32_t>(assoc), 64});
    av::util::Rng rng(size_kb * 131 + assoc);
    for (int i = 0; i < 20000; ++i) {
        const auto addr = static_cast<std::uintptr_t>(
            rng.uniformInt(0, 1 << 22));
        cache.access(addr, 8, rng.bernoulli(0.3));
    }
    const CacheStats &s = cache.stats();
    EXPECT_LE(s.readMisses, s.readHits + s.readMisses);
    EXPECT_GT(s.accesses(), 20000u - 1);
    EXPECT_GE(s.readMissRate(), 0.0);
    EXPECT_LE(s.readMissRate(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeomTest,
    ::testing::Combine(::testing::Values(4, 32, 256),
                       ::testing::Values(1, 2, 8)));

} // namespace
