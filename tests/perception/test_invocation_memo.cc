/**
 * @file
 * Contract tests of perception::InvocationMemo, for every
 * instantiation the LiDAR front end uses: a stored entry is adopted,
 * the budget bounds the entries and ends the replay's history, a
 * throwing producer releases its claim, and NDT's key tells guesses
 * one ulp apart. The byte-identity of replays that share a memo is
 * tested end to end in tests/exp/test_runner.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "perception/nodes.hh"

namespace {

using namespace av;
using namespace av::perception;

/** The key of the scan stamped @p lidar, with a fixed NDT guess. */
template <class Memo>
typename Memo::Input
inputFor(sim::Tick lidar)
{
    if constexpr (std::is_same_v<typename Memo::Input, NdtInput>)
        return NdtInput{lidar, std::bit_cast<std::uint64_t>(1.5),
                        std::bit_cast<std::uint64_t>(-2.25),
                        std::bit_cast<std::uint64_t>(0.125)};
    else
        return lidar;
}

/** An entry whose cost names the invocation. */
template <class Memo>
typename Memo::Entry
entryNamed(double cycles)
{
    typename Memo::Entry entry;
    entry.result.cost.cycles = cycles;
    return entry;
}

template <class Memo>
class InvocationMemoContract : public ::testing::Test
{
};

using FrontEndMemoTypes =
    ::testing::Types<RayGroundMemo, VoxelGridMemo, NdtMemo, ClusterMemo>;
TYPED_TEST_SUITE(InvocationMemoContract, FrontEndMemoTypes);

TYPED_TEST(InvocationMemoContract, StoredEntryIsAdoptedNotRecomputed)
{
    using Memo = TypeParam;
    Memo memo(4);
    const auto first = memo.step(Memo::kRoot, inputFor<Memo>(100), [] {
        return entryNamed<Memo>(1.0);
    });
    EXPECT_FALSE(first.adopt);
    EXPECT_TRUE(first.stored);

    const auto again = memo.step(
        Memo::kRoot, inputFor<Memo>(100),
        []() -> typename Memo::Entry {
            throw std::logic_error("a stored entry must not recompute");
        });
    EXPECT_TRUE(again.adopt);
    EXPECT_EQ(again.at, first.at);
    EXPECT_EQ(again.entry, first.entry);

    // The same scan after a different history is a different entry.
    const auto later = memo.step(first.at, inputFor<Memo>(100), [] {
        return entryNamed<Memo>(2.0);
    });
    EXPECT_FALSE(later.adopt);
    EXPECT_NE(later.at, first.at);
    EXPECT_EQ(later.entry->result.cost.cycles, 2.0);
    EXPECT_EQ(memo.entries(), 2u);
    EXPECT_EQ(memo.hits(), 1u);
}

TYPED_TEST(InvocationMemoContract, SpentBudgetComputesLiveAndStoresNothing)
{
    using Memo = TypeParam;
    Memo memo(2);
    typename Memo::Id at = Memo::kRoot;
    for (sim::Tick scan = 1; scan <= 2; ++scan) {
        const auto step = memo.step(at, inputFor<Memo>(scan), [&] {
            return entryNamed<Memo>(static_cast<double>(scan));
        });
        ASSERT_TRUE(step.stored);
        at = step.at;
    }
    const auto spent = memo.step(at, inputFor<Memo>(3), [] {
        return entryNamed<Memo>(3.0);
    });
    EXPECT_FALSE(spent.stored) << "the caller must leave the trie";
    EXPECT_FALSE(spent.adopt);
    EXPECT_EQ(spent.entry->result.cost.cycles, 3.0);
    EXPECT_EQ(memo.entries(), 2u);

    // What was stored before the budget ran out is still served.
    const auto stored = memo.step(
        Memo::kRoot, inputFor<Memo>(1), []() -> typename Memo::Entry {
            throw std::logic_error("a stored entry must not recompute");
        });
    EXPECT_TRUE(stored.adopt);
    EXPECT_EQ(memo.hits(), 1u);
}

TYPED_TEST(InvocationMemoContract, ThrowingProducerReleasesWaiters)
{
    // As Runner.ThrowingClusterProducerReleasesWaiters, for every
    // instantiation: the waiter claims the erased entry itself.
    using Memo = TypeParam;
    Memo memo(4);
    std::atomic<bool> claimed{false};
    std::thread thrower([&] {
        EXPECT_THROW(memo.step(Memo::kRoot, inputFor<Memo>(100),
                               [&]() -> typename Memo::Entry {
                                   claimed = true;
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(20));
                                   throw std::runtime_error(
                                       "kernel failed");
                               }),
                     std::runtime_error);
    });
    while (!claimed)
        std::this_thread::yield();
    const auto step = memo.step(Memo::kRoot, inputFor<Memo>(100), [] {
        return entryNamed<Memo>(7.0);
    });
    thrower.join();
    EXPECT_FALSE(step.adopt);
    EXPECT_TRUE(step.stored);
    EXPECT_EQ(step.entry->result.cost.cycles, 7.0);
    EXPECT_EQ(memo.entries(), 1u);
    EXPECT_EQ(memo.hits(), 0u);
}

TYPED_TEST(InvocationMemoContract, CursorAdoptsTheProducersState)
{
    // A node's Cursor hands back the entry's result and, on
    // adoption, overwrites the node's µarch state with the state the
    // producer left; without a memo it computes every call.
    using Memo = TypeParam;
    const auto memo = std::make_shared<Memo>(4);
    const auto live = [](uarch::NodeArchState &arch) {
        arch.beginInvocation();
        uarch::KernelProfiler(&arch).addOps(uarch::OpCounts{.loads = 5});
        typename Memo::Result result;
        result.cost = arch.endInvocation();
        return result;
    };
    uarch::NodeArchState producer, adopter, alone;
    typename Memo::Cursor produce(memo), adopt(memo), compute(nullptr);
    const auto a = produce.invoke(producer, inputFor<Memo>(100),
                                  [&] { return live(producer); });
    const auto b = adopt.invoke(adopter, inputFor<Memo>(100), [&] {
        ADD_FAILURE() << "the adopter must not compute";
        return live(adopter);
    });
    const auto c = compute.invoke(alone, inputFor<Memo>(100),
                                  [&] { return live(alone); });
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(adopter.totalOps().loads, producer.totalOps().loads);
    EXPECT_EQ(alone.totalOps().loads, producer.totalOps().loads);
    EXPECT_EQ(c->cost.cycles, a->cost.cycles);
    EXPECT_EQ(memo->hits(), 1u);
}

TEST(InvocationMemo, NdtGuessOneUlpApartClaimsANewEntry)
{
    // align() may converge elsewhere from a guess one ulp away, so
    // the key holds the guess's exact bits, not a rounded value.
    NdtMemo memo(8);
    const NdtInput key = inputFor<NdtMemo>(100);
    const auto first = memo.step(NdtMemo::kRoot, key, [] {
        return entryNamed<NdtMemo>(1.0);
    });
    for (std::uint64_t NdtInput::*field :
         {&NdtInput::x, &NdtInput::y, &NdtInput::yaw}) {
        NdtInput nudged = key;
        nudged.*field = std::bit_cast<std::uint64_t>(std::nextafter(
            std::bit_cast<double>(key.*field), 1e9));
        ASSERT_NE(nudged.*field, key.*field);
        bool computed = false;
        const auto step = memo.step(NdtMemo::kRoot, nudged, [&] {
            computed = true;
            return entryNamed<NdtMemo>(2.0);
        });
        EXPECT_TRUE(computed);
        EXPECT_FALSE(step.adopt);
        EXPECT_NE(step.at, first.at);
    }
    EXPECT_EQ(memo.entries(), 4u);
    EXPECT_EQ(memo.hits(), 0u);
}

} // namespace
