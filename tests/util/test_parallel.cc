/**
 * @file
 * util::parallelFor contract: trivial ranges run inline, every index
 * runs exactly once, a throwing body reaches the caller after all
 * threads joined. The repo-wide avlint test (avlint.repo) keeps the
 * source free of swallowed exceptions and mutable globals.
 */

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/parallel.hh"

namespace {

using av::util::parallelFor;

TEST(ParallelFor, EmptyRangeNeverCallsTheBody)
{
    int calls = 0;
    parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SingleIndexRunsInlineOnTheCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    std::size_t seen = 99;
    parallelFor(1, [&](std::size_t i) {
        ran_on = std::this_thread::get_id();
        seen = i;
    });
    EXPECT_EQ(ran_on, caller);
    EXPECT_EQ(seen, 0u);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    for (std::size_t n : {2u, 3u, 7u, 64u, 1000u}) {
        std::vector<std::atomic<int>> hits(n);
        parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "n " << n << " index " << i;
    }
}

TEST(ParallelFor, ResultsPlacedByIndexAreScheduleIndependent)
{
    const std::size_t n = 257;
    std::vector<std::size_t> squares(n);
    parallelFor(n, [&](std::size_t i) { squares[i] = i * i; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(ParallelFor, ThrowingBodyIsRethrownOnTheCaller)
{
    std::atomic<int> ran{0};
    try {
        parallelFor(64, [&](std::size_t i) {
            ran.fetch_add(1);
            if (i == 5)
                throw std::runtime_error("index 5");
        });
        FAIL() << "exception was not rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "index 5");
    }
    EXPECT_GE(ran.load(), 1);
}

TEST(ParallelFor, EveryBodyThrowingStillRethrowsOne)
{
    EXPECT_THROW(parallelFor(16,
                             [](std::size_t) {
                                 throw std::logic_error("all");
                             }),
                 std::logic_error);
    EXPECT_THROW(
        parallelFor(1, [](std::size_t) { throw std::logic_error("one"); }),
        std::logic_error);
}

} // namespace
