/**
 * @file
 * Transport microbenchmark: the host-side cost of the minros
 * intra-process transport (the loaned, zero-copy path). It publishes
 * large payloads to several subscribers and reports wall-clock and
 * the transport counters; the loan must record zero payload copies.
 * A second row replays a bag of such payloads: the replay must copy
 * each message exactly once, when it fires, so only the messages in
 * flight are alive beside the bag.
 *
 * --smoke shrinks every size so the binary doubles as a sanitizer
 * smoke test: scripts/check.sh runs it under ASan/UBSan and TSan.
 * Wall-clock output goes to stdout — this is a host bench, not a
 * simulated result, so it is outside the determinism contract.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "common.hh"
#include "hw/machine.hh"
#include "ros/bag.hh"
#include "ros/ros.hh"
#include "util/logging.hh"

namespace {

using namespace av;

/**
 * A payload heavy enough that a deep copy would dominate: ~1 MiB.
 * It counts its deep copies, and how many of them are alive.
 */
struct Blob
{
    std::vector<std::uint64_t> words;
    bool isCopy = false;

    static inline std::size_t copies = 0;
    static inline std::size_t liveCopies = 0;
    static inline std::size_t peakLiveCopies = 0;

    Blob() = default;
    Blob(const Blob &o) : words(o.words), isCopy(true)
    {
        ++copies;
        peakLiveCopies = std::max(peakLiveCopies, ++liveCopies);
    }
    Blob(Blob &&o) noexcept
        : words(std::move(o.words)),
          isCopy(std::exchange(o.isCopy, false))
    {}
    Blob &operator=(const Blob &) = delete;
    Blob &
    operator=(Blob &&o) noexcept
    {
        if (isCopy)
            --liveCopies;
        words = std::move(o.words);
        isCopy = std::exchange(o.isCopy, false);
        return *this;
    }
    ~Blob()
    {
        if (isCopy)
            --liveCopies;
    }
};

// avlint: allow(wall-clock)
using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * Publish @p messages Blobs of @p words words to @p subs
 * subscribers and drain the event queue; returns wall seconds.
 */
double
fanOut(std::size_t messages, std::size_t words, unsigned subs,
       ros::TransportCounters &countersOut)
{
    sim::EventQueue eq;
    hw::MachineConfig mcfg;
    hw::Machine machine(eq, mcfg);
    ros::RosGraph graph(machine);

    std::vector<std::unique_ptr<ros::Node>> nodes;
    std::size_t consumed = 0;
    for (unsigned i = 0; i < subs; ++i) {
        auto node = std::make_unique<ros::Node>(
            graph, "sink" + std::to_string(i));
        node->subscribe<Blob>(
            "/blob", 2,
            [&consumed](const ros::Stamped<Blob> &msg,
                        std::function<void()> done) {
                consumed += msg.data.words.back();
                done();
            });
        nodes.push_back(std::move(node));
    }

    auto pub = graph.advertise<Blob>("/blob");
    const auto t0 = Clock::now();
    for (std::size_t m = 0; m < messages; ++m) {
        eq.scheduleAfter(sim::oneMs, [&pub, words] {
            Blob blob;
            blob.words.assign(words, 1);
            const std::size_t bytes = blob.words.size() * 8;
            pub.publish(ros::Header{}, std::move(blob), bytes);
        });
        eq.runUntil();
    }
    const auto t1 = Clock::now();
    AV_ASSERT(consumed == messages * subs, "lost deliveries");
    countersOut = graph.transportCounters();
    return seconds(t0, t1);
}

/** Subscription queue depth of the bag-replay sinks. */
constexpr std::size_t kReplayDepth = 2;

/**
 * Most messages the bag-replay row records of `messages`: the bag
 * holds them all at once.
 */
constexpr std::size_t kMaxBagMessages = 64;

/**
 * Record @p messages Blobs of @p words words, 1 ms apart, into a bag
 * and replay it into @p subs subscribers; returns the replay's wall
 * seconds.
 */
double
bagReplay(std::size_t messages, std::size_t words, unsigned subs)
{
    ros::Bag bag;
    ros::BagChannel<Blob> &chan = bag.channel<Blob>("/blob");
    for (std::size_t m = 0; m < messages; ++m) {
        ros::Stamped<Blob> msg;
        msg.header.seq = m;
        msg.header.stamp = static_cast<sim::Tick>(m + 1) * sim::oneMs;
        msg.data.words.assign(words, 1);
        msg.bytes = words * 8;
        chan.add(std::move(msg));
    }

    sim::EventQueue eq;
    hw::MachineConfig mcfg;
    hw::Machine machine(eq, mcfg);
    ros::RosGraph graph(machine);
    std::vector<std::unique_ptr<ros::Node>> nodes;
    std::size_t consumed = 0;
    for (unsigned i = 0; i < subs; ++i) {
        auto node = std::make_unique<ros::Node>(
            graph, "sink" + std::to_string(i));
        node->subscribe<Blob>(
            "/blob", kReplayDepth,
            [&consumed](const ros::Stamped<Blob> &msg,
                        std::function<void()> done) {
                consumed += msg.data.words.back();
                done();
            });
        nodes.push_back(std::move(node));
    }

    Blob::copies = 0;
    Blob::peakLiveCopies = Blob::liveCopies;
    const auto t0 = Clock::now();
    bag.replay(graph);
    eq.runUntil();
    const auto t1 = Clock::now();
    AV_ASSERT(consumed == messages * subs, "lost deliveries");
    return seconds(t0, t1);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::parseOrExit(
        bench::BenchOptions()
            .flag("smoke", "shrink every size not given explicitly")
            .integer("messages", 2000, "fan-out and bag-replay messages",
                     0)
            .integer("words", 1 << 17, "u64 words per payload", 0)
            .integer("subs", 3, "fan-out and replay subscribers", 0),
        argc, argv);
    const bool smoke = opts.flag("smoke");
    const auto size = [&](const char *name, long smoke_size) {
        return static_cast<std::size_t>(
            smoke && !opts.given(name) ? smoke_size
                                       : opts.integer(name));
    };
    const std::size_t messages = size("messages", 50);
    const std::size_t words = size("words", 1 << 12);
    const auto subs = static_cast<unsigned>(opts.integer("subs"));
    const std::size_t bag_messages = std::min(messages, kMaxBagMessages);

    std::printf("micro_transport: %zu messages x %zu words x %u "
                "subscribers%s\n",
                messages, words, subs, smoke ? " (smoke)" : "");

    ros::TransportCounters counters;
    const double wall = fanOut(messages, words, subs, counters);
    std::printf("  fan-out [loan]: %8.2f ms wall, %llu deliveries, "
                "%llu payload copies, %llu loaned\n",
                wall * 1e3,
                static_cast<unsigned long long>(counters.deliveries),
                static_cast<unsigned long long>(counters.payloadCopies),
                static_cast<unsigned long long>(
                    counters.loanedDeliveries));
    AV_ASSERT(counters.payloadCopies == 0 &&
                  counters.loanedDeliveries == messages * subs &&
                  Blob::copies == 0,
              "the loaned transport must not copy payloads");

    const double replay = bagReplay(bag_messages, words, subs);
    std::printf("  bag replay:     %8.2f ms wall, %zu messages, "
                "%zu Blob copies, at most %zu alive at once\n",
                replay * 1e3, bag_messages, Blob::copies,
                Blob::peakLiveCopies);
    AV_ASSERT(Blob::copies == bag_messages,
              "a bag replay must copy each message exactly once");
    AV_ASSERT(Blob::peakLiveCopies <= kReplayDepth + 1,
              "a bag replay must hold only the messages in flight");
    return 0;
}
