/**
 * @file
 * Tests for the experiment keys (src/exp/experiment.cc): cacheKey,
 * driveKey and fault::faultSalt pinned as values for fixed specs, so
 * a refactor of the hashing cannot move a key (and orphan every
 * cached result) without a deliberate tag bump; and the key's
 * coverage of every replay field, walked generically through the
 * same field lists the key hashes.
 */

#include <cmath>
#include <cstddef>
#include <string>
#include <type_traits>
#include <typeinfo>

#include <gtest/gtest.h>

#include "exp/experiment.hh"
#include "stack/config.hh"

namespace {

using namespace av;

/** One fault with every field off its default. */
fault::FaultSpec
delayFault()
{
    fault::FaultSpec f;
    f.kind = fault::FaultKind::MessageDelay;
    f.start = sim::oneSec;
    f.duration = sim::oneSec;
    f.target = "/points_raw";
    f.probability = 0.5;
    f.factor = 0.5;
    f.extraDelay = sim::oneMs;
    f.respawnDelay = sim::oneMs;
    f.watchTopic = "/ndt_pose";
    return f;
}

/** A second one, differing in every field. */
fault::FaultSpec
crashFault()
{
    fault::FaultSpec f;
    f.kind = fault::FaultKind::NodeCrash;
    f.start = 3 * sim::oneSec;
    f.duration = 250 * sim::oneMs;
    f.target = "euclidean_cluster";
    f.probability = 0.125;
    f.factor = 0.75;
    f.extraDelay = 7 * sim::oneMs;
    f.respawnDelay = 400 * sim::oneMs;
    f.watchTopic = "/detection/lidar_objects";
    return f;
}

/** Converts to any member type: an aggregate takes one per member. */
struct AnyMember
{
    template <class T>
    operator T() const; // implicit on purpose
};

/** Number of members of aggregate @p T: the most initializers it
 *  takes. Independent of T's field list, so it checks the list. */
template <class T, class... Inits>
constexpr std::size_t
memberCount()
{
    if constexpr (requires { T{Inits{}..., AnyMember{}}; })
        return memberCount<T, Inits..., AnyMember>();
    else
        return sizeof...(Inits);
}

/**
 * Walks keyed fields through their field lists, as util::Hasher
 * does: counts the leaves it passes (numbers, enums, strings) and
 * perturbs the one numbered `target` (a bool flips, an integer or
 * enum steps by one, a double moves one ulp, a string grows). A
 * vector's elements are walked in order. On the census walk (no
 * target) each record's list must pass every member of the record.
 */
struct Perturb
{
    static constexpr std::size_t kCensus = ~std::size_t(0);

    explicit Perturb(std::size_t leaf = kCensus) : target(leaf) {}

    std::size_t target;
    std::size_t leaves = 0;
    std::string record = "ExperimentSpec"; ///< the record being walked
    std::string hit; ///< the perturbed leaf's record and position

    template <class... Ts>
    void operator()(Ts &...values)
    {
        std::size_t member = 0;
        (visit(values, member++), ...);
    }

    template <class T>
    void visit(T &v, std::size_t member)
    {
        if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T> ||
                      std::is_same_v<T, std::string>) {
            if (leaves++ == target) {
                perturb(v);
                hit = "member " + std::to_string(member) + " of " + record;
            }
        } else if constexpr (requires { v.begin(); }) {
            for (auto &element : v)
                visit(element, member);
        } else {
            const std::string outer = record;
            record = typeid(T).name();
            if (target == kCensus) {
                std::size_t listed = 0;
                fields([&listed](auto &...m) { listed = sizeof...(m); },
                       v);
                EXPECT_EQ(listed, memberCount<T>())
                    << record << "'s field list skips a member";
            }
            fields(*this, v);
            record = outer;
        }
    }

    template <class T>
    static void perturb(T &v)
    {
        if constexpr (std::is_same_v<T, bool>)
            v = !v;
        else if constexpr (std::is_enum_v<T>)
            v = static_cast<T>(
                static_cast<std::underlying_type_t<T>>(v) + 1);
        else if constexpr (std::is_integral_v<T>)
            v = static_cast<T>(v + 1);
        else if constexpr (std::is_floating_point_v<T>)
            v = std::nextafter(v, HUGE_VAL);
        else
            v += "x";
    }
};

/**
 * Walk @p spec's keyed fields: the drive inputs first, then the
 * replay config. Returns the number of drive leaves.
 */
std::size_t
walk(Perturb &p, exp::ExperimentSpec &spec)
{
    [[maybe_unused]] auto &[label, scenario, recorder, driveDuration,
                            config] = spec;
    p(scenario, recorder, driveDuration);
    const std::size_t driveLeaves = p.leaves;
    auto &[options, machine, transport, plan, traced, safety,
           queueDepths] = config;
    p(options, machine, transport, plan, traced, safety, queueDepths);
    return driveLeaves;
}

TEST(CacheKey, PinnedForFixedSpecs)
{
    fault::FaultPlan plan;
    plan.seed = 99;
    plan.faults.push_back(delayFault());
    hw::MachineConfig machine = stack::defaultMachine();
    machine.cpu.cores = 4;
    machine.gpu.tflops = 14.0;
    machine.power.gpuIdleW = 40.0;
    world::RecorderConfig recorder;
    recorder.cameraPhase = 20 * sim::oneMs;

    const struct
    {
        const char *what;
        exp::ExperimentSpec spec;
        const char *cacheKey;
        const char *driveKey;
    } pins[] = {
        {"default", exp::spec(), "b817b3a4de4d7bb7", "7375704223d5b37b"},
        {"isolated traced", exp::spec().isolatedVision().traced(),
         "5bce80f151fb2336", "7375704223d5b37b"},
        {"faulted with a queue depth",
         exp::spec()
             .seed(2021)
             .durationSeconds(20)
             .faults(plan)
             .queueDepth("/image_raw", "vision_detection", 2),
         "4226c3ef10539079", "2b0e23a1f618ccaf"},
        {"invariants on another machine",
         exp::spec().machine(machine).recording(recorder).invariants(),
         "2f8d33ee881f6dd5", "eeb6100c330e7701"},
    };
    for (const auto &p : pins) {
        EXPECT_EQ(exp::cacheKey(p.spec), p.cacheKey) << p.what;
        EXPECT_EQ(exp::driveKey(p.spec), p.driveKey) << p.what;
    }

    EXPECT_EQ(fault::faultSalt(delayFault()), 0x353bdd8e5818733cu);
    EXPECT_EQ(fault::faultSalt(crashFault()), 0xf30f10530f28c1cfu);
}

TEST(Runner, CacheKeyCoversEveryReplayField)
{
    // The base carries one fault with every field set and one
    // queue-depth override, so each of their fields moves on its own
    // rather than by the list's length.
    fault::FaultPlan plan;
    plan.faults.push_back(delayFault());
    const auto base = exp::spec().faults(plan).queueDepth(
        "/image_raw", "vision_detection", 2);
    const std::string key = exp::cacheKey(base);
    const std::string drive = exp::driveKey(base);

    // Census: every record's list passes all its members, including
    // the calibration's, which the key hashes but no spec sets.
    auto census = base;
    Perturb all;
    const std::size_t driveLeaves = walk(all, census);
    stack::NodeCalibration calibration = stack::defaultCalibration();
    Perturb()(calibration);

    // Every leaf moves the cache key; a drive leaf moves the drive
    // key too, and a replay leaf leaves the recorded drive shared.
    std::size_t cases = 0;
    for (std::size_t leaf = 0; leaf < all.leaves; ++leaf, ++cases) {
        auto changed = base;
        Perturb p(leaf);
        walk(p, changed);
        EXPECT_NE(exp::cacheKey(changed), key)
            << p.hit << " does not reach the cache key";
        if (leaf < driveLeaves)
            EXPECT_NE(exp::driveKey(changed), drive)
                << p.hit << " does not reach the drive key";
        else
            EXPECT_EQ(exp::driveKey(changed), drive)
                << p.hit << " moves the drive key";
    }

    // What the lists cannot know, by hand. The label is presentation
    // only; the list lengths fold in; an enum folds by its value.
    auto relabeled = base;
    relabeled.named("same replay, new name");
    EXPECT_EQ(exp::cacheKey(relabeled), key);
    using Spec = exp::ExperimentSpec;
    const struct
    {
        const char *what;
        void (*mutate)(Spec &);
    } byHand[] = {
        {"fault count",
         [](Spec &s) {
             s.config.faults.cameraBlackout(sim::oneSec, sim::oneSec);
         }},
        {"queue-depth override count",
         [](Spec &s) { s.queueDepth("/points_raw", "ndt_matching", 2); }},
        {"fault kind",
         [](Spec &s) {
             s.config.faults.faults[0].kind =
                 fault::FaultKind::MessageCorrupt;
         }},
    };
    for (const auto &c : byHand) {
        auto changed = base;
        c.mutate(changed);
        EXPECT_NE(exp::cacheKey(changed), key)
            << c.what << " does not reach the cache key";
        ++cases;
    }
    EXPECT_GE(cases, 60u);
}

} // namespace
