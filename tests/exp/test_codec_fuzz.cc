/**
 * @file
 * Seeded mutation fuzzer for the two on-disk parsers: result-cache
 * entries (ResultCache::load) and sensor bags (loadSensorBag).
 *
 * Each corpus file — a real entry of a traced, faulted, degraded
 * run with invariants armed, and a real saved bag — is mutated a
 * few hundred times: a bit flip, a truncation, a count field set to
 * 2^20+1 or 2^32-1, a deleted token (bag: byte range) or a
 * duplicated line (bag: byte range). Every mutant must load as a
 * miss / false, or as a value whose re-serialization is stable
 * (store, reload, store again: same bytes). It must never crash,
 * hang or allocate from a bogus count, which the ASan+UBSan stage
 * of scripts/check.sh checks on the same cases.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "test_dir.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "world/bag_io.hh"
#include "world/recorder.hh"

namespace {

using namespace av;

constexpr int kMutants = 300;

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
}

std::size_t
pick(util::Rng &rng, std::size_t n)
{
    return static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
}

/** 2^20 + 1 (just past the cache's bound) or 2^32 - 1. */
std::uint64_t
bomb(util::Rng &rng)
{
    return rng.bernoulli(0.5) ? (1u << 20) + 1 : 0xffffffffull;
}

void
flipBit(util::Rng &rng, std::string &bytes)
{
    bytes[pick(rng, bytes.size())] ^=
        static_cast<char>(1 << pick(rng, 8));
}

/** Offset and length of every whitespace-separated token. */
std::vector<std::pair<std::size_t, std::size_t>>
tokens(const std::string &text)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::size_t at = 0;
    while ((at = text.find_first_not_of(" \n", at)) !=
           std::string::npos) {
        const std::size_t end = text.find_first_of(" \n", at);
        const std::size_t len =
            (end == std::string::npos ? text.size() : end) - at;
        out.emplace_back(at, len);
        at += len;
    }
    return out;
}

/**
 * Token index of every count in a cache entry: the count after a
 * list keyword and the retained-sample count of each series row.
 */
std::vector<std::size_t>
cacheCounts(const std::string &text)
{
    std::vector<std::size_t> counts;
    std::istringstream lines(text);
    std::string line, section;
    std::size_t first = 0; // index of this line's first token
    while (std::getline(lines, line)) {
        std::istringstream words(line);
        std::vector<std::string> w;
        for (std::string word; words >> word;)
            w.push_back(word);
        if (w.size() == 2 &&
            w[1].find_first_not_of("0123456789") == std::string::npos) {
            section = w[0];
            counts.push_back(first + 1);
        } else if ((section == "nodes" || section == "paths" ||
                    section == "staleness") &&
                   w.size() >= 8) {
            counts.push_back(first + 7);
        }
        first += w.size();
    }
    return counts;
}

std::string
mutateEntry(util::Rng &rng, std::string text)
{
    const auto spans = tokens(text);
    switch (pick(rng, 5)) {
    case 0:
        flipBit(rng, text);
        break;
    case 1:
        text.resize(pick(rng, text.size()));
        break;
    case 2: {
        const auto counts = cacheCounts(text);
        const auto [at, len] = spans[counts[pick(rng, counts.size())]];
        text.replace(at, len, std::to_string(bomb(rng)));
        break;
    }
    case 3: {
        const auto [at, len] = spans[pick(rng, spans.size())];
        text.erase(at, len + 1);
        break;
    }
    default: {
        std::size_t begin = pick(rng, text.size());
        begin = text.rfind('\n', begin);
        begin = begin == std::string::npos ? 0 : begin + 1;
        const std::size_t end = text.find('\n', begin);
        text.insert(begin, text.substr(begin, end - begin + 1));
        break;
    }
    }
    return text;
}

TEST(CodecFuzz, CacheEntryMutantsMissOrReserializeStably)
{
    const auto spec =
        exp::spec()
            .durationSeconds(3)
            .seed(2020)
            .traced()
            .faults(fault::FaultPlan()
                        .lidarBlackout(1200 * sim::oneMs, sim::oneSec)
                        .cameraBlackout(sim::oneSec, sim::oneSec))
            .degraded()
            .invariants()
            .named("fuzz corpus");
    exp::Runner runner(exp::RunnerConfig{1, ""});
    const prof::RunResult &run = runner.result(runner.submit(spec));

    const std::string dir = test::freshTestDir();
    const exp::ResultCache cache(dir);
    ASSERT_TRUE(cache.store("corpus", run));
    const std::string corpus = fileBytes(cache.entryPath("corpus"));
    ASSERT_FALSE(cacheCounts(corpus).empty());

    util::Rng rng(2020);
    int loaded = 0;
    for (int m = 0; m < kMutants; ++m) {
        const std::string mutant = mutateEntry(rng, corpus);
        writeBytes(cache.entryPath("mutant"), mutant);
        const auto result = cache.load("mutant");
        if (!result)
            continue;
        ++loaded;
        ASSERT_TRUE(cache.store("again", *result));
        const std::string once = fileBytes(cache.entryPath("again"));
        const auto reloaded = cache.load("again");
        ASSERT_TRUE(reloaded.has_value()) << "mutant " << m;
        ASSERT_TRUE(cache.store("again", *reloaded));
        EXPECT_EQ(fileBytes(cache.entryPath("again")), once)
            << "mutant " << m << " does not re-serialize stably";
    }
    // Both outcomes occur: the corpus exercises accepting paths
    // (e.g. a flipped sample bit) as well as rejecting ones.
    EXPECT_GT(loaded, 0);
    EXPECT_LT(loaded, kMutants);
    std::filesystem::remove_all(dir);
}

/**
 * Offset and width of every count field in a bag saved from
 * @p bag: each channel's u64 message count and each cloud's and
 * frame's u32 element count (a message header is 48 bytes up to
 * that count: seq, stamp, two origins, size, then stampNs or
 * width + height).
 */
std::vector<std::pair<std::size_t, std::size_t>>
bagCounts(ros::Bag &bag)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::size_t at = 8; // magic + version
    out.emplace_back(at + 4, 8);
    at += 12;
    for (const auto &msg :
         bag.channel<pc::PointCloud>(world::topics::pointsRaw)
             .messages()) {
        out.emplace_back(at + 48, 4);
        at += 52 + 18 * msg.data.size();
    }
    out.emplace_back(at + 4, 8);
    at += 12;
    for (const auto &msg :
         bag.channel<world::CameraFrame>(world::topics::imageRaw)
             .messages()) {
        out.emplace_back(at + 48, 4);
        at += 52 + 69 * msg.data.truth.size();
    }
    out.emplace_back(at + 4, 8);
    at += 12 + 72 * bag.channel<world::GnssFix>(world::topics::gnss)
                        .count();
    out.emplace_back(at + 4, 8);
    return out;
}

TEST(CodecFuzz, SensorBagMutantsFailOrReserializeStably)
{
    world::ScenarioConfig cfg;
    cfg.seed = 2020;
    ros::Bag bag;
    world::recordDrive(world::Scenario(cfg), world::LidarModel(),
                       world::CameraModel(), world::GnssModel(),
                       world::ImuModel(), sim::oneSec / 5,
                       world::RecorderConfig(), bag);
    const std::string dir = test::freshTestDir();
    const std::string path = dir + "/corpus.avbg";
    const std::string again = dir + "/again.avbg";
    ASSERT_TRUE(world::saveSensorBag(bag, path));
    const std::string corpus = fileBytes(path);
    const auto counts = bagCounts(bag);
    // The IMU channel's 64-byte records run to the end of file.
    const std::size_t imuBytes =
        64 * bag.channel<world::ImuSample>(world::topics::imu).count();
    ASSERT_EQ(counts.back().first + 8 + imuBytes, corpus.size())
        << "count offsets do not match the saved layout";

    const util::LogLevel before = util::logThreshold();
    util::setLogThreshold(util::LogLevel::Error);
    util::Rng rng(2021);
    int loaded = 0;
    for (int m = 0; m < kMutants; ++m) {
        std::string mutant = corpus;
        switch (pick(rng, 5)) {
        case 0:
            flipBit(rng, mutant);
            break;
        case 1:
            mutant.resize(pick(rng, mutant.size()));
            break;
        case 2: {
            const auto [at, width] = counts[pick(rng, counts.size())];
            const std::uint64_t value = bomb(rng);
            for (std::size_t b = 0; b < width; ++b)
                mutant[at + b] = static_cast<char>(value >> (8 * b));
            break;
        }
        case 3:
            mutant.erase(pick(rng, mutant.size()),
                         1 + pick(rng, 8));
            break;
        default: {
            const std::size_t at = pick(rng, mutant.size());
            mutant.insert(at, mutant.substr(at, 1 + pick(rng, 64)));
            break;
        }
        }
        writeBytes(path, mutant);
        ros::Bag fromMutant;
        if (!world::loadSensorBag(fromMutant, path))
            continue;
        ++loaded;
        ASSERT_TRUE(world::saveSensorBag(fromMutant, again));
        const std::string once = fileBytes(again);
        ros::Bag reloaded;
        ASSERT_TRUE(world::loadSensorBag(reloaded, again))
            << "mutant " << m;
        ASSERT_TRUE(world::saveSensorBag(reloaded, again));
        EXPECT_EQ(fileBytes(again), once)
            << "mutant " << m << " does not re-serialize stably";
    }
    util::setLogThreshold(before);
    EXPECT_GT(loaded, 0);
    EXPECT_LT(loaded, kMutants);
    std::remove(path.c_str());
    std::remove(again.c_str());
}

} // namespace
