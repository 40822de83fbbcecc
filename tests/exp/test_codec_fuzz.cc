/**
 * @file
 * Seeded mutation fuzzer for the on-disk parser: result-cache
 * entries (ResultCache::load).
 *
 * The corpus — a real entry of a traced, faulted, degraded run with
 * invariants armed — is mutated a few hundred times: a bit flip, a
 * truncation, a count field set to 2^20+1 or 2^32-1, a deleted token
 * or a duplicated line. Every mutant must load as a miss, or as a
 * value whose re-serialization is stable (store, reload, store
 * again: same bytes). It must never crash, hang or allocate from a
 * bogus count, which the ASan+UBSan stage of scripts/check.sh checks
 * on the same cases.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "test_dir.hh"
#include "util/random.hh"

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

} // namespace
