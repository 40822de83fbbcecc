#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "spans.hh"
#include "util/logging.hh"
#include "workload.hh"

namespace {

using avperf::SpanRecorder;

/** Minimal JSON syntax check: true when @p text is one JSON value. */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        return value() && (skip(), i_ == s_.size());
    }

  private:
    void
    skip()
    {
        while (i_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[i_])))
            ++i_;
    }

    bool
    eat(char c)
    {
        skip();
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (i_ < s_.size() && s_[i_] != '"') {
            if (static_cast<unsigned char>(s_[i_]) < 0x20)
                return false;
            i_ += s_[i_] == '\\' ? 2 : 1;
        }
        return eat('"');
    }

    bool
    value()
    {
        skip();
        if (i_ >= s_.size())
            return false;
        const char c = s_[i_];
        if (c == '{' || c == '[') {
            const char close = c == '{' ? '}' : ']';
            ++i_;
            if (eat(close))
                return true;
            do {
                if (c == '{' && !(string() && eat(':')))
                    return false;
                if (!value())
                    return false;
            } while (eat(','));
            return eat(close);
        }
        if (c == '"')
            return string();
        for (const char *word : {"true", "false", "null"}) {
            const std::string w(word);
            if (s_.compare(i_, w.size(), w) == 0) {
                i_ += w.size();
                return true;
            }
        }
        char *end = nullptr;
        std::strtod(s_.c_str() + i_, &end);
        if (end == s_.c_str() + i_)
            return false;
        i_ = static_cast<std::size_t>(end - s_.c_str());
        return true;
    }

    const std::string &s_;
    std::size_t i_ = 0;
};

TEST(Spans, NestingFollowsOpenScopes)
{
    SpanRecorder rec;
    const int a = rec.begin("a");
    const int b = rec.begin("b");
    rec.end(b);
    const int c = rec.begin("c");
    const int d = rec.begin("d");
    rec.end(c); // closes d too
    rec.end(a);
    const int e = rec.begin("e");
    rec.end(e);

    const auto &s = rec.spans();
    EXPECT_EQ(s[a].parent, -1);
    EXPECT_EQ(s[b].parent, a);
    EXPECT_EQ(s[c].parent, a);
    EXPECT_EQ(s[d].parent, c);
    EXPECT_EQ(s[e].parent, -1);
    for (const avperf::Span &span : s)
        EXPECT_GE(span.durationUs(), 0.0) << span.name;
    EXPECT_LE(s[d].endUs, s[c].endUs);
    EXPECT_LE(s[a].startUs, s[b].startUs);
    EXPECT_EQ(rec.durationsUs("b").size(), 1u);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    SpanRecorder rec;
    const int parent = rec.add("parent", 0.0, 100.0);
    rec.add("child", 10.0, 30.0, parent);
    rec.add("child", 20.0, 50.0, parent); // overlaps the first
    rec.add("child", 90.0, 120.0, parent); // runs past the parent
    const int grandchild = rec.add("grandchild", 12.0, 14.0, 1);
    rec.add("unrelated", 0.0, 100.0);

    // Covered: [10, 50] + [90, 100] = 50 of 100 µs.
    EXPECT_DOUBLE_EQ(rec.selfUs(parent), 50.0);
    EXPECT_DOUBLE_EQ(rec.selfUs(1), 18.0);
    EXPECT_DOUBLE_EQ(rec.selfUs(grandchild), 2.0);
    EXPECT_DOUBLE_EQ(rec.totalMs("child"), 0.08);
    EXPECT_THROW(rec.add("backwards", 5.0, 4.0), std::invalid_argument);
}

TEST(Spans, OutputsAreWellFormedJson)
{
    SpanRecorder rec;
    {
        avperf::Scope outer(rec, "outer \"quoted\"");
        avperf::Scope inner(rec, "back\\slash\nnew\tline\x01");
    }
    const int open = rec.begin("still open");
    (void)open;

    const std::string json = rec.toJson();
    const std::string chrome = rec.toChromeTrace();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_TRUE(JsonChecker(chrome).valid()) << chrome;
    EXPECT_NE(json.find("\"self_us\""), std::string::npos);
    EXPECT_NE(json.find("\"parent\": 0"), std::string::npos);
    EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
    // Open spans have no extent yet and stay out of the timeline.
    EXPECT_EQ(chrome.find("still open"), std::string::npos);
    EXPECT_FALSE(JsonChecker("{\"a\": [1, 2,]}").valid());
}

TEST(Spans, NumbersRoundTripAndQuantilesInterpolate)
{
    for (const double v : {0.1, 1.0 / 3.0, 1e-9, 123456.789, 0.0}) {
        const std::string text = avperf::jsonNumber(v);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    }
    EXPECT_THROW(avperf::jsonNumber(std::nan("")),
                 std::invalid_argument);
    EXPECT_DOUBLE_EQ(avperf::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(avperf::quantile({0.0, 10.0}, 0.9), 9.0);
    EXPECT_DOUBLE_EQ(avperf::median({}), 0.0);
}

TEST(Workloads, NamesAndSpecCounts)
{
    EXPECT_THROW(avperf::makeWorkload("nope", 1, true),
                 std::invalid_argument);
    for (const std::string &name : avperf::workloadNames())
        EXPECT_EQ(avperf::makeWorkload(name, 2020, false).name, name);
    EXPECT_EQ(avperf::makeWorkload("paper_drive", 2020, false)
                  .specs()
                  .size(),
              3u);
    EXPECT_EQ(avperf::makeWorkload("depth_sweep", 2020, false)
                  .specs()
                  .size(),
              12u);
    // The seed moves the camera phase and the drive length, never the
    // scene; 2020 is the default 20 s drive.
    const auto a = avperf::makeWorkload("paper_drive", 2020, false);
    const auto b = avperf::makeWorkload("paper_drive", 2021, false);
    EXPECT_EQ(a.driveSpec().recorder.cameraPhase,
              av::world::RecorderConfig().cameraPhase);
    EXPECT_EQ(a.driveSpec().driveDuration, 20 * av::sim::oneSec);
    EXPECT_NE(a.driveSpec().recorder.cameraPhase,
              b.driveSpec().recorder.cameraPhase);
    EXPECT_GT(b.driveSpec().driveDuration, a.driveSpec().driveDuration);
    EXPECT_EQ(a.driveSpec().scenario.seed, b.driveSpec().scenario.seed);
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        const auto phase =
            avperf::makeWorkload("paper_drive", seed, false)
                .driveSpec()
                .recorder.cameraPhase;
        EXPECT_LT(phase, av::world::RecorderConfig().cameraPeriod);
    }
}

TEST(Workloads, TruncatedCacheEntryFailsTheRunWithoutCrashing)
{
    namespace fs = std::filesystem;
    av::util::setLogThreshold(av::util::LogLevel::Warn);
    const avperf::Workload w =
        avperf::makeWorkload("depth_sweep", 2020, true);
    avperf::RunOptions options;
    options.seconds = 0.0;
    options.setupReps = 1;
    options.minReps = 1;
    options.workDir =
        (fs::temp_directory_path() / "avperf-test").string();

    SpanRecorder clean_spans;
    const avperf::Outcome clean =
        avperf::runEndToEnd(w, options, clean_spans);
    EXPECT_EQ(clean.failed, 0u);
    EXPECT_EQ(clean.attempted, 12u * 11u); // 12 cold, 10 x 12 warm
    EXPECT_EQ(avperf::exitStatus(clean), 0);

    int truncated = 0;
    options.betweenPasses = [&truncated](const std::string &dir) {
        for (const auto &entry : fs::directory_iterator(dir)) {
            fs::resize_file(entry.path(),
                            fs::file_size(entry.path()) / 2);
            ++truncated;
            return;
        }
    };
    SpanRecorder spans;
    const avperf::Outcome damaged =
        avperf::runEndToEnd(w, options, spans);
    EXPECT_EQ(truncated, 1);
    EXPECT_GT(damaged.failed, 0u);
    EXPECT_GT(static_cast<double>(damaged.failed) /
                  static_cast<double>(damaged.attempted),
              0.0);
    EXPECT_NE(avperf::exitStatus(damaged), 0);
    // The damaged entry is a miss, never a crash: the simulated
    // figures still come out identical.
    EXPECT_EQ(damaged.value("sim_worst_p95_ms.ssd512"),
              clean.value("sim_worst_p95_ms.ssd512"));
    fs::remove_all(options.workDir);
}

} // namespace
