#include "exp/cache.hh"

#include <bit>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>

namespace av::exp {

namespace {

constexpr const char *kMagic = "avscope-result";
constexpr int kVersion = 6; // v6: transport line drops the mode name

// ---- token wrappers ---------------------------------------------

/** The rest of the line, spaces included (the run label). */
struct Rest
{
    std::string &text;
};

/** A token that may be empty, written as "-" (terminal topic). */
struct Dash
{
    std::string &text;
};

// ---- the field list ---------------------------------------------

/** A per-owner seconds row or a resilience counter. */
using NamedValue = std::pair<std::string, double>;

/**
 * The entry format: one field list per record, walked by Writer to
 * emit an entry and by Reader to parse it, so a field cannot be
 * written without being read. An entry is lines of space-separated
 * tokens: `line` is a keyword and its values, `list` a keyword, a
 * row count and one row per line. Doubles are bit-exact, so a
 * reloaded result re-serializes byte-identically — which is what the
 * cross-jobs and cache-state determinism tests compare. Names,
 * topics, labels and bottleneck classes are token-safe by
 * construction (violation subjects are topics or "actor_<id>").
 */
template <class Ar, class T>
void
fields(Ar &ar, T &r)
{
    if constexpr (std::is_same_v<T, prof::RunResult>) {
        ar.line(kMagic, kVersion);
        ar.line("label", Rest{r.label});
        ar.list("nodes", r.nodes);
        ar.list("paths", r.paths);
        ar.list("drops", r.drops);
        ar.list("counters", r.counters);
        ar.list("utilization", r.utilization);
        ar.line("totals", r.totalCpu, r.totalGpu);
        ar.line("power", r.cpuWatts, r.gpuWatts, r.cpuEnergyJ,
                r.gpuEnergyJ);
        ar.list("cpuowners", r.cpuSecondsByOwner);
        ar.list("gpuowners", r.gpuSecondsByOwner);
        ar.list("staleness", r.staleness);
        ar.list("resilience", r.resilience);
        ar.list("faults", r.faults);
        ar.list("violations", r.violations);
        ar.line("transport", r.transport);
        ar.line("trace", r.trace.enabled, r.trace.events,
                r.trace.criticalPathMs, Dash{r.trace.terminalTopic});
        ar.list("tracepath", r.trace.criticalPath);
        ar.list("traceslack", r.trace.nodes);
        ar.list("traceedges", r.trace.edges);
        ar.line("end");
    } else if constexpr (std::is_same_v<T, util::RunningStats::State>) {
        ar(r.n, r.mean, r.m2, r.sum, r.min, r.max);
    } else if constexpr (std::is_same_v<T, prof::NamedSeries>) {
        ar(r.name, r.series);
    } else if constexpr (std::is_same_v<T, prof::DropRow>) {
        ar(r.topic, r.node, r.delivered, r.dropped);
    } else if constexpr (std::is_same_v<T, prof::CounterRow>) {
        ar(r.node, r.ipc, r.l1ReadMissRate, r.l1WriteMissRate,
           r.branchMissRate, r.mix);
    } else if constexpr (std::is_same_v<T, uarch::OpCounts>) {
        ar(r.loads, r.stores, r.branches, r.intAlu, r.fpAlu, r.fpDiv,
           r.simd, r.other);
    } else if constexpr (std::is_same_v<T, prof::UtilizationResult>) {
        ar(r.owner, r.cpuShare, r.gpuShare);
    } else if constexpr (std::is_same_v<T, NamedValue>) {
        ar(r.first, r.second);
    } else if constexpr (std::is_same_v<T, fault::FaultOutcome>) {
        ar(r.label, r.kind, r.onset, r.windowEnd, r.watchTopic,
           r.publishedDuringWindow, r.recoveryMs, r.suppressed,
           r.corrupted, r.duplicated, r.delayed);
    } else if constexpr (std::is_same_v<T, stack::SafetyViolation>) {
        ar(r.kind, r.time, r.subject, r.value, r.bound);
    } else if constexpr (std::is_same_v<T, ros::TransportCounters>) {
        ar(r.published, r.deliveries, r.payloadCopies,
           r.loanedDeliveries, r.movedPublishes, r.forcedCopies);
    } else if constexpr (std::is_same_v<T, trace::PathStep>) {
        ar(r.node, r.topic, r.seq, r.queueWaitMs, r.computeMs);
    } else if constexpr (std::is_same_v<T, trace::NodeSlack>) {
        ar(r.node, r.activations, r.meanQueueWaitMs, r.meanSpanMs,
           r.meanCpuMs, r.meanGpuMs, r.meanStallMs, r.bottleneck);
    } else {
        static_assert(std::is_same_v<T, trace::EdgeUse>);
        ar(r.topic, r.from, r.to, r.messages);
    }
}

// ---- archives ---------------------------------------------------
//
// Overloads taking wrappers and enums by value, and the library
// value types by reference, are exact matches and so win over the
// generic record overload, which recurses into fields().

/** Writes the field list as text. */
class Writer
{
  public:
    explicit Writer(std::ostream &os) : os_(os) {}

    template <class... Ts>
    void operator()(Ts &&...values)
    {
        (put(values), ...);
    }

    template <class... Ts>
    void line(const char *section, Ts &&...values)
    {
        token(section);
        (put(values), ...);
        endLine();
    }

    template <class T>
    void list(const char *section, std::vector<T> &rows)
    {
        line(section, rows.size());
        for (T &row : rows) {
            put(row);
            endLine();
        }
    }

  private:
    template <class T>
    void token(const T &value)
    {
        if (!lineStart_)
            os_ << ' ';
        os_ << value;
        lineStart_ = false;
    }

    void endLine()
    {
        os_ << '\n';
        lineStart_ = true;
    }

    /** Doubles are bit-exact: the IEEE pattern as 16 hex digits. */
    template <class T>
        requires std::is_arithmetic_v<T>
    void put(T &value)
    {
        if constexpr (std::is_floating_point_v<T>) {
            auto bits = std::bit_cast<std::uint64_t>(value);
            char hex[17] = {};
            for (int i = 15; i >= 0; --i, bits >>= 4)
                hex[i] = "0123456789abcdef"[bits & 0xf];
            token(hex);
        } else {
            token(value);
        }
    }

    void put(std::string &text) { token(text); }
    void put(Rest rest) { os_ << ' ' << rest.text; }
    void put(Dash d) { token(d.text.empty() ? "-" : d.text); }
    void put(fault::FaultKind k) { token(fault::faultKindName(k)); }
    void put(stack::InvariantKind k) { token(stack::invariantName(k)); }

    void put(util::RunningStats &stats)
    {
        util::RunningStats::State s = stats.state();
        fields(*this, s);
    }

    void put(util::SampleSeries &series)
    {
        util::RunningStats::State s = series.running().state();
        fields(*this, s);
        token(series.samples().size());
        for (double v : series.samples())
            put(v);
    }

    template <class T>
    void put(T &record)
    {
        fields(*this, record);
    }

    std::ostream &os_;
    bool lineStart_ = true;
};

/**
 * Parses the field list back. The first token that does not fit — a
 * wrong keyword, a malformed double, an unknown name, a mismatched
 * literal or an implausible count — fails the stream, and every
 * later read is a no-op.
 */
class Reader
{
  public:
    explicit Reader(std::istream &is) : is_(is) {}

    template <class... Ts>
    void operator()(Ts &&...values)
    {
        (get(values), ...);
    }

    template <class... Ts>
    void line(const char *section, Ts &&...values)
    {
        std::string word;
        if (!(is_ >> word) || word != section)
            fail();
        (get(values), ...);
    }

    template <class T>
    void list(const char *section, std::vector<T> &rows)
    {
        std::size_t n = 0;
        line(section, n);
        readRows(n, rows);
    }

  private:
    void fail() { is_.setstate(std::ios::failbit); }

    /**
     * Read @p n rows. A count above the bound fails outright: a
     * corrupted count must make the entry a miss, not drive a huge
     * allocation. Real entries stay far below it (~10 nodes; series
     * keep a few thousand samples).
     */
    template <class T>
    void readRows(std::size_t n, std::vector<T> &rows)
    {
        if (n > (std::size_t(1) << 20))
            fail();
        rows.clear();
        rows.reserve(is_ ? n : 0);
        while (is_ && rows.size() < n)
            get(rows.emplace_back());
    }

    template <class T>
        requires std::is_arithmetic_v<T>
    void get(T &value)
    {
        if constexpr (std::is_floating_point_v<T>) {
            std::string hex;
            std::uint64_t bits = 0;
            is_ >> hex;
            const char *end = hex.data() + hex.size();
            if (hex.size() != 16 ||
                std::from_chars(hex.data(), end, bits, 16).ptr != end)
                fail();
            value = std::bit_cast<double>(bits);
        } else {
            is_ >> value;
        }
    }

    /** A literal in the field list (the format version) must match. */
    void get(const int &literal)
    {
        int value = 0;
        if (!(is_ >> value) || value != literal)
            fail();
    }

    void get(std::string &text) { is_ >> text; }

    void get(Rest rest)
    {
        std::getline(is_, rest.text);
        if (!rest.text.empty() && rest.text.front() == ' ')
            rest.text.erase(0, 1);
    }

    void get(Dash d)
    {
        if ((is_ >> d.text) && d.text == "-")
            d.text.clear();
    }

    void get(fault::FaultKind &kind)
    {
        std::string text;
        if (!(is_ >> text) || !fault::faultKindFromName(text, kind))
            fail();
    }

    void get(stack::InvariantKind &kind)
    {
        std::string text;
        if (!(is_ >> text) || !stack::invariantFromName(text, kind))
            fail();
    }

    void get(util::RunningStats &stats)
    {
        util::RunningStats::State s;
        fields(*this, s);
        stats = util::RunningStats::fromState(s);
    }

    void get(util::SampleSeries &series)
    {
        util::RunningStats::State s;
        fields(*this, s);
        std::size_t n = 0;
        std::vector<double> kept;
        get(n);
        readRows(n, kept);
        series = util::SampleSeries::fromState(s, std::move(kept));
    }

    template <class T>
    void get(T &record)
    {
        fields(*this, record);
    }

    std::istream &is_;
};

} // namespace

ResultCache::ResultCache(std::string directory)
    : directory_(std::move(directory))
{
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    return (std::filesystem::path(directory_) / (key + ".result"))
        .string();
}

std::optional<prof::RunResult>
ResultCache::load(const std::string &key) const
{
    if (!enabled())
        return std::nullopt;
    std::ifstream is(entryPath(key));
    if (!is)
        return std::nullopt;
    prof::RunResult run;
    Reader reader(is);
    fields(reader, run);
    if (!is)
        return std::nullopt;
    return run;
}

bool
ResultCache::store(const std::string &key,
                   const prof::RunResult &result) const
{
    if (!enabled())
        return false;
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    if (ec)
        return false;

    // Unique temp name per writer thread: two jobs storing the same
    // key race only on the final atomic rename, never on content.
    std::ostringstream suffix;
    suffix << ".tmp-" << std::this_thread::get_id();
    const std::string temp = entryPath(key) + suffix.str();
    {
        std::ofstream os(temp, std::ios::trunc);
        if (!os)
            return false;
        // The field list is shared with Reader, so it takes mutable
        // references; Writer only reads through them.
        Writer writer(os);
        fields(writer, const_cast<prof::RunResult &>(result));
        if (!os.flush())
            return false;
    }
    std::filesystem::rename(temp, entryPath(key), ec);
    if (ec) {
        std::filesystem::remove(temp, ec);
        return false;
    }
    return true;
}

} // namespace av::exp
