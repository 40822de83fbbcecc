/**
 * @file
 * Host-time span recorder for the avperf benchmark.
 *
 * A span is one timed call into AVScope's public API: a name, a start
 * and end on the host's steady clock, and the span that was open when
 * it began (its parent). Spans are kept in memory and written out
 * when the benchmark ends, as plain JSON or as Chrome trace-event
 * JSON (loadable in Perfetto or chrome://tracing).
 *
 * Self time is a span's duration minus the part of that interval its
 * children cover; overlapping children are counted once.
 *
 * The recorder is single-threaded by design: avperf opens spans only
 * from its main thread, around calls that may themselves fan out to
 * worker threads inside AVScope.
 */

#ifndef AVPERF_SPANS_HH
#define AVPERF_SPANS_HH

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace avperf {

/** One recorded span; times are µs since the recorder was created. */
struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0; ///< < startUs while the span is still open
    int parent = -1;    ///< index into SpanRecorder::spans(), or -1

    double durationUs() const { return endUs - startUs; }
};

class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span nested under the innermost open one. */
    int begin(std::string name);

    /** Close span @p id (and any span opened inside it still open). */
    void end(int id);

    /** Record a closed span with explicit times (for tests). */
    int add(std::string name, double start_us, double end_us,
            int parent = -1);

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the union of the children's intervals. */
    double selfUs(int id) const;

    /** Durations (µs) of every closed span called @p name. */
    std::vector<double> durationsUs(const std::string &name) const;

    /** Sum of durationsUs(@p name), in ms. */
    double totalMs(const std::string &name) const;

    /** `{"spans": [{name, start_us, end_us, self_us, parent}...]}` */
    std::string toJson() const;

    /** Chrome trace-event JSON: one complete ("X") event per span. */
    std::string toChromeTrace() const;

  private:
    double nowUs() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_; ///< stack of open span ids
};

/** RAII span: begins on construction, ends on destruction or stop(). */
class Scope
{
  public:
    Scope(SpanRecorder &recorder, std::string name);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** End the span now; returns its duration in seconds. */
    double stop();

  private:
    SpanRecorder &recorder_;
    int id_;
    bool open_ = true;
};

/** Quantile @p q in [0, 1] of @p values by linear interpolation. */
double quantile(std::vector<double> values, double q);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** JSON string literal for @p text, quotes included. */
std::string jsonString(const std::string &text);

/** Shortest decimal that reads back as exactly @p value. */
std::string jsonNumber(double value);

} // namespace avperf

#endif // AVPERF_SPANS_HH
