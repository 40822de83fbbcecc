/**
 * @file
 * Statistics containers used by the characterization harness.
 *
 * The paper reports latency *distributions* (Fig. 5/6 violins: min,
 * first quartile, mean, third quartile, max) plus mean/σ pairs
 * (Fig. 8) and tail percentiles in the text. SampleSeries keeps the
 * raw samples (with optional reservoir capping) so all of those can
 * be derived after a run; RunningStats is the cheap streaming
 * companion for high-rate integration (power, utilization).
 */

#ifndef AVSCOPE_UTIL_STATS_HH
#define AVSCOPE_UTIL_STATS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace av::util {

/**
 * Streaming mean/variance/min/max accumulator (Welford).
 */
class RunningStats
{
  public:
    /**
     * Serializable snapshot of the accumulator. The result cache
     * (src/exp) persists these so a reloaded run reproduces every
     * derived statistic bit-for-bit.
     */
    struct State
    {
        std::size_t n = 0;
        double mean = 0.0;
        double m2 = 0.0;
        double sum = 0.0;
        double min = std::numeric_limits<double>::infinity();
        double max = -std::numeric_limits<double>::infinity();
    };

    /** Snapshot the full internal state. */
    State state() const;

    /** Rebuild an accumulator from a snapshot. */
    static RunningStats fromState(const State &state);

    /** Add one observation. */
    void add(double x);

    /** Number of observations so far. */
    std::size_t count() const { return n_; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance; 0 with fewer than two samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest observation; +inf when empty. */
    double min() const { return min_; }

    /** Largest observation; -inf when empty. */
    double max() const { return max_; }

    /** Sum of all observations. */
    double sum() const { return sum_; }

    /** Merge another accumulator into this one (parallel Welford). */
    void merge(const RunningStats &other);

    /** Forget everything. */
    void reset();

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Five-number-plus summary of a distribution, matching the violin
 * annotations in the paper's Fig. 5/6.
 */
struct DistributionSummary
{
    std::size_t count = 0;
    double min = 0.0;
    double q1 = 0.0;     ///< first quartile (dashed line in Fig. 5)
    double median = 0.0;
    double mean = 0.0;   ///< white circle in Fig. 5
    double q3 = 0.0;     ///< third quartile
    double p99 = 0.0;    ///< tail latency the text discusses
    double max = 0.0;    ///< solid line in Fig. 5
    double stddev = 0.0; ///< error bars in Fig. 8
};

/**
 * Sample container that can answer arbitrary quantile queries.
 *
 * Stores samples verbatim up to @p capacity, then switches to
 * reservoir sampling (Vitter's algorithm R) so memory stays bounded
 * on long drives while quantiles stay unbiased. Exact min/max/mean
 * are tracked separately and are never approximated.
 */
class SampleSeries
{
  public:
    explicit SampleSeries(std::size_t capacity = 1u << 16,
                          std::uint64_t seed = 12345);

    /** Add one observation. */
    void add(double x);

    /** Total observations offered (not just retained). */
    std::size_t count() const { return stats_.count(); }

    /** Exact streaming stats (mean/min/max/σ over *all* samples). */
    const RunningStats &running() const { return stats_; }

    /**
     * Quantile in [0, 1] by linear interpolation over retained
     * samples. q=0 / q=1 return the exact min / max.
     */
    double quantile(double q) const;

    /** Full summary for reporting. */
    DistributionSummary summarize() const;

    /**
     * Rebuild a series from persisted state (the result cache):
     * exact streaming stats plus the retained sample multiset.
     * Quantiles, summaries and histograms of the rebuilt series are
     * identical to the original's; reservoir admission for *further*
     * add() calls is not replayed, so rebuilt series are treated as
     * read-only measurement results.
     */
    static SampleSeries fromState(const RunningStats::State &stats,
                                  std::vector<double> samples);

    /**
     * Histogram with @p bins equal-width buckets over [min, max];
     * used to render the violin thickness profiles.
     */
    std::vector<std::size_t> histogram(std::size_t bins) const;

    /**
     * Retained (possibly subsampled) raw values in insertion order.
     * Reads never reorder them: quantiles and summaries sort a copy,
     * so what is serialized does not depend on what was read, and
     * const reads from several threads do not race.
     */
    const std::vector<double> &samples() const { return samples_; }

    /** Forget everything. */
    void reset();

  private:
    /** Ascending copy of the retained samples. */
    std::vector<double> sortedSamples() const;

    /** quantile() over an ascending copy from sortedSamples(). */
    double quantileOf(const std::vector<double> &sorted,
                      double q) const;

    std::size_t capacity_;
    std::uint64_t rngState_;
    RunningStats stats_;
    std::vector<double> samples_;
};

} // namespace av::util

#endif // AVSCOPE_UTIL_STATS_HH
