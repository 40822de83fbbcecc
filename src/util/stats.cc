#include "util/stats.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace av::util {

void
RunningStats::add(double x)
{
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
RunningStats::reset()
{
    *this = RunningStats();
}

RunningStats::State
RunningStats::state() const
{
    return State{n_, mean_, m2_, sum_, min_, max_};
}

RunningStats
RunningStats::fromState(const State &state)
{
    RunningStats out;
    out.n_ = state.n;
    out.mean_ = state.mean;
    out.m2_ = state.m2;
    out.sum_ = state.sum;
    out.min_ = state.min;
    out.max_ = state.max;
    return out;
}

SampleSeries::SampleSeries(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rngState_(seed ? seed : 1)
{
    AV_ASSERT(capacity_ > 0, "SampleSeries capacity must be positive");
    samples_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void
SampleSeries::add(double x)
{
    stats_.add(x);
    if (samples_.size() < capacity_) {
        samples_.push_back(x);
        return;
    }
    // Reservoir: keep each of the N offered samples with equal
    // probability capacity/N.
    rngState_ ^= rngState_ << 13;
    rngState_ ^= rngState_ >> 7;
    rngState_ ^= rngState_ << 17;
    const std::size_t slot = rngState_ % stats_.count();
    if (slot < capacity_)
        samples_[slot] = x;
}

std::vector<double>
SampleSeries::sortedSamples() const
{
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
}

double
SampleSeries::quantileOf(const std::vector<double> &sorted,
                         double q) const
{
    if (sorted.empty())
        return 0.0;
    if (q <= 0.0)
        return stats_.min();
    if (q >= 1.0)
        return stats_.max();
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
SampleSeries::quantile(double q) const
{
    return quantileOf(sortedSamples(), q);
}

DistributionSummary
SampleSeries::summarize() const
{
    DistributionSummary s;
    s.count = stats_.count();
    if (s.count == 0)
        return s;
    s.min = stats_.min();
    s.max = stats_.max();
    s.mean = stats_.mean();
    s.stddev = stats_.stddev();
    const std::vector<double> sorted = sortedSamples();
    s.q1 = quantileOf(sorted, 0.25);
    s.median = quantileOf(sorted, 0.50);
    s.q3 = quantileOf(sorted, 0.75);
    s.p99 = quantileOf(sorted, 0.99);
    return s;
}

std::vector<std::size_t>
SampleSeries::histogram(std::size_t bins) const
{
    std::vector<std::size_t> out(bins, 0);
    if (samples_.empty() || bins == 0)
        return out;
    const double lo = stats_.min();
    const double hi = stats_.max();
    const double width = (hi - lo) / static_cast<double>(bins);
    for (double v : samples_) {
        std::size_t b = 0;
        if (width > 0.0)
            b = static_cast<std::size_t>((v - lo) / width);
        out[std::min(b, bins - 1)]++;
    }
    return out;
}

SampleSeries
SampleSeries::fromState(const RunningStats::State &stats,
                        std::vector<double> samples)
{
    SampleSeries out(std::max<std::size_t>(1u << 16,
                                           samples.size()));
    out.stats_ = RunningStats::fromState(stats);
    out.samples_ = std::move(samples);
    return out;
}

void
SampleSeries::reset()
{
    stats_.reset();
    samples_.clear();
}

} // namespace av::util
