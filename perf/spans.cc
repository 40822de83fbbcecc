#include "spans.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace avperf {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now())
{}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
SpanRecorder::begin(std::string name)
{
    const int parent = open_.empty() ? -1 : open_.back();
    const double now = nowUs();
    spans_.push_back({std::move(name), now, now - 1.0, parent});
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    const auto it = std::find(open_.begin(), open_.end(), id);
    if (it == open_.end())
        return; // already closed
    const double now = nowUs();
    for (auto inner = it; inner != open_.end(); ++inner)
        spans_[static_cast<std::size_t>(*inner)].endUs = now;
    open_.erase(it, open_.end());
}

int
SpanRecorder::add(std::string name, double start_us, double end_us,
                  int parent)
{
    if (end_us < start_us)
        throw std::invalid_argument("span ends before it starts");
    spans_.push_back({std::move(name), start_us, end_us, parent});
    return static_cast<int>(spans_.size()) - 1;
}

double
SpanRecorder::selfUs(int id) const
{
    const Span &span = spans_.at(static_cast<std::size_t>(id));
    std::vector<std::pair<double, double>> covered;
    for (const Span &child : spans_) {
        if (child.parent != id || child.endUs < child.startUs)
            continue;
        const double lo = std::max(child.startUs, span.startUs);
        const double hi = std::min(child.endUs, span.endUs);
        if (hi > lo)
            covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double busy = 0.0;
    double reach = span.startUs;
    for (const auto &[lo, hi] : covered) {
        const double from = std::max(lo, reach);
        if (hi > from)
            busy += hi - from;
        reach = std::max(reach, hi);
    }
    return std::max(0.0, span.durationUs() - busy);
}

std::vector<double>
SpanRecorder::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_) {
        if (span.name == name && span.endUs >= span.startUs)
            out.push_back(span.durationUs());
    }
    return out;
}

double
SpanRecorder::totalMs(const std::string &name) const
{
    double sum = 0.0;
    for (double us : durationsUs(name))
        sum += us;
    return sum / 1000.0;
}

std::string
SpanRecorder::toJson() const
{
    std::string out = "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out += i ? ",\n  " : "\n  ";
        out += "{\"name\": " + jsonString(span.name) +
               ", \"start_us\": " + jsonNumber(span.startUs) +
               ", \"end_us\": " + jsonNumber(span.endUs) +
               ", \"self_us\": " +
               jsonNumber(selfUs(static_cast<int>(i))) +
               ", \"parent\": " + std::to_string(span.parent) + "}";
    }
    out += "\n]}\n";
    return out;
}

std::string
SpanRecorder::toChromeTrace() const
{
    std::string out =
        "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const Span &span : spans_) {
        if (span.endUs < span.startUs)
            continue;
        out += first ? "\n  " : ",\n  ";
        first = false;
        out += "{\"name\": " + jsonString(span.name) +
               ", \"cat\": \"avperf\", \"ph\": \"X\", \"ts\": " +
               jsonNumber(span.startUs) +
               ", \"dur\": " + jsonNumber(span.durationUs()) +
               ", \"pid\": 1, \"tid\": 1}";
    }
    out += "\n]}\n";
    return out;
}

Scope::Scope(SpanRecorder &recorder, std::string name)
    : recorder_(recorder), id_(recorder.begin(std::move(name)))
{}

Scope::~Scope()
{
    stop();
}

double
Scope::stop()
{
    if (open_) {
        recorder_.end(id_);
        open_ = false;
    }
    return recorder_.spans()[static_cast<std::size_t>(id_)]
               .durationUs() /
           1e6;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = std::clamp(q, 0.0, 1.0) *
                       static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        throw std::invalid_argument(
            "non-finite value has no JSON form");
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, res.ptr);
}

} // namespace avperf
