#include "chaos/chaos.hh"

#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "stack/safety.hh"

namespace av::chaos {

namespace {

constexpr sim::Tick kGrid = 50 * sim::oneMs;
constexpr sim::Tick kDurationFloor = 100 * sim::oneMs;
constexpr sim::Tick kRespawnFloor = 200 * sim::oneMs;
constexpr sim::Tick kDelayFloor = 20 * sim::oneMs;
constexpr double kProbabilityFloor = 1.0 / 16.0;

/** Round to the 1/64 intensity grid (exact in binary). */
double
quant64(double value)
{
    return static_cast<double>(std::llround(value * 64.0)) / 64.0;
}

/** Halve a window, quantized down to the 50 ms grid, floored. */
sim::Tick
halveTick(sim::Tick value, sim::Tick floor)
{
    const sim::Tick half = (value / 2 / kGrid) * kGrid;
    return std::max(half, floor);
}

sim::Tick
halveDelay(sim::Tick value)
{
    constexpr sim::Tick grid = 10 * sim::oneMs;
    const sim::Tick half = (value / 2 / grid) * grid;
    return std::max(half, kDelayFloor);
}

/**
 * Serial candidate evaluator: one submit/result round-trip per
 * distinct candidate (memoized by cache key within the search), so
 * the minimization executes identically for any --jobs value and
 * every candidate it replays lands in the shared result cache.
 */
class Evaluator
{
  public:
    Evaluator(exp::Runner &runner, const exp::ExperimentSpec &base)
        : runner_(runner), base_(base)
    {
    }

    exp::ExperimentSpec specFor(const fault::FaultPlan &plan)
    {
        exp::ExperimentSpec out = base_;
        out.config.faults = plan;
        out.label = base_.label + "/minimize";
        return out;
    }

    const prof::RunResult &run(const fault::FaultPlan &plan)
    {
        ++evaluations_;
        return runner_.result(runner_.submit(specFor(plan)));
    }

    bool violates(const fault::FaultPlan &plan,
                  stack::InvariantKind target)
    {
        const std::string key = exp::cacheKey(specFor(plan));
        auto it = memo_.find(key);
        if (it != memo_.end())
            return it->second;
        const bool hit = run(plan).violationsOf(target) > 0;
        memo_.emplace(key, hit);
        return hit;
    }

    void memoize(const fault::FaultPlan &plan, bool violates)
    {
        memo_.emplace(exp::cacheKey(specFor(plan)), violates);
    }

    std::uint64_t evaluations() const { return evaluations_; }

  private:
    exp::Runner &runner_;
    const exp::ExperimentSpec &base_;
    std::map<std::string, bool> memo_;
    std::uint64_t evaluations_ = 0;
};

std::string
msText(sim::Tick ticks)
{
    std::ostringstream os;
    os << ticks / sim::oneMs << "ms";
    return os.str();
}

} // namespace

MinimizeResult
minimizeViolation(exp::Runner &runner,
                  const exp::ExperimentSpec &base,
                  const fault::FaultPlan &plan)
{
    Evaluator eval(runner, base);
    const prof::RunResult &first = eval.run(plan);
    if (first.violations.empty())
        throw std::invalid_argument(
            "minimizeViolation: the plan does not violate any "
            "armed invariant — nothing to shrink");

    MinimizeResult result;
    result.invariant = first.violations.front().kind;
    const stack::InvariantKind target = result.invariant;
    eval.memoize(plan, true);

    fault::FaultPlan current = plan;
    bool changed = true;
    // One candidate step: @p edit a copy of the current plan, and
    // adopt the copy when it still violates the target.
    const auto attempt = [&](std::string action, const auto &edit) {
        fault::FaultPlan cand = current;
        edit(cand.faults);
        const bool kept = eval.violates(cand, target);
        result.steps.push_back({std::move(action), kept});
        if (kept) {
            current = std::move(cand);
            changed = true;
        }
        return kept;
    };
    while (changed) {
        changed = false;

        // Pass 1 — drop whole faults (never below one: an empty
        // plan is not a fault repro).
        for (std::size_t i = 0;
             current.faults.size() > 1 && i < current.faults.size();) {
            if (!attempt("drop:" + fault::faultLabel(current.faults[i]),
                         [i](auto &faults) {
                             faults.erase(faults.begin() +
                                          static_cast<std::ptrdiff_t>(i));
                         }))
                ++i;
        }

        // Pass 2 — halve windows (duration, crash respawn).
        for (std::size_t i = 0; i < current.faults.size(); ++i) {
            const fault::FaultSpec spec = current.faults[i];
            if (spec.duration > kDurationFloor) {
                const sim::Tick half =
                    halveTick(spec.duration, kDurationFloor);
                if (half < spec.duration)
                    attempt("shorten:" + fault::faultLabel(spec) +
                                "->" + msText(half),
                            [&](auto &faults) {
                                faults[i].duration = half;
                            });
            }
            const fault::FaultSpec again = current.faults[i];
            if (again.respawnDelay > kRespawnFloor) {
                const sim::Tick half =
                    halveTick(again.respawnDelay, kRespawnFloor);
                if (half < again.respawnDelay)
                    attempt("respawn:" + fault::faultLabel(again) +
                                "->" + msText(half),
                            [&](auto &faults) {
                                faults[i].respawnDelay = half;
                            });
            }
        }

        // Pass 3 — weaken intensities (probability, throttle
        // factor, delay surcharge).
        for (std::size_t i = 0; i < current.faults.size(); ++i) {
            const fault::FaultSpec spec = current.faults[i];
            const bool probabilistic =
                spec.kind == fault::FaultKind::FrameLoss ||
                spec.kind == fault::FaultKind::MessageDuplicate ||
                spec.kind == fault::FaultKind::MessageCorrupt;
            if (probabilistic &&
                spec.probability > kProbabilityFloor) {
                const double weaker = std::max(
                    kProbabilityFloor,
                    quant64(spec.probability / 2.0));
                if (weaker < spec.probability) {
                    std::ostringstream action;
                    action << "weaken:" << fault::faultLabel(spec)
                           << "->p=" << weaker;
                    attempt(action.str(), [&](auto &faults) {
                        faults[i].probability = weaker;
                    });
                }
            }
            if (spec.kind == fault::FaultKind::GpuThrottle) {
                const double weaker =
                    quant64((spec.factor + 1.0) / 2.0);
                if (weaker > spec.factor && weaker < 1.0) {
                    std::ostringstream action;
                    action << "weaken:" << fault::faultLabel(spec)
                           << "->factor=" << weaker;
                    attempt(action.str(), [&](auto &faults) {
                        faults[i].factor = weaker;
                    });
                }
            }
            if (spec.kind == fault::FaultKind::MessageDelay &&
                spec.extraDelay > kDelayFloor) {
                const sim::Tick weaker =
                    halveDelay(spec.extraDelay);
                if (weaker < spec.extraDelay)
                    attempt("weaken:" + fault::faultLabel(spec) +
                                "->extra=" + msText(weaker),
                            [&](auto &faults) {
                                faults[i].extraDelay = weaker;
                            });
            }
        }
    }

    result.plan = std::move(current);
    result.evaluations = eval.evaluations();
    return result;
}

} // namespace av::chaos
