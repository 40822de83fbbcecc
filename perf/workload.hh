/**
 * @file
 * The four avperf workloads and the two passes that measure them.
 *
 * Every workload is a closed batch: all of its experiments are
 * submitted up front to one exp::Runner with a fixed worker count,
 * and the batch ends when the last result is collected. A workload
 * is defined only through AVScope's public API (ExperimentSpec,
 * Runner, chaos::CampaignRunner), so the benchmark measures what a
 * user of the library would see.
 *
 * Inputs come from the seed alone. The world layout is the paper
 * default scene (scenario seed 2020) and chaos_faulted runs the
 * standing campaign (campaign seed 2028); the benchmark seed moves the
 * camera's phase against the LiDAR and lengthens the drive by up to
 * three camera periods. A different scene or campaign per run would
 * make host cost swing by more than any bound the benchmark could
 * hold (see README.md).
 */

#ifndef AVPERF_WORKLOAD_HH
#define AVPERF_WORKLOAD_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "spans.hh"

namespace avperf {

enum class WorkloadKind {
    PaperDrive,     ///< full stack x 3 detectors (Fig. 6, Table VI)
    VisionIsolated, ///< isolatedVision() x 3 detectors (Fig. 8)
    DepthSweep,     ///< 3 detectors x 4 /image_raw queue depths
    ChaosFaulted,   ///< one fault campaign per detector
};

/** One named workload, fully determined by (name, seed, smoke). */
struct Workload
{
    std::string name;
    WorkloadKind kind = WorkloadKind::PaperDrive;
    std::uint64_t seed = 2020;
    long driveSeconds = 20;
    unsigned jobs = 3;
    /** Campaign cells per detector (chaos_faulted only). */
    std::size_t cellsPerDetector = 0;

    /** Drive inputs shared by every experiment of the workload. */
    av::exp::ExperimentSpec driveSpec() const;

    /**
     * The experiments of one batch, in submit order. Empty for
     * chaos_faulted, whose cells chaos::CampaignRunner samples when
     * the batch runs.
     */
    std::vector<av::exp::ExperimentSpec> specs() const;
};

/** Names accepted by makeWorkload(), in benchmark order. */
const std::vector<std::string> &workloadNames();

/**
 * Build a workload; @p smoke shrinks drives and campaigns to a few
 * seconds of host time. Throws std::invalid_argument on an unknown
 * name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      bool smoke);

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** What one avperf process measured and checked. */
struct Outcome
{
    std::vector<Metric> metrics;
    /** Operations attempted: every cold and warm experiment, and
     *  every replay of the traced pass. */
    std::size_t attempted = 0;
    /** Operations that threw, timed out or failed a check. */
    std::size_t failed = 0;
    /** One line per failed check. */
    std::vector<std::string> failures;
    /** Human-readable notes printed beside the metrics. */
    std::vector<std::string> notes;

    void fail(const std::string &why);
    double value(const std::string &name) const;
};

/** Process exit status for an outcome: 0 only when nothing failed. */
int exitStatus(const Outcome &outcome);

struct RunOptions
{
    /** Host seconds the end-to-end loop measures for. */
    double seconds = 15.0;
    /** Scratch directory for result caches (created, then removed). */
    std::string workDir;
    /** Timed set-up repetitions (prof::makeDrive calls). */
    int setupReps = 3;
    /** Batches measured at least, however long they take. */
    int minReps = 3;
    /**
     * Called with the cold pass's cache directory before the warm
     * pass reads it; lets a test damage an entry.
     */
    std::function<void(const std::string &)> betweenPasses;
};

/**
 * End-to-end pass: time set-up, then repeat the cold batch plus its
 * warm re-runs until RunOptions::seconds have passed; report medians
 * and the simulated headline figures.
 */
Outcome runEndToEnd(const Workload &workload, const RunOptions &options,
                    SpanRecorder &spans);

/**
 * Traced pass: one cold batch + warm re-runs, then the workload's first
 * experiment replayed untraced and traced, then every perception
 * kernel called from outside on the recorded frames, once with the
 * µarch profilers attached and once detached. Reports per-layer
 * metrics.
 */
Outcome runTraced(const Workload &workload, const RunOptions &options,
                  SpanRecorder &spans);

/** The kernels the traced pass times, as "<module>.<kernel>". */
const std::vector<std::string> &kernelNames();

/**
 * Call every enabled perception kernel of @p stack over the drive's
 * /points_raw and /image_raw frames in stamp order, one span per
 * call named after the kernel (suffixed ".detached" when
 * @p attached is false).
 */
void runKernelPass(const av::prof::DriveData &drive,
                   const av::stack::StackOptions &stack, bool attached,
                   SpanRecorder &spans);

} // namespace avperf

#endif // AVPERF_WORKLOAD_HH
