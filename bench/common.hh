/**
 * @file
 * Shared scaffolding for the table/figure benches: common flags and
 * the experiment Runner every bench submits its specs to.
 *
 * Every bench accepts the commonOptions() flag set:
 *   --duration <s>   drive length (default 60; the paper used 480)
 *   --seed <n>       scenario seed
 *   --csv            machine-readable output
 *   --jobs <n>       worker threads (default: hardware concurrency)
 *   --cache-dir <d>  result-cache directory (default results/cache)
 *   --no-cache       disable the result cache
 *   --trace          retain the full trace event stream: every spec
 *                    from spec() carries .traced(), so each result
 *                    arrives with its execution DAG attached
 *
 * Benches describe runs as ExperimentSpecs and submit them to the
 * shared Runner — submitting everything up front and collecting
 * afterwards fans the replays out across the worker pool, and
 * repeated invocations of the same experiment come back from the
 * on-disk cache without replaying at all.
 */

#ifndef AVSCOPE_BENCH_COMMON_HH
#define AVSCOPE_BENCH_COMMON_HH

#include <functional>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "options.hh"
#include "util/json.hh"
#include "util/table.hh"

namespace av::bench {

/** The three detector scenarios of the paper. */
inline const std::vector<perception::DetectorKind> detectors = {
    perception::DetectorKind::Ssd512,
    perception::DetectorKind::Ssd300,
    perception::DetectorKind::Yolov3,
};

/** Nodes in the paper's Fig. 5 order. */
inline const std::vector<std::string> fig5Nodes = {
    "voxel_grid_filter",
    "ndt_matching",
    "ray_ground_filter",
    "euclidean_cluster",
    "vision_detection",
    "range_vision_fusion",
    "imm_ukf_pda_tracker",
    "naive_motion_prediction",
    "costmap_generator_obj",
    "costmap_generator_points",
};

/** The six nodes of the paper's Table VII / Fig. 7. */
inline const std::vector<std::string> tab7Nodes = {
    "vision_detection",
    "euclidean_cluster",
    "ndt_matching",
    "imm_ukf_pda_tracker",
    "costmap_generator",
    "ray_ground_filter",
};

/**
 * Parse argv against @p options, turning a diagnostic into exit(2).
 * BenchOptions throws so the message is unit-testable; a binary just
 * wants the text on stderr and a conventional usage-error status.
 * A positional argument is a usage error too.
 */
BenchOptions parseOrExit(BenchOptions options, int argc, char **argv);

/** Parsed environment + experiment engine shared by all benches. */
class BenchEnv
{
  public:
    /**
     * Parse argv against @p options (commonOptions() by default;
     * benches with extra flags chain them on before passing) and
     * build the Runner. A parse error prints the diagnostic plus
     * usage and exits with status 2.
     */
    BenchEnv(int argc, char **argv,
             BenchOptions options = commonOptions());

    const BenchOptions &options() const { return options_; }
    bool csv() const { return csv_; }
    bool trace() const { return trace_; }
    sim::Tick duration() const { return duration_; }
    std::uint64_t seed() const { return seed_; }

    /** Base spec carrying the --duration / --seed flags. */
    exp::ExperimentSpec spec() const;

    /** Spec for one detector, labeled with the detector's name. */
    exp::ExperimentSpec spec(perception::DetectorKind kind) const;

    /** The experiment engine; submit specs and collect results. */
    exp::Runner &runner() { return runner_; }

    /** Submit one spec and wait for its result. */
    const prof::RunResult &run(const exp::ExperimentSpec &spec);

    /** Run the default configuration of one detector. */
    const prof::RunResult &run(perception::DetectorKind kind);

    /** Print a table as text or CSV per the --csv flag. */
    void print(const util::Table &table) const;

  private:
    static exp::RunnerConfig
    runnerConfig(const BenchOptions &options);

    BenchOptions options_;
    bool csv_ = false;
    bool trace_ = false;
    sim::Tick duration_ = 0;
    std::uint64_t seed_ = 2020;
    exp::Runner runner_;
};

/**
 * Assert the zero-copy contract on a finished run: every deep
 * payload copy must have been forced by a transport fault, and a
 * clean (unfaulted) run must have made none at all.
 */
void assertZeroCopy(const prof::RunResult &run);

/**
 * Write a bench's JSON artifact: open @p path, let @p emit fill it,
 * flush it and report on stderr. An empty path skips it. False if
 * the file cannot be written: the bench then exits non-zero.
 */
bool writeArtifact(const std::string &path,
                   const std::function<void(util::JsonWriter &)> &emit);

} // namespace av::bench

#endif // AVSCOPE_BENCH_COMMON_HH
