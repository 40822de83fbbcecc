/**
 * @file
 * Runner — the experiment engine: executes ExperimentSpecs on a
 * fixed-size pool of host threads and returns RunResults in submit
 * order, consulting the on-disk ResultCache first.
 *
 * Determinism contract: every characterization replay owns its
 * entire simulation state (EventQueue, Machine, RosGraph, stack,
 * RNG streams are all per-run objects), so runs are independent
 * pure functions of their spec and can execute on any thread in any
 * order. The only cross-thread structures are this class's job
 * queue, the drive memo, each drive's invocation memos and the
 * logger — all mutex- or atomic-protected. An invocation memo entry
 * does feed a replay, but only with what that replay would compute
 * itself. Results are therefore byte-identical for any worker count,
 * which tests/exp/test_runner.cc asserts.
 *
 * Drives are recorded at most once per distinct (scenario,
 * recorder, duration) via an in-process memo, and only when a cache
 * miss actually forces a replay — a fully cached invocation records
 * no drive at all, which is where the second-run wall-clock win
 * comes from. A drive's NDT map is built at most once too, and only
 * for the first job whose stack localizes: a batch of isolated
 * (Fig. 8) replays records the bag and never runs the mapping pass.
 *
 * A drive's replays also share the LiDAR front end: the Runner
 * attaches one perception::InvocationMemo per node (ray_ground_filter,
 * voxel_grid_filter, ndt_matching, euclidean_cluster) to the drive.
 * An entry is keyed by (parent entry, input key), a trie of the
 * node's whole input history; the key is the scan's LiDAR stamp, and
 * for NDT also the bits of its initial guess. It holds what the
 * kernel computed, the invocation cost and the node's µarch state
 * after the call. A replay whose history reaches a stored entry
 * adopts it instead of running the kernel; its results are
 * byte-identical to computing live. Each memo's budget is
 * kMemoEntriesPerScan entries per LiDAR scan of the bag; once it is
 * spent, misses compute live and store nothing. Drives made outside
 * the Runner (makeDrive) carry no memos and compute live.
 */

#ifndef AVSCOPE_EXP_RUNNER_HH
#define AVSCOPE_EXP_RUNNER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/cache.hh"
#include "exp/experiment.hh"

namespace av::exp {

struct RunnerConfig
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned jobs = 0;
    /** Result-cache directory; empty disables caching. */
    std::string cacheDir;
    /**
     * Per-job wall-clock watchdog in host milliseconds; 0 disables.
     * When a job has been *executing* longer than this, result() /
     * collect() throw JobTimeoutError instead of blocking forever —
     * the structured surface for a hung or livelocked replay. The
     * job itself keeps running (there is no safe way to kill a
     * worker mid-simulation): its pool slot, drive memo and result
     * slot all survive, and a later result() call returns normally
     * once it finishes. Wall-clock by necessity — a livelocked
     * simulation makes no virtual-time progress to measure — and
     * the timeout feeds no measurement, so determinism holds.
     */
    long timeoutMs = 0;
};

/**
 * Thrown by Runner::result()/collect() when a job exceeds the
 * configured wall-clock watchdog while still executing. Catchable
 * separately from experiment failures: the job is *late*, not
 * failed, and waiting again is legal.
 */
class JobTimeoutError : public std::runtime_error
{
  public:
    JobTimeoutError(std::size_t job_id, const std::string &label,
                    long timeout_ms)
        : std::runtime_error("experiment '" + label + "' (job " +
                             std::to_string(job_id) +
                             ") still running after " +
                             std::to_string(timeout_ms) + " ms"),
          jobId_(job_id), label_(label), timeoutMs_(timeout_ms)
    {
    }

    std::size_t jobId() const { return jobId_; }
    const std::string &label() const { return label_; }
    long timeoutMs() const { return timeoutMs_; }

  private:
    std::size_t jobId_;
    std::string label_;
    long timeoutMs_;
};

class Runner
{
  public:
    explicit Runner(RunnerConfig config = RunnerConfig());
    ~Runner();

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /** Queue an experiment; returns its id (submit order). */
    std::size_t submit(ExperimentSpec spec);

    /**
     * Result of job @p id; blocks until it is finished. The
     * reference stays valid for the Runner's lifetime. If the
     * experiment threw on its worker (e.g. a FaultPlan naming an
     * unknown node), the exception is rethrown here — a failed job
     * never deadlocks its waiter or leaks its worker slot. With
     * RunnerConfig::timeoutMs set, throws JobTimeoutError once the
     * job has been executing past the watchdog; a finished job
     * always returns its result, however late.
     */
    const prof::RunResult &result(std::size_t id);

    /**
     * All results so far, in submit order; blocks until done.
     * Rethrows the first failed job's exception, like result().
     */
    std::vector<const prof::RunResult *> collect();

    /** Worker threads actually running. */
    unsigned jobs() const { return jobs_; }

    /** Results served from the on-disk cache. */
    std::size_t cacheHits() const { return cacheHits_.load(); }

    /** Replays actually simulated (cache misses). */
    std::size_t executed() const { return executed_.load(); }

    /** NDT maps built: at most one per drive, none for a drive
     *  that only non-localizing replays used. */
    std::size_t mapsBuilt() const { return mapsBuilt_.load(); }

    /** Invocations replays adopted from their drives' memos
     *  instead of computing them, per shared front-end node. */
    struct SharedInvocations
    {
        std::size_t rayGround = 0;
        std::size_t voxelGrid = 0;
        std::size_t ndt = 0;
        std::size_t cluster = 0;
    };
    SharedInvocations shared() const;

  private:
    struct Job
    {
        ExperimentSpec spec;
        prof::RunResult result;
        /** Set instead of result when the replay threw. */
        std::exception_ptr error;
        bool done = false;
        /** Claimed by a worker (startedAt valid from then on). */
        bool started = false;
        /** Host clock, for the watchdog only (never a measurement).
         */
        // avlint: allow(wall-clock)
        std::chrono::steady_clock::time_point startedAt;
    };

    void workerLoop();
    void runJob(Job &job);
    std::shared_ptr<const prof::DriveData>
    driveFor(const ExperimentSpec &spec);

    ResultCache cache_;
    unsigned jobs_ = 1;
    long timeoutMs_ = 0; ///< RunnerConfig::timeoutMs

    std::mutex mutex_; ///< guards jobs_, queue_ and Job::done
    std::condition_variable workReady_;
    std::condition_variable jobDone_;
    std::deque<Job> queue_;           ///< stable storage, by id
    std::deque<std::size_t> pending_; ///< ids awaiting a worker
    bool stopping_ = false;

    /**
     * One memoized drive. Futures so the first worker needing a
     * product makes it while others needing the *same* one wait
     * instead of remaking it, and workers needing *different* drives
     * record concurrently. Each future is invalid until its first
     * claimant; a failure is published through it to every waiter.
     */
    struct DriveMemo
    {
        /** The recorded drive, map empty until @ref map resolves. */
        std::shared_future<std::shared_ptr<prof::DriveData>> bag;
        /**
         * Resolves once DriveData::map is filled, by the first
         * localizing job. Non-localizing jobs never wait on it and
         * never read the map, so they replay the bag race-free while
         * it is written.
         */
        std::shared_future<void> map;
        /** The drive, once its bag is recorded (for shared()). */
        std::shared_ptr<const prof::DriveData> recorded;
    };

    mutable std::mutex driveMutex_; ///< guards drives_ and every DriveMemo
    std::map<std::string, DriveMemo> drives_; ///< by driveKey

    std::atomic<std::size_t> cacheHits_{0};
    std::atomic<std::size_t> executed_{0};
    std::atomic<std::size_t> mapsBuilt_{0};

    std::vector<std::thread> workers_;
};

/**
 * Default result-cache directory (results/cache). Benches pass this
 * so repeated invocations of the same experiment skip the replay;
 * tests use throw-away directories instead.
 */
std::string defaultCacheDir();

} // namespace av::exp

#endif // AVSCOPE_EXP_RUNNER_HH
