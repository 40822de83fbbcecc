#include "exp/runner.hh"

#include <algorithm>
#include <type_traits>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/logging.hh"

namespace av::exp {

Runner::Runner(RunnerConfig config)
    : cache_(std::move(config.cacheDir)), timeoutMs_(config.timeoutMs)
{
    const unsigned hardware = std::thread::hardware_concurrency();
    jobs_ = config.jobs != 0 ? config.jobs
                             : std::max(1u, hardware);
    workers_.reserve(jobs_);
    for (unsigned i = 0; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

Runner::~Runner()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

std::size_t
Runner::submit(ExperimentSpec spec)
{
    std::size_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = queue_.size();
        queue_.emplace_back();
        queue_.back().spec = std::move(spec);
        pending_.push_back(id);
    }
    workReady_.notify_one();
    return id;
}

const prof::RunResult &
Runner::result(std::size_t id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    AV_ASSERT(id < queue_.size(), "unknown job id ", id);
    Job &job = queue_[id];
    if (timeoutMs_ <= 0) {
        jobDone_.wait(lock, [&job] { return job.done; });
    } else {
        // Watchdog: wait in slices, and once the job has been
        // *executing* past the budget, surface a structured timeout
        // instead of blocking forever. The worker keeps running —
        // its slot, the drive memo and the result slot all survive,
        // and waiting again later is legal (a finished job always
        // returns). Host clock on purpose: a livelocked replay
        // makes no virtual-time progress to watch.
        const std::chrono::milliseconds slice(std::min<long>(
            std::max<long>(timeoutMs_, 1), 50));
        while (!job.done) {
            if (job.started &&
                // avlint: allow(wall-clock)
                std::chrono::steady_clock::now() - job.startedAt >
                    std::chrono::milliseconds(timeoutMs_))
                throw JobTimeoutError(id, job.spec.label,
                                      timeoutMs_);
            jobDone_.wait_for(lock, slice,
                              [&job] { return job.done; });
        }
    }
    if (job.error)
        std::rethrow_exception(job.error);
    return job.result;
}

std::vector<const prof::RunResult *>
Runner::collect()
{
    std::size_t count = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        count = queue_.size();
    }
    std::vector<const prof::RunResult *> out;
    out.reserve(count);
    for (std::size_t id = 0; id < count; ++id)
        out.push_back(&result(id));
    return out;
}

void
Runner::workerLoop()
{
    for (;;) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [this] {
                return stopping_ || !pending_.empty();
            });
            if (pending_.empty())
                return; // stopping, queue drained
            // Resolve the slot while holding the lock: deque
            // indexing races with concurrent push_back, but the
            // reference it yields never moves afterwards.
            job = &queue_[pending_.front()];
            pending_.pop_front();
            job->started = true;
            // avlint: allow(wall-clock)
            job->startedAt = std::chrono::steady_clock::now();
        }
        // A throwing experiment must not kill the worker (losing the
        // pool slot) or leave its waiter blocked forever: capture the
        // exception, mark the job done and let result() rethrow it.
        try {
            runJob(*job);
        } catch (...) {
            job->error = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            job->done = true;
        }
        jobDone_.notify_all();
    }
}

void
Runner::runJob(Job &job)
{
    const std::string key = cacheKey(job.spec);
    if (cache_.enabled()) {
        if (std::optional<prof::RunResult> cached =
                cache_.load(key)) {
            job.result = std::move(*cached);
            // The label is presentation, not content: adopt the
            // spec's, whatever the storing experiment called itself.
            job.result.label = job.spec.label;
            cacheHits_.fetch_add(1);
            util::inform("experiment '", job.spec.label,
                         "': cache hit (", key, "), replay skipped");
            return;
        }
    }
    const std::shared_ptr<const prof::DriveData> drive =
        driveFor(job.spec);
    prof::CharacterizationRun run(drive, job.spec.config);
    run.execute();
    job.result = prof::snapshotRun(run, job.spec.label);
    executed_.fetch_add(1);
    if (cache_.enabled() && cache_.store(key, job.result))
        util::inform("experiment '", job.spec.label, "': cached as ",
                     key);
}

namespace {

/** Scans on the drive's /points_raw channel. */
std::size_t
lidarScans(const ros::Bag &bag)
{
    for (const ros::BagChannelBase *channel : bag.channels()) {
        if (channel->name() == world::topics::pointsRaw)
            return channel->count();
    }
    return 0;
}

/**
 * Resolve @p slot exactly once: the first caller claims it and runs
 * @p produce; every caller then waits on the slot's future. A
 * failure is published through the future, so it reaches every job
 * sharing the slot and no waiter blocks on a promise that never
 * resolves. @p mutex guards @p slot.
 */
template <class T, class Produce>
T
produceOnce(std::mutex &mutex, std::shared_future<T> &slot,
            Produce produce)
{
    std::promise<T> promise;
    std::shared_future<T> future;
    bool produceHere = false;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!slot.valid()) {
            produceHere = true;
            slot = promise.get_future().share();
        }
        future = slot;
    }
    if (produceHere) {
        try {
            if constexpr (std::is_void_v<T>) {
                produce();
                promise.set_value();
            } else {
                promise.set_value(produce());
            }
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

} // namespace

std::shared_ptr<const prof::DriveData>
Runner::driveFor(const ExperimentSpec &spec)
{
    const std::string key = driveKey(spec);
    DriveMemo *memo = nullptr;
    {
        std::lock_guard<std::mutex> lock(driveMutex_);
        memo = &drives_[key]; // std::map nodes never move
    }
    const std::shared_ptr<prof::DriveData> drive =
        produceOnce(driveMutex_, memo->bag, [&] {
            util::inform("recording drive ", key, " (",
                         sim::ticksToSeconds(spec.driveDuration),
                         " s)");
            std::shared_ptr<prof::DriveData> made =
                prof::recordDriveBag(spec.scenario,
                                     spec.driveDuration, spec.recorder);
            const std::size_t budget =
                perception::kMemoEntriesPerScan * lidarScans(made->bag);
            made->memos = {
                std::make_shared<perception::RayGroundMemo>(budget),
                std::make_shared<perception::VoxelGridMemo>(budget),
                std::make_shared<perception::NdtMemo>(budget),
                std::make_shared<perception::ClusterMemo>(budget)};
            std::lock_guard<std::mutex> lock(driveMutex_);
            memo->recorded = made;
            return made;
        });
    if (spec.config.stack.enableLocalization) {
        // The map is written before its future resolves, and read
        // only by jobs that waited on it.
        produceOnce(driveMutex_, memo->map, [&] {
            util::inform("building map for drive ", key);
            drive->map = prof::buildDriveMap(drive->scenarioConfig);
            mapsBuilt_.fetch_add(1);
            // The mapping pass freed keyframe scans several times
            // the map's size, and unlike in makeDrive no bag follows
            // to reuse them: hand them back to the OS rather than
            // keep them beside every replay.
#if defined(__GLIBC__)
            malloc_trim(0);
#endif
        });
    }
    return drive;
}

Runner::SharedInvocations
Runner::shared() const
{
    std::lock_guard<std::mutex> lock(driveMutex_);
    SharedInvocations out;
    for (const auto &[key, memo] : drives_) {
        if (const auto &drive = memo.recorded) {
            const perception::FrontEndMemos &memos = drive->memos;
            out.rayGround += memos.rayGround->hits();
            out.voxelGrid += memos.voxelGrid->hits();
            out.ndt += memos.ndt->hits();
            out.cluster += memos.cluster->hits();
        }
    }
    return out;
}

std::string
defaultCacheDir()
{
    return "results/cache";
}

} // namespace av::exp
