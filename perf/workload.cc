#include "workload.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

#include "chaos/chaos.hh"
#include "exp/runner.hh"
#include "world/map_builder.hh"
#include "world/recorder.hh"

namespace avperf {

namespace fs = std::filesystem;
using av::exp::ExperimentSpec;
using av::perception::DetectorKind;
using av::prof::RunResult;

namespace {

/** Per-job watchdog: a replay still running after this has failed. */
constexpr long kJobTimeoutMs = 120000;

constexpr std::array<DetectorKind, 3> kDetectors = {
    DetectorKind::Ssd512, DetectorKind::Ssd300, DetectorKind::Yolov3};
constexpr std::array<const char *, 3> kDetectorNames = {
    "ssd512", "ssd300", "yolov3"};

/**
 * The standing chaos campaign. Fixed rather than drawn from the
 * benchmark seed: different campaigns move host time and every
 * simulated figure by 10-20%, more than a bound can absorb.
 */
constexpr std::uint64_t kCampaignSeed = 2028;

/** The depth_sweep grid: /image_raw queue depth at vision_detection. */
constexpr std::array<std::size_t, 4> kDepths = {1, 2, 4, 8};

/**
 * How far @p seed is from the default seed 2020, modulo the camera
 * period in ms. The seed moves two inputs by it: the camera's phase
 * against the LiDAR (29 ms per step, coprime to the 66 ms period, so
 * any run of seeds covers the whole period) and the drive length (0-3
 * extra camera periods: no phase moves the isolated detector, whose
 * latency depends only on how many frames it sees). Seed 2020 is the
 * default drive every other AVScope bench replays.
 */
std::uint64_t
seedSteps(std::uint64_t seed, std::uint64_t period_ms)
{
    return (seed % period_ms + period_ms - 2020 % period_ms) %
           period_ms;
}

std::vector<av::chaos::CampaignSpec>
campaignsOf(const Workload &w)
{
    std::vector<av::chaos::CampaignSpec> out;
    for (const DetectorKind kind : kDetectors) {
        av::chaos::CampaignSpec campaign;
        campaign.seed = kCampaignSeed;
        campaign.cells = w.cellsPerDetector;
        campaign.base =
            w.driveSpec().detector(kind).degraded().invariants();
        out.push_back(std::move(campaign));
    }
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

double
elapsedS(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/** A directory that is removed with everything in it on scope exit. */
class ScratchDir
{
  public:
    explicit ScratchDir(fs::path path) : path_(std::move(path))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ignored;
        fs::remove_all(path_, ignored);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    std::string sub(const std::string &name) const
    {
        return (path_ / name).string();
    }

  private:
    fs::path path_;
};

fs::path
scratchRoot(const Workload &w, const RunOptions &options)
{
    const fs::path base = options.workDir.empty()
                              ? fs::temp_directory_path()
                              : fs::path(options.workDir);
    return base / ("avperf-" + w.name + "-" + std::to_string(getpid()));
}

/** One batch: the experiments, their results, how long it took. */
struct Pass
{
    std::vector<ExperimentSpec> specs;
    std::vector<RunResult> results; ///< parallel to specs
    std::vector<bool> ok;           ///< result obtained (no throw)
    std::size_t cacheHits = 0;
    std::size_t executed = 0;
    double wallS = 0.0;
};

/**
 * The experiments of one batch: Workload::specs(), or for
 * chaos_faulted every cell of every campaign, sampled through
 * CampaignRunner so the whole campaign set is one closed batch.
 */
std::vector<ExperimentSpec>
batchSpecs(const Workload &w, av::exp::Runner &runner)
{
    if (w.kind != WorkloadKind::ChaosFaulted)
        return w.specs();
    std::vector<ExperimentSpec> out;
    for (const av::chaos::CampaignSpec &campaign : campaignsOf(w)) {
        const av::chaos::CampaignRunner cells(runner, campaign);
        for (std::size_t i = 0; i < campaign.cells; ++i)
            out.push_back(cells.specFor(cells.cellFor(i)));
    }
    return out;
}

/**
 * Run the workload's batch against @p cache_dir. Timing starts at the
 * first submit and ends when the last result is in; a job that throws
 * or outlives the watchdog is recorded as a failure in @p out.
 */
Pass
runPass(const Workload &w, const std::string &cache_dir,
        const std::string &span_name, SpanRecorder &spans, Outcome &out)
{
    Pass pass;
    av::exp::Runner runner(
        av::exp::RunnerConfig{w.jobs, cache_dir, kJobTimeoutMs});
    pass.specs = batchSpecs(w, runner);
    Scope scope(spans, span_name);
    for (const ExperimentSpec &spec : pass.specs)
        runner.submit(spec);
    std::vector<const RunResult *> got(pass.specs.size(), nullptr);
    for (std::size_t id = 0; id < got.size(); ++id) {
        try {
            got[id] = &runner.result(id);
        } catch (const std::exception &e) {
            out.fail(pass.specs[id].label + ": " + e.what());
        }
    }
    pass.wallS = scope.stop();
    for (const RunResult *result : got) {
        pass.ok.push_back(result != nullptr);
        pass.results.push_back(result ? *result : RunResult());
    }
    pass.cacheHits = runner.cacheHits();
    pass.executed = runner.executed();
    return pass;
}

/** Cache-entry bytes of every experiment of @p pass, in order. */
std::vector<std::string>
entriesOf(const Pass &pass, const std::string &cache_dir)
{
    const av::exp::ResultCache cache(cache_dir);
    std::vector<std::string> out;
    for (const ExperimentSpec &spec : pass.specs)
        out.push_back(
            readFile(cache.entryPath(av::exp::cacheKey(spec))));
    return out;
}

/** The simulated figures reported per detector. */
struct SimFigures
{
    double meanMs = 0.0;
    double p95Ms = 0.0;
    double powerW = 0.0;
    std::size_t samples = 0; ///< latency samples behind mean and p95
};

/**
 * Worst-path figures of a full-stack run; the vision_detection node
 * latency when the run is isolated (no end-to-end path exists then).
 */
SimFigures
simFigures(const RunResult &r, bool isolated)
{
    SimFigures f;
    f.powerW = r.cpuWatts.mean() + r.gpuWatts.mean();
    if (isolated) {
        if (const auto *s = r.findNodeSeries("vision_detection")) {
            f.meanMs = s->running().mean();
            f.p95Ms = s->quantile(0.95);
            f.samples = s->count();
        }
        return f;
    }
    f.meanMs = r.worstCaseMean();
    for (const auto &row : r.paths) {
        const double p95 = row.series.quantile(0.95);
        if (p95 >= f.p95Ms) {
            f.p95Ms = p95;
            f.samples = row.series.count();
        }
    }
    return f;
}

/**
 * One SimFigures per detector, in kDetectors order: the mean over the
 * detector's experiments (one run, four queue depths, or the
 * campaign's cells).
 */
std::array<SimFigures, 3>
detectorFigures(const Workload &w, const Pass &pass)
{
    std::array<SimFigures, 3> out{};
    const bool isolated = w.kind == WorkloadKind::VisionIsolated;
    const std::size_t per = pass.results.size() / kDetectors.size();
    const double n = static_cast<double>(per);
    for (std::size_t d = 0; d < kDetectors.size(); ++d) {
        for (std::size_t i = d * per; i < (d + 1) * per; ++i) {
            const SimFigures g = simFigures(pass.results[i], isolated);
            out[d].meanMs += g.meanMs / n;
            out[d].p95Ms += g.p95Ms / n;
            out[d].powerW += g.powerW / n;
            out[d].samples += g.samples;
        }
    }
    return out;
}

/** Restart the process's peak-RSS mark (Linux clear_refs). */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak RSS since the last resetPeakRss() (VmHWM), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool
cleanRun(const Workload &w)
{
    return w.kind != WorkloadKind::ChaosFaulted;
}

/**
 * The output checks of one cold pass. Each failing experiment counts
 * once against Outcome::failed.
 */
void
checkCold(const Workload &w, const Pass &cold,
          const std::vector<std::string> &entries,
          const std::vector<std::string> &reference, Outcome &out)
{
    const bool isolated = w.kind == WorkloadKind::VisionIsolated;
    for (std::size_t i = 0; i < cold.specs.size(); ++i) {
        if (!cold.ok[i])
            continue; // counted by runPass
        const RunResult &r = cold.results[i];
        const SimFigures f = simFigures(r, isolated);
        const std::string &label = cold.specs[i].label;
        if (cleanRun(w) && (r.transport.payloadCopies != 0 ||
                            r.transport.forcedCopies != 0)) {
            out.fail(label + ": clean run made " +
                     std::to_string(r.transport.payloadCopies) +
                     " payload copies");
        } else if (cleanRun(w) && f.samples == 0) {
            out.fail(label + ": no latency samples");
        } else if (!std::isfinite(f.meanMs) ||
                   !std::isfinite(f.p95Ms) ||
                   !std::isfinite(f.powerW)) {
            out.fail(label + ": non-finite simulated figure");
        } else if (entries[i].empty()) {
            out.fail(label + ": no cache entry written");
        } else if (!reference.empty() && entries[i] != reference[i]) {
            out.fail(label + ": result differs from the first batch");
        }
    }
}

/** Serialized form of a result, as its cache entry would hold it. */
std::string
serialized(const RunResult &result, const std::string &dir)
{
    const av::exp::ResultCache cache(dir);
    return cache.store("compare", result)
               ? readFile(cache.entryPath("compare"))
               : std::string();
}

/**
 * serialized() with every sample series sorted first.
 * SampleSeries::quantile() sorts its samples in place, so the raw
 * form of a result depends on which quantiles were read from it
 * (chaos::CampaignRunner reads worstCaseP99() before returning).
 */
std::string
canonical(RunResult result, const std::string &dir)
{
    for (auto *rows :
         {&result.nodes, &result.paths, &result.staleness}) {
        for (av::prof::NamedSeries &row : *rows)
            (void)row.series.quantile(0.5);
    }
    return serialized(result, dir);
}

/**
 * A warm pass must be served entirely from the cache, and each served
 * result, stored again, must reproduce the cold result (@p cold_forms,
 * canonical()).
 */
void
checkWarm(const Pass &warm, const std::vector<std::string> &cold_forms,
          const std::string &dir, Outcome &out)
{
    const std::size_t n = warm.specs.size();
    for (std::size_t i = warm.cacheHits; i < n; ++i)
        out.fail("warm pass: " + std::to_string(warm.cacheHits) + "/" +
                 std::to_string(n) + " cache hits");
    for (std::size_t i = 0; i < n; ++i) {
        if (warm.ok[i] &&
            canonical(warm.results[i], dir) != cold_forms[i])
            out.fail(warm.specs[i].label +
                     ": warm result differs from the cold one");
    }
}

/** A warm pass takes about a millisecond: too short to time once. */
constexpr int kWarmPasses = 10;

/** One cold pass and its warm re-runs. */
struct ColdWarm
{
    Pass cold;
    std::vector<std::string> entries; ///< cold cache entries
    std::vector<double> warmWallS;    ///< one per warm pass
    std::size_t warmHits = 0;         ///< over all warm passes
    std::size_t warmOps = 0;
};

/**
 * Cold pass, entry snapshot, hook, then kWarmPasses warm passes on
 * fresh Runners over the same cache, all checked.
 */
ColdWarm
runColdWarm(const Workload &w, const ScratchDir &scratch,
            const std::string &tag, const RunOptions &options,
            const std::vector<std::string> &reference,
            SpanRecorder &spans, Outcome &out)
{
    const std::string dir = scratch.sub(tag + "-cache");
    const std::string restore = scratch.sub(tag + "-restore");
    ColdWarm cw;
    cw.cold = runPass(w, dir, "exp.cold_batch", spans, out);
    cw.entries = entriesOf(cw.cold, dir);
    checkCold(w, cw.cold, cw.entries, reference, out);
    out.attempted += cw.cold.specs.size();
    std::vector<std::string> cold_forms;
    for (std::size_t i = 0; i < cw.cold.results.size(); ++i) {
        cold_forms.push_back(
            cw.cold.ok[i] ? canonical(cw.cold.results[i], restore)
                          : std::string());
    }
    if (options.betweenPasses)
        options.betweenPasses(dir);
    for (int i = 0; i < kWarmPasses; ++i) {
        const Pass warm = runPass(w, dir, "exp.warm_batch", spans, out);
        checkWarm(warm, cold_forms, restore, out);
        cw.warmWallS.push_back(warm.wallS);
        cw.warmHits += warm.cacheHits;
        cw.warmOps += warm.specs.size();
    }
    out.attempted += cw.warmOps;
    fs::remove_all(dir);
    fs::remove_all(restore);
    return cw;
}

/** prof::makeDrive in two timed steps: map building, recording. */
std::shared_ptr<av::prof::DriveData>
buildDrive(const ExperimentSpec &spec, SpanRecorder &spans)
{
    namespace world = av::world;
    auto drive = std::make_shared<av::prof::DriveData>();
    drive->scenarioConfig = spec.scenario;
    drive->duration = spec.driveDuration;
    const world::Scenario scenario(spec.scenario);
    const world::LidarModel lidar;
    const world::CameraModel camera;
    const world::GnssModel gnss;
    const world::ImuModel imu;
    // Same quiet-street mapping pass as prof::makeDrive.
    world::ScenarioConfig mapping = spec.scenario;
    mapping.nVehicles = 0;
    mapping.nPedestrians = 0;
    const world::Scenario mapping_scenario(mapping);
    {
        Scope span(spans, "world.map_build");
        drive->map = world::MapBuilder().build(
            mapping_scenario, lidar,
            av::sim::secondsToTicks(scenario.routeLength() /
                                    spec.scenario.egoSpeed));
    }
    {
        Scope span(spans, "world.record");
        world::recordDrive(scenario, lidar, camera, gnss, imu,
                           spec.driveDuration, spec.recorder,
                           drive->bag);
    }
    drive->initialPose = scenario.egoPoseAt(0);
    return drive;
}

/** One timed replay outside the Runner. */
struct Replay
{
    RunResult result;
    av::trace::Summary summary; ///< traced replays only
    std::uint64_t events = 0;
};

/**
 * Replay @p spec on @p drive, with the trace recorder retaining
 * events when @p traced. Spans: <layer>.replay, <layer>.snapshot and,
 * when traced, trace.analyze.
 */
Replay
replay(const std::shared_ptr<const av::prof::DriveData> &drive,
       const ExperimentSpec &spec, bool traced,
       const std::string &layer, SpanRecorder &spans)
{
    av::prof::RunConfig config = spec.config;
    config.trace = traced;
    Replay out;
    Scope span(spans, layer + ".replay");
    av::prof::CharacterizationRun run(drive, config);
    run.execute();
    span.stop();
    out.events = run.graph().eventQueue().executedEvents();
    if (traced) {
        Scope analyze(spans, "trace.analyze");
        out.summary = run.traceSummary();
    }
    Scope snapshot(spans, layer + ".snapshot");
    out.result = av::prof::snapshotRun(run, spec.label);
    return out;
}

/** Median duration of the spans called @p name, in ms. */
double
medianMs(const SpanRecorder &spans, const std::string &name)
{
    return median(spans.durationsUs(name)) / 1000.0;
}

/** Run @p body @p reps times, each in a span called @p name. */
double
medianOfRuns(SpanRecorder &spans, const std::string &name, int reps,
             const std::function<void()> &body)
{
    for (int i = 0; i < reps; ++i) {
        Scope span(spans, name);
        body();
    }
    return medianMs(spans, name);
}

} // namespace

// -------------------------------------------------------- workloads

ExperimentSpec
Workload::driveSpec() const
{
    av::world::RecorderConfig recorder;
    const std::uint64_t period = recorder.cameraPeriod / av::sim::oneMs;
    const std::uint64_t steps = seedSteps(seed, period);
    recorder.cameraPhase =
        (recorder.cameraPhase / av::sim::oneMs + 29 * steps) % period *
        av::sim::oneMs;
    return av::exp::spec()
        .seed(2020)
        .duration(static_cast<av::sim::Tick>(driveSeconds) *
                      av::sim::oneSec +
                  steps % 4 * recorder.cameraPeriod)
        .recording(recorder);
}

std::vector<ExperimentSpec>
Workload::specs() const
{
    std::vector<ExperimentSpec> out;
    for (std::size_t d = 0; d < kDetectors.size(); ++d) {
        ExperimentSpec base = driveSpec().detector(kDetectors[d]).named(
            kDetectorNames[d]);
        switch (kind) {
        case WorkloadKind::PaperDrive:
            out.push_back(base);
            break;
        case WorkloadKind::VisionIsolated:
            out.push_back(base.isolatedVision());
            break;
        case WorkloadKind::DepthSweep:
            for (const std::size_t depth : kDepths)
                out.push_back(ExperimentSpec(base)
                                  .queueDepth("/image_raw",
                                              "vision_detection", depth)
                                  .named(base.label + "/depth" +
                                         std::to_string(depth)));
            break;
        case WorkloadKind::ChaosFaulted:
            break; // cells come from the campaigns
        }
    }
    return out;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_drive", "vision_isolated", "depth_sweep",
        "chaos_faulted"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    Workload w;
    w.name = name;
    w.seed = seed;
    if (name == "paper_drive") {
        w.kind = WorkloadKind::PaperDrive;
        w.driveSeconds = 20;
        w.jobs = 3;
    } else if (name == "vision_isolated") {
        w.kind = WorkloadKind::VisionIsolated;
        w.driveSeconds = 20;
        w.jobs = 3;
    } else if (name == "depth_sweep") {
        w.kind = WorkloadKind::DepthSweep;
        w.driveSeconds = 15;
        w.jobs = 4;
    } else if (name == "chaos_faulted") {
        w.kind = WorkloadKind::ChaosFaulted;
        w.driveSeconds = 10;
        w.jobs = 4;
        w.cellsPerDetector = smoke ? 1 : 4;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    if (smoke)
        w.driveSeconds = 4;
    const unsigned cores =
        std::max(1u, std::thread::hardware_concurrency());
    w.jobs = std::min(w.jobs, cores);
    return w;
}

void
Outcome::fail(const std::string &why)
{
    ++failed;
    failures.push_back(why);
}

double
Outcome::value(const std::string &name) const
{
    for (const Metric &m : metrics) {
        if (m.name == name)
            return m.value;
    }
    throw std::out_of_range("no metric '" + name + "'");
}

int
exitStatus(const Outcome &outcome)
{
    return outcome.failed == 0 && outcome.attempted > 0 ? 0 : 1;
}

// ------------------------------------------------------- end to end

Outcome
runEndToEnd(const Workload &w, const RunOptions &options,
            SpanRecorder &spans)
{
    Outcome out;
    const ScratchDir scratch(scratchRoot(w, options));

    std::vector<double> setup;
    const ExperimentSpec drive = w.driveSpec();
    for (int i = 0; i < options.setupReps; ++i) {
        Scope span(spans, "world.make_drive");
        const auto data = av::prof::makeDrive(
            drive.scenario, drive.driveDuration, drive.recorder);
        setup.push_back(span.stop());
    }

    // Batches repeat while the next one, taking as long as the last,
    // still ends inside the measuring window.
    const auto start = std::chrono::steady_clock::now();
    std::vector<double> walls;
    double rss_mb = 0.0;
    std::vector<std::string> reference;
    std::array<SimFigures, 3> figures{};
    double last = 0.0;
    for (int rep = 0; rep < options.minReps ||
                      elapsedS(start) + last <= options.seconds;
         ++rep) {
        Scope span(spans, "batch");
        // Peak memory of the first batch only: later batches start
        // from whatever the allocator kept of earlier ones.
        if (rep == 0)
            resetPeakRss();
        ColdWarm cw = runColdWarm(w, scratch,
                                  "rep" + std::to_string(rep), options,
                                  reference, spans, out);
        walls.push_back(cw.cold.wallS);
        if (rep == 0) {
            rss_mb = peakRssMb();
            reference = std::move(cw.entries);
            figures = detectorFigures(w, cw.cold);
        }
        last = span.stop();
    }

    out.metrics = {
        {"setup_s", "s", median(setup)},
        {"wall_s", "s", median(walls)},
        {"peak_rss_mb", "MB", rss_mb},
    };
    for (std::size_t d = 0; d < kDetectors.size(); ++d)
        out.metrics.push_back({std::string("sim_worst_mean_ms.") +
                                   kDetectorNames[d],
                               "ms", figures[d].meanMs});
    for (std::size_t d = 0; d < kDetectors.size(); ++d)
        out.metrics.push_back({std::string("sim_worst_p95_ms.") +
                                   kDetectorNames[d],
                               "ms", figures[d].p95Ms});
    for (std::size_t d = 0; d < kDetectors.size(); ++d)
        out.metrics.push_back({std::string("sim_power_w.") +
                                   kDetectorNames[d],
                               "W", figures[d].powerW});

    std::ostringstream note;
    note << walls.size() << " batches of " << reference.size()
         << " experiments; latency samples per detector:";
    for (std::size_t d = 0; d < kDetectors.size(); ++d)
        note << ' ' << kDetectorNames[d] << '=' << figures[d].samples;
    out.notes.push_back(note.str());
    return out;
}

// ----------------------------------------------------------- traced

Outcome
runTraced(const Workload &w, const RunOptions &options,
          SpanRecorder &spans)
{
    Outcome out;
    const ScratchDir scratch(scratchRoot(w, options));

    // exp + chaos: one cold batch and its warm re-runs, checked as end
    // to end.
    const ColdWarm cw =
        runColdWarm(w, scratch, "traced", options, {}, spans, out);
    if (cw.cold.specs.empty() || !cw.cold.ok.front()) {
        out.fail("traced pass: the first experiment has no result");
        return out;
    }
    const ExperimentSpec &first = cw.cold.specs.front();
    std::set<std::string> drives;
    for (const ExperimentSpec &spec : cw.cold.specs)
        drives.insert(av::exp::driveKey(spec));

    // world
    const auto drive = buildDrive(first, spans);

    // exp: key, store, load
    const std::string key = av::exp::cacheKey(first);
    const int reps = 5;
    // ms per 1000 calls = µs per call
    const double key_us =
        medianOfRuns(spans, "exp.cache_key_x1000", reps, [&] {
            for (int i = 0; i < 1000; ++i)
                (void)av::exp::cacheKey(first);
        });
    const av::exp::ResultCache cache(scratch.sub("traced-entry"));
    const double store_ms =
        medianOfRuns(spans, "exp.cache_store", reps, [&] {
            cache.store(key, cw.cold.results.front());
        });
    bool loaded = true;
    const double load_ms =
        medianOfRuns(spans, "exp.cache_load", reps, [&] {
            loaded = loaded && cache.load(key).has_value();
        });
    if (!loaded)
        out.fail("cache entry did not load back");
    const double entry_kb =
        static_cast<double>(fs::file_size(cache.entryPath(key))) /
        1024.0;

    // core + trace: the first experiment replayed from the decomposed
    // drive. The first replay on this thread runs slow (heap growth),
    // so it is only checked; then untraced and traced replays alternate
    // in ABBA order so drift cancels out of the recorder overhead.
    const Replay u0 = replay(drive, first, false, "warmup", spans);
    const Replay t1 = replay(drive, first, true, "trace", spans);
    const Replay u1 = replay(drive, first, false, "core", spans);
    const Replay u2 = replay(drive, first, false, "core", spans);
    const Replay t2 = replay(drive, first, true, "trace", spans);
    out.attempted += 5;
    const std::string cmp = scratch.sub("traced-compare");
    const std::string runner_form =
        canonical(cw.cold.results.front(), cmp);
    for (const Replay *u : {&u0, &u1, &u2}) {
        if (canonical(u->result, cmp) != runner_form)
            out.fail(first.label + ": replay of the decomposed drive "
                                   "differs from the Runner's result");
    }
    const bool isolated = w.kind == WorkloadKind::VisionIsolated;
    const SimFigures a = simFigures(u1.result, isolated);
    for (const Replay *t : {&t1, &t2}) {
        const SimFigures b = simFigures(t->result, isolated);
        if (a.meanMs != b.meanMs || a.p95Ms != b.p95Ms ||
            a.powerW != b.powerW || a.samples != b.samples)
            out.fail(first.label +
                     ": traced replay changed a sim_* figure");
    }
    const RunResult &plain = u1.result;
    const av::trace::Summary &summary = t1.summary;
    const double replay_ms = medianMs(spans, "core.replay");
    const double traced_ms = medianMs(spans, "trace.replay");
    const std::uint64_t events = u1.events;
    double crit_queue = 0.0, crit_compute = 0.0;
    for (const av::trace::PathStep &step : summary.criticalPath) {
        crit_queue += step.queueWaitMs;
        crit_compute += step.computeMs;
    }

    // kernels, attached then detached
    {
        Scope pass(spans, "kernels.attached");
        runKernelPass(*drive, first.config.stack, true, spans);
    }
    {
        Scope pass(spans, "kernels.detached");
        runKernelPass(*drive, first.config.stack, false, spans);
    }

    const auto add = [&out](std::string name, const char *unit,
                            double value) {
        out.metrics.push_back({std::move(name), unit, value});
    };
    const auto num = [](auto n) { return static_cast<double>(n); };

    add("world.map_build_ms", "ms", spans.totalMs("world.map_build"));
    add("world.record_ms", "ms", spans.totalMs("world.record"));
    add("world.bag_messages", "count", num(drive->bag.totalMessages()));
    add("world.map_points", "count", num(drive->map.size()));

    double kernel_ms = 0.0;
    for (const std::string &k : kernelNames()) {
        const std::vector<double> us = spans.durationsUs(k);
        kernel_ms += spans.totalMs(k);
        add(k + ".ms", "ms", spans.totalMs(k));
        add(k + ".calls", "count", num(us.size()));
        add(k + ".p50_us", "us", quantile(us, 0.5));
        add(k + ".p90_us", "us", quantile(us, 0.9));
    }
    for (const std::string &k : kernelNames())
        add("uarch." + k.substr(k.find('.') + 1) + ".overhead_ms", "ms",
            spans.totalMs(k) - spans.totalMs(k + ".detached"));

    add("core.replay_ms", "ms", replay_ms);
    add("core.snapshot_ms", "ms", medianMs(spans, "core.snapshot"));
    add("core.events", "count", num(events));
    add("core.us_per_event", "us",
        events ? replay_ms * 1000.0 / num(events) : 0.0);
    add("core.residual_ms", "ms", replay_ms - kernel_ms);

    add("trace.traced_replay_ms", "ms", traced_ms);
    add("trace.recorder_overhead_pct", "%",
        (traced_ms - replay_ms) / replay_ms * 100.0);
    add("trace.analyze_ms", "ms", medianMs(spans, "trace.analyze"));
    add("trace.events", "count", num(summary.events));
    add("trace.critical_path_ms", "ms", summary.criticalPathMs);
    add("trace.crit_queue_ms", "ms", crit_queue);
    add("trace.crit_compute_ms", "ms", crit_compute);

    add("exp.cache_key_us", "us", key_us);
    add("exp.cache_store_ms", "ms", store_ms);
    add("exp.cache_load_ms", "ms", load_ms);
    add("exp.entry_kb", "kB", entry_kb);
    add("exp.warm_wall_ms", "ms", median(cw.warmWallS) * 1000.0);
    add("exp.warm_hit_ratio", "ratio",
        num(cw.warmHits) / num(cw.warmOps));
    add("exp.drive_memo_reuse", "count",
        num(cw.cold.executed) - num(drives.size()));

    const av::ros::TransportCounters &t = plain.transport;
    double delivered = 0.0, dropped = 0.0;
    for (const av::prof::DropRow &row : plain.drops) {
        delivered += num(row.delivered);
        dropped += num(row.dropped);
    }
    add("ros.published", "count", num(t.published));
    add("ros.deliveries", "count", num(t.deliveries));
    add("ros.payload_copies", "count", num(t.payloadCopies));
    add("ros.forced_copies", "count", num(t.forcedCopies));
    add("ros.delivered_ratio", "ratio",
        delivered + dropped > 0.0 ? delivered / (delivered + dropped)
                                  : 0.0);

    double cpu_busy = 0.0, gpu_busy = 0.0;
    for (const auto &[owner, s] : plain.cpuSecondsByOwner)
        cpu_busy += s;
    for (const auto &[owner, s] : plain.gpuSecondsByOwner)
        gpu_busy += s;
    add("hw.cpu_util_pct", "%", plain.totalCpu.mean() * 100.0);
    add("hw.gpu_util_pct", "%", plain.totalGpu.mean() * 100.0);
    add("hw.cpu_busy_s", "s", cpu_busy);
    add("hw.gpu_busy_s", "s", gpu_busy);

    using av::chaos::CellClass;
    std::array<double, 3> classes{};
    if (w.kind == WorkloadKind::ChaosFaulted) {
        for (std::size_t i = 0; i < cw.cold.results.size(); ++i) {
            if (cw.cold.ok[i])
                ++classes[static_cast<std::size_t>(
                    av::chaos::classify(cw.cold.results[i]))];
        }
    }
    const auto of = [&classes](CellClass cls) {
        return classes[static_cast<std::size_t>(cls)];
    };
    add("chaos.violated", "count", of(CellClass::Violated));
    add("chaos.degraded", "count", of(CellClass::Degraded));
    add("chaos.recovered", "count", of(CellClass::Recovered));

    out.notes.push_back("replayed '" + first.label + "' (" +
                        std::to_string(w.driveSeconds) +
                        " s drive); kernels sum to " +
                        std::to_string(kernel_ms) + " ms of " +
                        std::to_string(replay_ms) + " ms replay");
    return out;
}

} // namespace avperf
