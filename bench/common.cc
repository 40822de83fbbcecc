#include "common.hh"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "util/logging.hh"

namespace av::bench {

BenchOptions
parseOrExit(BenchOptions options, int argc, char **argv)
{
    try {
        options.parse(argc, argv);
        // No binary takes positional arguments: a bare "30" is a
        // mistyped flag, not a value to ignore.
        if (!options.positional().empty())
            throw std::invalid_argument("unexpected argument '" +
                                        options.positional().front() +
                                        "'\n" + options.usage());
    } catch (const std::invalid_argument &error) {
        std::cerr << (argc > 0 ? argv[0] : "bench") << ": "
                  << error.what() << "\n";
        std::exit(2);
    }
    return options;
}

exp::RunnerConfig
BenchEnv::runnerConfig(const BenchOptions &options)
{
    exp::RunnerConfig cfg;
    cfg.jobs = static_cast<unsigned>(options.integer("jobs"));
    if (!options.flag("no-cache"))
        cfg.cacheDir = options.text("cache-dir");
    return cfg;
}

BenchEnv::BenchEnv(int argc, char **argv, BenchOptions options)
    : options_(parseOrExit(std::move(options), argc, argv)),
      runner_(runnerConfig(options_))
{
    csv_ = options_.flag("csv");
    trace_ = options_.flag("trace");
    duration_ =
        static_cast<sim::Tick>(options_.integer("duration")) * sim::oneSec;
    seed_ = static_cast<std::uint64_t>(options_.integer("seed"));
}

exp::ExperimentSpec
BenchEnv::spec() const
{
    return exp::spec().duration(duration_).seed(seed_).traced(trace_);
}

exp::ExperimentSpec
BenchEnv::spec(perception::DetectorKind kind) const
{
    return spec().detector(kind).named(
        perception::detectorName(kind));
}

const prof::RunResult &
BenchEnv::run(const exp::ExperimentSpec &spec)
{
    return runner_.result(runner_.submit(spec));
}

const prof::RunResult &
BenchEnv::run(perception::DetectorKind kind)
{
    return run(spec(kind));
}

void
assertZeroCopy(const prof::RunResult &run)
{
    AV_ASSERT(run.transport.payloadCopies ==
                  run.transport.forcedCopies,
              "zero-copy contract violated in '", run.label,
              "': ", run.transport.payloadCopies,
              " payload copies but only ",
              run.transport.forcedCopies, " forced by faults");
    if (run.faults.empty())
        AV_ASSERT(run.transport.payloadCopies == 0,
                  "zero-copy contract violated in clean run '",
                  run.label, "': ", run.transport.payloadCopies,
                  " payload copies");
}

bool
writeArtifact(const std::string &path,
              const std::function<void(util::JsonWriter &)> &emit)
{
    if (path.empty())
        return true;
    std::ofstream os(path, std::ios::trunc);
    util::JsonWriter json(os);
    if (os)
        emit(json);
    os.close();
    std::cerr << (os ? "wrote " : "cannot write ") << path << "\n";
    return static_cast<bool>(os);
}

void
BenchEnv::print(const util::Table &table) const
{
    if (csv_)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\n";
}

} // namespace av::bench
