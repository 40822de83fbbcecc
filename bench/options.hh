/**
 * @file
 * BenchOptions — typed command-line options for the bench binaries,
 * declared fluently in the style of exp::ExperimentSpec's builder:
 *
 *   auto opts = commonOptions()
 *                   .text("json", "BENCH_x.json", "output path")
 *                   .flag("smoke", "short run for CI");
 *   opts.parse(argc, argv);
 *   if (opts.flag("smoke")) ...
 *
 * It is the one flag parser of the bench and example binaries; it
 * replaced the hand-rolled util::Flags. The differences that matter:
 *
 *  - Options are *typed at declaration*: "--jobs abc" is rejected at
 *    parse time with a diagnostic naming the flag and the offending
 *    value, instead of strtol silently yielding 0.
 *  - Errors *throw std::invalid_argument* (message includes the full
 *    usage text) instead of aborting the process, so the diagnostics
 *    are unit-testable (tests/bench/test_options.cc). BenchEnv turns
 *    the exception into exit(2) for the actual binaries.
 *  - The common flag set (--duration/--seed/--csv/--jobs/--cache-dir/
 *    --no-cache/--trace) is declared once in
 *    commonOptions() and shared by every bench.
 */

#ifndef AVSCOPE_BENCH_OPTIONS_HH
#define AVSCOPE_BENCH_OPTIONS_HH

#include <limits>
#include <string>
#include <vector>

namespace av::bench {

/**
 * A declared-then-parsed option set. Declaration methods return
 * *this for chaining; the same names with a single argument are the
 * post-parse typed getters.
 */
class BenchOptions
{
  public:
    // ---- fluent declaration -------------------------------------

    /** Declare a boolean switch (defaults to false). */
    BenchOptions &flag(std::string name, std::string help);

    /** Declare an integer-valued option; parse() rejects a value
     *  below @p min. */
    BenchOptions &integer(std::string name, long fallback,
                          std::string help,
                          long min = std::numeric_limits<long>::min());

    /** Declare a real-valued option. */
    BenchOptions &real(std::string name, double fallback,
                       std::string help);

    /** Declare a string-valued option. */
    BenchOptions &text(std::string name, std::string fallback,
                       std::string help);

    // ---- parsing ------------------------------------------------

    /**
     * Parse argv against the declared set. Accepts "--key=value",
     * "--key value" and bare "--key" for flags; anything not
     * starting with "--" is positional. Throws std::invalid_argument
     * (message ends with the usage text) on an unknown flag, a
     * missing value, a value that does not parse as the declared
     * type, or an integer below its minimum.
     */
    BenchOptions &parse(int argc, char **argv);

    // ---- typed getters (valid after parse; fall back before) ----

    bool flag(const std::string &name) const;
    long integer(const std::string &name) const;
    double real(const std::string &name) const;
    const std::string &text(const std::string &name) const;

    /** True when the option appeared on the command line. */
    bool given(const std::string &name) const;

    /** Non-flag arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** The generated usage text (one line per declared option). */
    std::string usage() const;

  private:
    enum class Kind { Flag, Integer, Real, Text };

    struct Option
    {
        std::string name;
        Kind kind = Kind::Text;
        std::string value; ///< canonical string form, post-validation
        std::string help;
        /** Integer only: the smallest value parse() accepts. */
        long min = std::numeric_limits<long>::min();
        bool given = false;
    };

    BenchOptions &declare(std::string name, Kind kind,
                          std::string fallback, std::string help);
    Option *find(const std::string &name);
    const Option *find(const std::string &name) const;
    const Option &require(const std::string &name, Kind kind) const;
    [[noreturn]] void fail(const std::string &message) const;

    std::vector<Option> options_; ///< declaration order (usage text)
    std::vector<std::string> positional_;
};

/**
 * The flag set every bench shares: --duration, --seed, --csv,
 * --jobs, --cache-dir, --no-cache, --trace. Benches
 * chain their extras onto the returned builder.
 */
BenchOptions commonOptions();

} // namespace av::bench

#endif // AVSCOPE_BENCH_OPTIONS_HH
