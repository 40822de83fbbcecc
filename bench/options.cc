#include "options.hh"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "exp/runner.hh"
#include "util/logging.hh"

namespace av::bench {

namespace {

const char *
kindName(int kind)
{
    switch (kind) {
    case 0: return "flag";
    case 1: return "integer";
    case 2: return "real";
    default: return "string";
    }
}

bool
parseBool(const std::string &value, bool &out)
{
    if (value == "true" || value == "1" || value == "yes" ||
        value == "on") {
        out = true;
        return true;
    }
    if (value == "false" || value == "0" || value == "no" ||
        value == "off") {
        out = false;
        return true;
    }
    return false;
}

} // namespace

BenchOptions &
BenchOptions::declare(std::string name, Kind kind,
                      std::string fallback, std::string help)
{
    AV_ASSERT(find(name) == nullptr, "option --", name,
              " declared twice");
    Option opt;
    opt.name = std::move(name);
    opt.kind = kind;
    opt.value = std::move(fallback);
    opt.help = std::move(help);
    options_.push_back(std::move(opt));
    return *this;
}

BenchOptions &
BenchOptions::flag(std::string name, std::string help)
{
    return declare(std::move(name), Kind::Flag, "false",
                   std::move(help));
}

BenchOptions &
BenchOptions::integer(std::string name, long fallback,
                      std::string help, long min)
{
    declare(std::move(name), Kind::Integer, std::to_string(fallback),
            std::move(help));
    options_.back().min = min;
    return *this;
}

BenchOptions &
BenchOptions::real(std::string name, double fallback,
                   std::string help)
{
    std::ostringstream os;
    os << fallback;
    return declare(std::move(name), Kind::Real, os.str(),
                   std::move(help));
}

BenchOptions &
BenchOptions::text(std::string name, std::string fallback,
                   std::string help)
{
    return declare(std::move(name), Kind::Text, std::move(fallback),
                   std::move(help));
}

BenchOptions::Option *
BenchOptions::find(const std::string &name)
{
    for (Option &opt : options_)
        if (opt.name == name)
            return &opt;
    return nullptr;
}

const BenchOptions::Option *
BenchOptions::find(const std::string &name) const
{
    for (const Option &opt : options_)
        if (opt.name == name)
            return &opt;
    return nullptr;
}

void
BenchOptions::fail(const std::string &message) const
{
    throw std::invalid_argument(message + "\n" + usage());
}

std::string
BenchOptions::usage() const
{
    std::ostringstream os;
    os << "options:";
    for (const Option &opt : options_) {
        os << "\n  --" << opt.name;
        if (opt.kind != Kind::Flag)
            os << " <" << kindName(static_cast<int>(opt.kind))
               << ">";
        os << "  " << opt.help;
        if (opt.kind != Kind::Flag && !opt.value.empty())
            os << " (default " << opt.value << ")";
    }
    return os.str();
}

BenchOptions &
BenchOptions::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(std::move(arg));
            continue;
        }

        std::string key = arg.substr(2);
        std::string value;
        bool have_value = false;
        const std::size_t eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
            have_value = true;
        }

        Option *opt = find(key);
        if (opt == nullptr)
            fail("unknown flag --" + key);

        if (!have_value && opt->kind != Kind::Flag) {
            // Value-typed options consume the next token.
            if (i + 1 >= argc ||
                std::string(argv[i + 1]).rfind("--", 0) == 0)
                fail("flag --" + key + " requires a " +
                     kindName(static_cast<int>(opt->kind)) +
                     " value");
            value = argv[++i];
            have_value = true;
        }

        switch (opt->kind) {
        case Kind::Flag: {
            bool parsed = true;
            if (have_value && !parseBool(value, parsed))
                fail("flag --" + key +
                     " expects true/false, got '" + value + "'");
            opt->value = parsed ? "true" : "false";
            break;
        }
        case Kind::Integer: {
            char *end = nullptr;
            const long parsed = std::strtol(value.c_str(), &end, 10);
            if (value.empty() || end == nullptr || *end != '\0')
                fail("flag --" + key + " expects an integer, got '" +
                     value + "'");
            if (parsed < opt->min)
                fail("flag --" + key + " expects an integer >= " +
                     std::to_string(opt->min) + ", got '" + value +
                     "'");
            opt->value = value;
            break;
        }
        case Kind::Real: {
            char *end = nullptr;
            std::strtod(value.c_str(), &end);
            if (value.empty() || end == nullptr || *end != '\0')
                fail("flag --" + key + " expects a number, got '" +
                     value + "'");
            opt->value = value;
            break;
        }
        case Kind::Text:
            opt->value = value;
            break;
        }
        opt->given = true;
    }
    return *this;
}

const BenchOptions::Option &
BenchOptions::require(const std::string &name, Kind kind) const
{
    const Option *opt = find(name);
    AV_ASSERT(opt != nullptr, "option --", name, " was not declared");
    AV_ASSERT(opt->kind == kind, "option --", name, " is a ",
              kindName(static_cast<int>(opt->kind)), ", read as ",
              kindName(static_cast<int>(kind)));
    return *opt;
}

bool
BenchOptions::flag(const std::string &name) const
{
    return require(name, Kind::Flag).value == "true";
}

long
BenchOptions::integer(const std::string &name) const
{
    return std::strtol(require(name, Kind::Integer).value.c_str(),
                       nullptr, 10);
}

double
BenchOptions::real(const std::string &name) const
{
    return std::strtod(require(name, Kind::Real).value.c_str(),
                       nullptr);
}

const std::string &
BenchOptions::text(const std::string &name) const
{
    return require(name, Kind::Text).value;
}

bool
BenchOptions::given(const std::string &name) const
{
    const Option *opt = find(name);
    return opt != nullptr && opt->given;
}

BenchOptions
commonOptions()
{
    return BenchOptions()
        .integer("duration", 60,
                 "drive length in seconds (the paper used 480)", 1)
        .integer("seed", 2020, "scenario seed")
        .flag("csv", "machine-readable output")
        .integer("jobs", 0,
                 "worker threads (0 = hardware concurrency)", 0)
        .text("cache-dir", exp::defaultCacheDir(),
              "result-cache directory")
        .flag("no-cache", "disable the result cache")
        .flag("trace",
              "record the execution DAG and report the critical "
              "path per run");
}

} // namespace av::bench
