/**
 * @file
 * The avlint rule set. Each rule is a small matcher over the token
 * stream of one SourceFile; see avlint.hh for the catalog and the
 * rationale per rule.
 */

#include "avlint.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <set>

namespace av::lint {

namespace {

using Diags = std::vector<Diagnostic>;

std::string
lower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return s;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

void
emit(Diags &out, const SourceFile &f, int line,
     const std::string &rule, const std::string &message)
{
    out.push_back(Diagnostic{f.relPath(), line, rule, message});
}

// ---------------------------------------------------------------
// wall-clock: nondeterminism sources outside src/util/random.*.
// One stray wall-clock read or unseeded RNG breaks bit-for-bit
// reproduction of Fig. 5-8 / Tables III-VII.
// ---------------------------------------------------------------

void
ruleWallClock(const SourceFile &f, Diags &out)
{
    if (startsWith(f.relPath(), "src/util/random."))
        return;

    static const std::set<std::string> banned = {
        "system_clock",     "steady_clock",
        "high_resolution_clock", "clock_gettime",
        "gettimeofday",     "random_device",
        "default_random_engine", "drand48",
        "srand48",
    };
    // These also need a call paren: plain words are too common.
    static const std::set<std::string> bannedCalls = {
        "rand", "srand", "getenv",
    };

    const auto &toks = f.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokenKind::Identifier)
            continue;
        const bool call = bannedCalls.count(t.text) &&
                          i + 1 < toks.size() &&
                          toks[i + 1].text == "(";
        if (banned.count(t.text) || call)
            emit(out, f, t.line, "wall-clock",
                 "'" + t.text + "' is a nondeterminism source; draw"
                 " from util::Rng / the virtual clock instead");
    }
}

// ---------------------------------------------------------------
// raw-time-arith: scaling time by 1e9/1e-9 by hand instead of
// going through the sim/ticks.hh helpers.
// ---------------------------------------------------------------

bool
isTimeScale(const std::string &text)
{
    const char *s = text.c_str();
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s)
        return false;
    return v == 1e9 || v == 1e-9;
}

bool
isTimeIdent(const std::string &ident)
{
    const std::string id = lower(ident);
    static const std::set<std::string> exact = {"dt", "now", "t"};
    if (exact.count(id))
        return true;
    static const char *const stems[] = {
        "tick", "stamp", "time",  "enqueued", "elapsed",
        "started", "lastupdate", "deadline", "period", "latency",
    };
    for (const char *stem : stems)
        if (id.find(stem) != std::string::npos)
            return true;
    return false;
}

void
ruleRawTimeArith(const SourceFile &f, Diags &out)
{
    if (f.relPath() == "src/sim/ticks.hh")
        return;

    const auto &toks = f.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokenKind::Number || !isTimeScale(t.text))
            continue;
        const bool mul_div =
            (i > 0 && (toks[i - 1].text == "*" ||
                       toks[i - 1].text == "/")) ||
            (i + 1 < toks.size() && (toks[i + 1].text == "*" ||
                                     toks[i + 1].text == "/"));
        if (!mul_div)
            continue;
        // Only fire when a time-ish identifier shares the
        // statement's line; bare 1e9 sentinels stay legal.
        bool time_context = false;
        for (const Token &o : toks) {
            if (o.line < t.line - 1)
                continue;
            if (o.line > t.line)
                break;
            if (o.kind == TokenKind::Identifier &&
                isTimeIdent(o.text)) {
                time_context = true;
                break;
            }
        }
        if (time_context)
            emit(out, f, t.line, "raw-time-arith",
                 "scaling time by " + t.text + " by hand; use the"
                 " sim/ticks.hh Tick helpers");
    }
}

// ---------------------------------------------------------------
// include-guard: headers carry AVSCOPE_<PATH>_HH guards.
// ---------------------------------------------------------------

std::string
expectedGuard(const std::string &rel_path)
{
    std::string path = rel_path;
    if (startsWith(path, "src/"))
        path = path.substr(4);
    const std::size_t dot = path.rfind('.');
    if (dot != std::string::npos)
        path = path.substr(0, dot);
    std::string guard = "AVSCOPE_";
    for (const char c : path) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            guard.push_back(static_cast<char>(
                std::toupper(static_cast<unsigned char>(c))));
        else
            guard.push_back('_');
    }
    guard += "_HH";
    return guard;
}

void
ruleIncludeGuard(const SourceFile &f, Diags &out)
{
    if (!f.isHeader())
        return;
    const std::string want = expectedGuard(f.relPath());
    const auto &toks = f.tokens();
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].text != "#" || toks[i + 1].text != "ifndef")
            continue;
        const Token &name = toks[i + 2];
        if (name.text != want) {
            emit(out, f, name.line, "include-guard",
                 "guard '" + name.text + "' should be '" + want +
                     "'");
            return;
        }
        // #define must follow with the same name.
        if (i + 5 < toks.size() && toks[i + 3].text == "#" &&
            toks[i + 4].text == "define" &&
            toks[i + 5].text == want)
            return;
        emit(out, f, name.line, "include-guard",
             "#ifndef " + want + " not followed by a matching"
             " #define");
        return;
    }
    emit(out, f, 1, "include-guard",
         "missing include guard (expected " + want + ")");
}

// ---------------------------------------------------------------
// using-namespace-header: headers must not dump namespaces into
// every includer.
// ---------------------------------------------------------------

void
ruleUsingNamespaceHeader(const SourceFile &f, Diags &out)
{
    if (!f.isHeader())
        return;
    const auto &toks = f.tokens();
    for (std::size_t i = 0; i + 1 < toks.size(); ++i)
        if (toks[i].text == "using" &&
            toks[i + 1].text == "namespace")
            emit(out, f, toks[i].line, "using-namespace-header",
                 "'using namespace' in a header leaks into every"
                 " includer");
}

// ---------------------------------------------------------------
// unordered-iter: iterating an unordered container. Hash-order
// iteration feeds nondeterministic ordering (and FP accumulation
// order) into whatever consumes it; iterate a sorted copy or
// suppress with a written justification.
// ---------------------------------------------------------------

std::set<std::string>
unorderedDecls(const SourceFile &f)
{
    std::set<std::string> names;
    const auto &toks = f.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Identifier ||
            !startsWith(toks[i].text, "unordered_"))
            continue;
        std::size_t j = i + 1;
        if (j >= toks.size() || toks[j].text != "<")
            continue;
        int depth = 0;
        for (; j < toks.size(); ++j) {
            if (toks[j].text == "<")
                ++depth;
            else if (toks[j].text == ">" && --depth == 0)
                break;
        }
        if (j + 1 >= toks.size())
            continue;
        const Token &name = toks[j + 1];
        if (name.kind != TokenKind::Identifier)
            continue;
        // `unordered_map<...> f()` declares a function, not a var.
        if (j + 2 < toks.size() && toks[j + 2].text == "(")
            continue;
        names.insert(name.text);
    }
    return names;
}

void
ruleUnorderedIter(const SourceFile &f, const SourceFile *companion,
                  Diags &out)
{
    std::set<std::string> names = unorderedDecls(f);
    if (companion)
        names.merge(unorderedDecls(*companion));
    if (names.empty())
        return;

    const auto &toks = f.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
        // Range-for over a tracked container.
        if (toks[i].text == "for" && i + 1 < toks.size() &&
            toks[i + 1].text == "(") {
            int depth = 0;
            bool after_colon = false;
            for (std::size_t j = i + 1; j < toks.size(); ++j) {
                if (toks[j].text == "(") {
                    ++depth;
                } else if (toks[j].text == ")") {
                    if (--depth == 0)
                        break;
                } else if (depth == 1 && toks[j].text == ":" &&
                           toks[j - 1].text != ":" &&
                           (j + 1 >= toks.size() ||
                            toks[j + 1].text != ":")) {
                    after_colon = true;
                } else if (after_colon &&
                           toks[j].kind ==
                               TokenKind::Identifier &&
                           names.count(toks[j].text)) {
                    emit(out, f, toks[i].line, "unordered-iter",
                         "iterating unordered container '" +
                             toks[j].text +
                             "' — hash order is not part of the"
                             " determinism contract");
                    break;
                }
            }
        }
        // Explicit name.begin() / name.cbegin().
        if (toks[i].kind == TokenKind::Identifier &&
            names.count(toks[i].text) && i + 2 < toks.size() &&
            toks[i + 1].text == "." &&
            (toks[i + 2].text == "begin" ||
             toks[i + 2].text == "cbegin"))
            emit(out, f, toks[i].line, "unordered-iter",
                 "iterating unordered container '" + toks[i].text +
                     "' — hash order is not part of the"
                     " determinism contract");
    }
}

// ---------------------------------------------------------------
// raw-new-delete: naked new/delete outside RAII wrappers.
// ---------------------------------------------------------------

void
ruleRawNewDelete(const SourceFile &f, Diags &out)
{
    const auto &toks = f.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokenKind::Identifier)
            continue;
        if (t.text == "new") {
            emit(out, f, t.line, "raw-new-delete",
                 "naked 'new'; own the allocation with"
                 " unique_ptr/shared_ptr");
        } else if (t.text == "delete") {
            // `= delete;` declares a deleted function.
            const bool deleted_fn =
                i > 0 && toks[i - 1].text == "=" &&
                i + 1 < toks.size() &&
                (toks[i + 1].text == ";" || toks[i + 1].text == ",");
            if (!deleted_fn)
                emit(out, f, t.line, "raw-new-delete",
                     "naked 'delete'; let a smart pointer release"
                     " the allocation");
        }
    }
}

// ---------------------------------------------------------------
// print-in-library: src/ code reports through util/logging, never
// straight to stdio (benches/examples/tools may print freely).
// ---------------------------------------------------------------

void
rulePrintInLibrary(const SourceFile &f, Diags &out)
{
    if (!startsWith(f.relPath(), "src/") ||
        startsWith(f.relPath(), "src/util/logging."))
        return;

    static const std::set<std::string> banned = {
        "printf", "fprintf", "sprintf", "vprintf", "puts",
        "putchar", "cout", "cerr",
    };
    for (const Token &t : f.tokens())
        if (t.kind == TokenKind::Identifier && banned.count(t.text))
            emit(out, f, t.line, "print-in-library",
                 "'" + t.text + "' in library code; report through"
                 " util/logging");
}

// ---------------------------------------------------------------
// probe-tap: library code outside src/ros (measurement probes, the
// safety monitor, the nodes) reads the run's trace::Recorder; it
// never installs its own topic tap. A private tap is a second
// recording path that can disagree with the first. src/ros defines
// Topic::addTap and is outside the rule.
// ---------------------------------------------------------------

void
ruleProbeTap(const SourceFile &f, Diags &out)
{
    if (!startsWith(f.relPath(), "src/") ||
        startsWith(f.relPath(), "src/ros/"))
        return;
    for (const Token &t : f.tokens())
        if (t.kind == TokenKind::Identifier && t.text == "addTap")
            emit(out, f, t.line, "probe-tap",
                 "'addTap' in a probe or watcher; read the run's"
                 " trace::Recorder instead");
}

// ---------------------------------------------------------------
// tmp-path: a test naming a fixed /tmp/ path shares it with every
// other test process (ctest -j runs them concurrently) and every
// checkout on the host, so one test's cleanup can delete another's
// files. Tests take a per-test directory from tests/test_dir.hh.
// Needs a file lexed with keep_strings.
// ---------------------------------------------------------------

void
ruleTmpPath(const SourceFile &f, Diags &out)
{
    if (!startsWith(f.relPath(), "tests/"))
        return;
    for (const Token &t : f.tokens())
        if (t.kind == TokenKind::String && startsWith(t.text, "/tmp/"))
            emit(out, f, t.line, "tmp-path",
                 "fixed scratch path '" + t.text + "' in a test; use"
                 " av::test::freshTestDir()");
}

// ---------------------------------------------------------------
// mutable-global: namespace-scope mutable variables in src/.
// Shared mutable state is what lets one experiment's replay observe
// another's — the failure mode the thread-parallel Runner must
// exclude. All run state must live in per-run objects; the rare
// justified global (the process logger) carries a written
// suppression.
// ---------------------------------------------------------------

/** Index just past the brace block opening at @p open. */
std::size_t
skipBraces(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t j = open; j < toks.size(); ++j) {
        if (toks[j].text == "{")
            ++depth;
        else if (toks[j].text == "}" && --depth == 0)
            return j + 1;
    }
    return toks.size();
}

/** Index just past the paren group opening at @p open. */
std::size_t
skipParens(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t j = open; j < toks.size(); ++j) {
        if (toks[j].text == "(")
            ++depth;
        else if (toks[j].text == ")" && --depth == 0)
            return j + 1;
    }
    return toks.size();
}

/** Index just past an initializer: everything up to the ';'. */
std::size_t
skipInitializer(const std::vector<Token> &toks, std::size_t j)
{
    while (j < toks.size()) {
        if (toks[j].text == ";")
            return j + 1;
        if (toks[j].text == "{")
            j = skipBraces(toks, j);
        else if (toks[j].text == "(")
            j = skipParens(toks, j);
        else
            ++j;
    }
    return j;
}

void
ruleMutableGlobal(const SourceFile &f, Diags &out)
{
    // Library code only: benches/examples/tools own their process
    // and may keep main()-adjacent state.
    if (!startsWith(f.relPath(), "src/"))
        return;

    // Statement openers that can never declare a mutable variable.
    static const std::set<std::string> skipStmt = {
        "using",  "typedef", "template",      "class",
        "struct", "enum",    "union",         "extern",
        "friend", "static_assert",
    };

    const auto &toks = f.tokens();
    std::size_t i = 0;
    while (i < toks.size()) {
        const Token &t = toks[i];
        if (t.text == "#") {
            // Preprocessor directive: consume the rest of its line.
            const int line = t.line;
            while (i < toks.size() && toks[i].line == line)
                ++i;
            continue;
        }
        if (t.text == "namespace") {
            // Enter the namespace: its body stays namespace scope.
            while (i < toks.size() && toks[i].text != "{" &&
                   toks[i].text != ";")
                ++i;
            if (i < toks.size())
                ++i;
            continue;
        }
        if (t.text == "}" || t.text == ";") {
            ++i; // namespace close / stray semicolon
            continue;
        }
        if (skipStmt.count(t.text)) {
            // Type definition or alias: skip its body and the
            // trailing semicolon.
            std::size_t j = i;
            while (j < toks.size() && toks[j].text != ";" &&
                   toks[j].text != "{")
                ++j;
            if (j < toks.size() && toks[j].text == "{") {
                j = skipBraces(toks, j);
                if (j < toks.size() && toks[j].text == ";")
                    ++j;
            } else if (j < toks.size()) {
                ++j;
            }
            i = j;
            continue;
        }

        // Candidate declaration: scan its declarator part.
        const int stmtLine = t.line;
        bool isConst = false, isFunction = false, ended = false;
        std::string name;
        std::size_t idents = 0;
        std::size_t j = i;
        while (j < toks.size() && !ended) {
            const std::string &w = toks[j].text;
            if (w == ";") {
                ++j;
                ended = true;
            } else if (w == "(") {
                isFunction = true;
                j = skipParens(toks, j);
            } else if (w == "=" && !isFunction) {
                j = skipInitializer(toks, j);
                ended = true;
            } else if (w == "{") {
                const std::size_t after = skipBraces(toks, j);
                if (after < toks.size() &&
                    toks[after].text == ";") {
                    j = after + 1; // brace initializer
                } else {
                    isFunction = true; // function/lambda body
                    j = after;
                }
                ended = true;
            } else {
                if (w == "const" || w == "constexpr" ||
                    w == "constinit")
                    isConst = true;
                // Punct tokens are single chars, so `operator==`
                // lexes as `operator` `=` `=`; classify before the
                // `=` branch can mistake it for an initializer.
                if (w == "operator")
                    isFunction = true;
                if (toks[j].kind == TokenKind::Identifier) {
                    name = w;
                    ++idents;
                }
                ++j;
            }
        }
        if (!isFunction && !isConst && idents >= 2)
            emit(out, f, stmtLine, "mutable-global",
                 "namespace-scope mutable variable '" + name +
                     "'; per-run state must live in run objects"
                     " (suppress with a written justification if"
                     " truly process-wide)");
        i = j;
    }
}

// ---------------------------------------------------------------
// unseeded-random: util::Rng or a std engine constructed in src/
// without an explicit seed. A default-constructed generator is a
// replay hazard: the stream it yields is decided by whatever the
// default happens to be, not by the experiment's configuration.
// Member declarations (trailing '_') are exempt — they are seeded
// in their constructor's init list.
// ---------------------------------------------------------------

void
ruleUnseededRandom(const SourceFile &f, Diags &out)
{
    if (!startsWith(f.relPath(), "src/") ||
        startsWith(f.relPath(), "src/util/random."))
        return;

    static const std::set<std::string> engines = {
        "Rng",          "mt19937",      "mt19937_64",
        "minstd_rand",  "minstd_rand0", "ranlux24",
        "ranlux48",     "knuth_b",
    };

    const auto &toks = f.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokenKind::Identifier || !engines.count(t.text))
            continue;
        // Not the type's own definition / member access.
        if (i > 0 && (toks[i - 1].text == "class" ||
                      toks[i - 1].text == "struct" ||
                      toks[i - 1].text == "."))
            continue;
        if (i + 1 >= toks.size())
            continue;
        const Token &next = toks[i + 1];

        const auto flag = [&](int line) {
            emit(out, f, line, "unseeded-random",
                 "'" + t.text + "' constructed without an explicit"
                 " seed; pass one (or fork() an existing stream) so"
                 " replays stay byte-identical");
        };

        // Temporary: `Rng()` / `Rng{}` with an empty argument list.
        if (next.text == "(" || next.text == "{") {
            const std::size_t close =
                next.text == "(" ? skipParens(toks, i + 1)
                                 : skipBraces(toks, i + 1);
            if (close == i + 3)
                flag(t.line);
            continue;
        }
        if (next.kind != TokenKind::Identifier)
            continue; // reference, template argument, pointer, ...

        // `Rng name ...`: a variable declaration. Members (trailing
        // '_') are seeded in a ctor init list; `= expr` carries its
        // own construction; `(...)` is either a seeded ctor or a
        // function declaration — neither is a bare default.
        if (!next.text.empty() && next.text.back() == '_')
            continue;
        if (i + 2 >= toks.size())
            continue;
        const Token &after = toks[i + 2];
        if (after.text == ";") {
            flag(t.line);
        } else if (after.text == "{") {
            if (skipBraces(toks, i + 2) == i + 4)
                flag(t.line);
        }
    }
}

// ---------------------------------------------------------------
// mutable-loan: reading a message after handing it to
// publish(std::move(...)). Under the loaned transport (DESIGN.md
// §12) publish takes ownership of the payload, so the moved-from
// object is hollow — and a sibling argument such as
// `out->byteSize()` evaluated in the same call races the move
// (argument evaluation order is unspecified). The check is
// flow-sensitive within the function body: every read between the
// move and a re-seating assignment is flagged; a reassignment at
// the move's own depth ends tracking, one inside a nested block
// cleans only that block (the moved-from object is visible again
// once the block closes), and tracking stops when the scope
// containing the move ends.
// ---------------------------------------------------------------

void
ruleMutableLoan(const SourceFile &f, Diags &out)
{
    const auto &toks = f.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Identifier ||
            toks[i].text != "publish" || i + 1 >= toks.size() ||
            toks[i + 1].text != "(")
            continue;
        const std::size_t callEnd = skipParens(toks, i + 1);

        // Find `std::move(<*>name)` inside the argument list. Only a
        // plain (possibly dereferenced) name is trackable; moves of
        // member expressions are left to the sanitizers.
        std::string name;
        std::size_t moveEnd = 0;
        for (std::size_t j = i + 2; j + 4 < callEnd; ++j) {
            if (toks[j].text != "std" || toks[j + 1].text != ":" ||
                toks[j + 2].text != ":" ||
                toks[j + 3].text != "move" ||
                toks[j + 4].text != "(")
                continue;
            std::size_t k = j + 5;
            if (k < callEnd && toks[k].text == "*")
                ++k;
            if (k + 1 < callEnd &&
                toks[k].kind == TokenKind::Identifier &&
                toks[k + 1].text == ")") {
                name = toks[k].text;
                moveEnd = k + 2;
            }
            break;
        }
        if (name.empty())
            continue;

        // Flow-sensitive walk from the move: depth is relative to
        // the move site; clean_depth, when >= 0, is the nested block
        // depth whose reassignment currently shields reads.
        int depth = 0;
        int clean_depth = -1;
        for (std::size_t j = moveEnd; j < toks.size(); ++j) {
            const std::string &w = toks[j].text;
            if (w == "{") {
                ++depth;
            } else if (w == "}") {
                --depth;
                if (depth < 0)
                    break; // the move's own scope ended
                if (clean_depth >= 0 && depth < clean_depth)
                    clean_depth = -1; // nested re-seat went away
            } else if (toks[j].kind == TokenKind::Identifier &&
                       w == name) {
                if (clean_depth >= 0)
                    continue; // reads the re-seated value
                // `name = ...` re-seats the handle and is legal.
                const bool reassign =
                    j + 1 < toks.size() &&
                    toks[j + 1].text == "=" &&
                    (j + 2 >= toks.size() ||
                     toks[j + 2].text != "=");
                if (reassign) {
                    if (depth == 0)
                        break; // clean for the rest of the scope
                    clean_depth = depth;
                } else {
                    emit(out, f, toks[j].line, "mutable-loan",
                         "'" + name + "' read after being loaned to"
                         " publish(std::move(...)); the transport"
                         " owns the payload now — hoist the read"
                         " (e.g. byteSize()) above the publish");
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// swallowed-exception: a broad catch block in src/ that neither
// rethrows nor reports. A silently absorbed exception turns a
// failed replay into a plausible-looking measurement — worse than
// a crash for a characterization tool. Narrow typed handlers are
// fine (they encode a decision about one failure); catch (...) and
// catch (std::exception) must rethrow, log through util/logging,
// or capture std::current_exception for a later waiter.
// ---------------------------------------------------------------

void
ruleSwallowedException(const SourceFile &f, Diags &out)
{
    // Library code only, like print-in-library: benches, examples
    // and tools own their process and may reasonably absorb a
    // failure at the top level after printing usage.
    if (!startsWith(f.relPath(), "src/"))
        return;

    // Any of these inside the handler body counts as handling:
    // rethrow, structured capture, or a report through the logger.
    static const std::set<std::string> handles = {
        "throw",    "rethrow_exception",
        "current_exception", "inform",
        "warn",     "debug",
        "fatal",    "AV_ASSERT",
    };

    const auto &toks = f.tokens();
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Identifier ||
            toks[i].text != "catch" || toks[i + 1].text != "(")
            continue;
        const std::size_t parenEnd = skipParens(toks, i + 1);
        // Broad handler: "..." (three '.' Punct tokens) or any
        // declaration naming `exception` (std::exception and
        // aliases). Narrow typed handlers pass.
        bool broad = false;
        for (std::size_t j = i + 2; j + 1 < parenEnd; ++j) {
            if (toks[j].text == "." ||
                (toks[j].kind == TokenKind::Identifier &&
                 toks[j].text == "exception")) {
                broad = true;
                break;
            }
        }
        if (!broad || parenEnd >= toks.size() ||
            toks[parenEnd].text != "{")
            continue;
        const std::size_t bodyEnd = skipBraces(toks, parenEnd);
        bool handled = false;
        for (std::size_t j = parenEnd + 1; j + 1 < bodyEnd; ++j) {
            if (toks[j].kind == TokenKind::Identifier &&
                handles.count(toks[j].text)) {
                handled = true;
                break;
            }
        }
        if (!handled)
            emit(out, f, toks[i].line, "swallowed-exception",
                 "broad catch neither rethrows nor reports;"
                 " rethrow, log through util/logging, or capture"
                 " std::current_exception");
    }
}

/** Drop suppressed findings and sort the rest. */
std::vector<Diagnostic>
unsuppressed(const SourceFile &file, Diags all)
{
    Diags kept;
    for (Diagnostic &d : all)
        if (!file.suppressed(d.rule, d.line))
            kept.push_back(std::move(d));
    sortDiagnostics(kept);
    return kept;
}

} // namespace

std::vector<std::string>
ruleNames()
{
    return {
        "wall-clock",        "raw-time-arith",
        "include-guard",     "using-namespace-header",
        "unordered-iter",    "raw-new-delete",
        "print-in-library",  "mutable-global",
        "unseeded-random",   "mutable-loan",
        "swallowed-exception", "probe-tap",
        "tmp-path",
    };
}

std::vector<Diagnostic>
lintSource(const SourceFile &file, const SourceFile *companion)
{
    Diags all;
    ruleWallClock(file, all);
    ruleRawTimeArith(file, all);
    ruleIncludeGuard(file, all);
    ruleUsingNamespaceHeader(file, all);
    ruleUnorderedIter(file, companion, all);
    ruleRawNewDelete(file, all);
    rulePrintInLibrary(file, all);
    ruleMutableGlobal(file, all);
    ruleUnseededRandom(file, all);
    ruleMutableLoan(file, all);
    ruleSwallowedException(file, all);
    ruleProbeTap(file, all);
    return unsuppressed(file, std::move(all));
}

std::vector<Diagnostic>
lintTestSource(const SourceFile &file)
{
    Diags all;
    ruleTmpPath(file, all);
    return unsuppressed(file, std::move(all));
}

void
sortDiagnostics(std::vector<Diagnostic> &diags)
{
    std::sort(diags.begin(), diags.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
}

} // namespace av::lint
