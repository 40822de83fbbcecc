/**
 * @file
 * avlint — AVScope's in-repo static checker.
 *
 * The simulator's claim to validity is bit-for-bit determinism: every
 * probe reads the virtual clock (sim/ticks.hh) and every stochastic
 * component draws from an explicitly seeded util::Rng. Nothing in the
 * compiler enforces that contract, so avlint does. It tokenizes each
 * translation unit (comments and string literals stripped) and runs a
 * set of repo-specific rules:
 *
 *   wall-clock        nondeterminism sources (system_clock, rand(),
 *                     random_device, getenv, ...) outside
 *                     src/util/random.*
 *   raw-time-arith    double time arithmetic with 1e9/1e-9 scale
 *                     factors outside src/sim/ticks.hh — time must go
 *                     through the Tick helpers
 *   include-guard     header guards must spell AVSCOPE_<PATH>_HH
 *   using-namespace-header
 *                     no `using namespace` in headers
 *   unordered-iter    iteration over unordered containers (ordering
 *                     feeds nondeterminism into reports and floating-
 *                     point accumulation)
 *   raw-new-delete    naked new/delete outside RAII wrappers
 *   print-in-library  printf/cout in src/ library code — use
 *                     util/logging instead
 *   mutable-global    namespace-scope mutable variables in src/ —
 *                     shared mutable state breaks the isolation
 *                     contract of the thread-parallel Runner
 *   unseeded-random   util::Rng or a std random engine constructed
 *                     in src/ without an explicit seed — every
 *                     stream must be seeded (or fork()ed) to keep
 *                     replays byte-identical
 *   mutable-loan      reading a message after loaning it to
 *                     publish(std::move(...)) — the v2 transport
 *                     owns the payload from that point (DESIGN.md
 *                     §12), and sibling arguments in the same call
 *                     race the move. The check is flow-sensitive
 *                     within the function body: every read between
 *                     the move and a re-seating assignment is
 *                     flagged, a reassignment inside a nested block
 *                     cleans only that block (the name is moved-from
 *                     again once the block closes), and tracking
 *                     ends when the scope containing the move ends
 *   swallowed-exception
 *                     catch (...) or catch (std::exception) in src/
 *                     that neither rethrows nor reports — a silently
 *                     absorbed exception turns a failed replay into
 *                     a plausible-looking measurement. Handlers that
 *                     rethrow, log through util/logging, or capture
 *                     std::current_exception pass; narrow typed
 *                     handlers are exempt (they encode a decision
 *                     about one specific failure)
 *   probe-tap         addTap in src/ outside src/ros (which defines
 *                     it) — measurement probes, the safety monitor
 *                     and the nodes read the run's trace::Recorder,
 *                     never a private topic tap
 *   tmp-path          a string literal starting with /tmp/ under
 *                     tests/ — a fixed scratch path is shared by
 *                     every test process (ctest -j) and checkout on
 *                     the host; take a per-test directory from
 *                     tests/test_dir.hh. tests/ is lexed with string
 *                     literals kept and runs only this rule; the
 *                     other rules keep their scopes
 *
 * A diagnostic on line N is silenced by `// avlint: allow(<rule>)` on
 * the same line, or on a comment-only line directly above. A
 * file-level `// avlint: allow-file(<rule>)` silences the rule for the
 * whole file. `*` matches every rule.
 */

#ifndef AVSCOPE_TOOLS_AVLINT_AVLINT_HH
#define AVSCOPE_TOOLS_AVLINT_AVLINT_HH

#include <string>
#include <vector>

namespace av::lint {

/** One finding: file, 1-based line, stable rule id, human message. */
struct Diagnostic
{
    std::string file; ///< path as reported to the user
    int line = 0;     ///< 1-based source line
    std::string rule; ///< stable rule id, e.g. "wall-clock"
    std::string message;
};

/** Kind of a lexed token. */
enum class TokenKind {
    Identifier,
    Number,
    Punct,
    /** A string literal. For lint rules the content is blanked (so
     *  banned identifiers may appear in messages); avgraph's
     *  literal-preserving mode keeps the characters — topic names
     *  live in string literals. */
    String,
};

/** One token of the scrubbed source. */
struct Token
{
    std::string text;
    int line = 0;
    TokenKind kind = TokenKind::Punct;
};

/**
 * A source file prepared for linting: raw lines (for suppression
 * comments), scrubbed text (comments and literals blanked), and the
 * token stream.
 */
class SourceFile
{
  public:
    /**
     * Build from in-memory content.
     * @param rel_path repo-relative path; drives per-path rule
     *        exemptions and the expected include-guard name
     * @param keep_strings keep string-literal characters in the
     *        String tokens (avgraph needs topic names); lint rules
     *        use the default blanked form so banned identifiers may
     *        appear inside messages without firing
     */
    SourceFile(std::string rel_path, const std::string &content,
               bool keep_strings = false);

    const std::string &relPath() const { return relPath_; }
    const std::vector<std::string> &rawLines() const { return raw_; }
    const std::vector<Token> &tokens() const { return tokens_; }

    /** True for .hh files. */
    bool isHeader() const;

    /** True when @p rule is suppressed on @p line (1-based). */
    bool suppressed(const std::string &rule, int line) const;

  private:
    struct Suppression
    {
        int line;         ///< line the comment sits on
        bool wholeFile;   ///< allow-file(...) form
        bool nextLineOnly;///< comment-only line: applies to line+1
        std::vector<std::string> rules; ///< "*" matches all
    };

    std::string relPath_;
    std::vector<std::string> raw_;
    std::vector<Token> tokens_;
    std::vector<Suppression> suppressions_;

    void parseSuppressions();
    void tokenize(const std::string &scrubbed);
};

/** Names of all rules, in reporting order. */
std::vector<std::string> ruleNames();

/**
 * Run every rule over @p file. @p companion, when non-null, is the
 * sibling header of a .cc file; its declarations seed the
 * unordered-iter rule so members declared in the header are tracked.
 * Suppressions are already applied to the returned list.
 */
std::vector<Diagnostic> lintSource(const SourceFile &file,
                                   const SourceFile *companion);

/**
 * Run the tests/ rule set over @p file: tmp-path only. @p file must
 * be built with keep_strings, since the rule reads string literals.
 * Suppressions are already applied to the returned list.
 */
std::vector<Diagnostic> lintTestSource(const SourceFile &file);

/**
 * Load @p fs_path from disk and lint it as @p rel_path. Looks for a
 * sibling .hh next to a .cc automatically. A @p rel_path under
 * tests/ gets lintTestSource instead of lintSource.
 */
std::vector<Diagnostic> lintFile(const std::string &fs_path,
                                 const std::string &rel_path);

/**
 * Lint the whole repo rooted at @p root: src/, bench/, examples/,
 * tools/ and tests/ (minus tests/tools/fixtures/, which hosts
 * intentionally-violating sources). Results are sorted by (file,
 * line, rule) — never filesystem traversal order — so output is
 * byte-stable across platforms and runs.
 */
std::vector<Diagnostic> lintTree(const std::string &root);

/**
 * Sort @p diags by (file, line, rule, message) in place — the one
 * reporting order every avlint/avgraph emitter uses.
 */
void sortDiagnostics(std::vector<Diagnostic> &diags);

} // namespace av::lint

#endif // AVSCOPE_TOOLS_AVLINT_AVLINT_HH
