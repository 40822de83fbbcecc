/**
 * @file
 * Static extraction of the pub/sub graph from source text.
 *
 * Built on avlint's SourceFile in literal-preserving mode: string
 * tokens carry their characters, so topic names are readable both
 * as direct literals and through the `constexpr const char *`
 * topic-constant symbol table. Node attribution uses the
 * constructor anchor `PerceptionNode(graph, "name", ...)` /
 * `Node(graph, "name")`: sites that follow it (member-init list and
 * constructor body) belong to that node until the next anchor.
 * Unresolvable topic arguments (e.g. a bag channel created from a
 * runtime string) are skipped — the analysis is best-effort static,
 * never guessing.
 */

#include "avgraph.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

namespace av::graph {

namespace fs = std::filesystem;

namespace {

using lint::SourceFile;
using lint::Token;
using lint::TokenKind;

std::optional<std::string>
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == TokenKind::Punct && t.text == text;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/**
 * Read the template argument list opening at @p open (the '<'
 * token): joins the argument tokens into @p type and returns the
 * index just past the matching '>'.
 */
std::size_t
readTemplateType(const std::vector<Token> &toks, std::size_t open,
                 std::string *type)
{
    int depth = 0;
    std::string out;
    std::size_t j = open;
    while (j < toks.size()) {
        if (isPunct(toks[j], "<")) {
            ++depth;
            if (depth == 1) {
                ++j;
                continue;
            }
        } else if (isPunct(toks[j], ">")) {
            if (--depth == 0) {
                ++j;
                break;
            }
        }
        out += toks[j].text;
        ++j;
    }
    *type = out;
    return j;
}

/**
 * Collect the token indices of the first call argument. @p open is
 * the '(' token; returns the index of the delimiter (the ',' or the
 * closing ')' at call depth) so callers can continue after it.
 */
std::size_t
readFirstArg(const std::vector<Token> &toks, std::size_t open,
             std::vector<std::size_t> *arg)
{
    int paren = 0;
    for (std::size_t j = open; j < toks.size(); ++j) {
        if (isPunct(toks[j], "(")) {
            ++paren;
            if (paren == 1)
                continue;
        } else if (isPunct(toks[j], ")")) {
            --paren;
            if (paren == 0)
                return j;
        } else if (paren == 1 && isPunct(toks[j], ",")) {
            return j;
        }
        arg->push_back(j);
    }
    return toks.size();
}

/**
 * Resolve a topic argument: a string literal is taken verbatim
 * (adjacent literals concatenate); otherwise the last identifier is
 * looked up in the topic-constant symbol table. Empty when
 * unresolvable.
 */
std::string
resolveTopic(const std::vector<Token> &toks,
             const std::vector<std::size_t> &arg,
             const std::map<std::string, std::string> &symbols)
{
    std::string literal;
    bool any_string = false, any_ident = false;
    std::string last_ident;
    for (const std::size_t idx : arg) {
        if (toks[idx].kind == TokenKind::String) {
            any_string = true;
            literal += toks[idx].text;
        } else if (toks[idx].kind == TokenKind::Identifier) {
            any_ident = true;
            last_ident = toks[idx].text;
        }
    }
    if (any_string && !any_ident)
        return literal;
    if (any_ident) {
        const auto it = symbols.find(last_ident);
        if (it != symbols.end())
            return it->second;
    }
    return {};
}

/** `constexpr const char *name = "...";` -> symbols[name]. */
void
collectSymbols(const SourceFile &f,
               std::map<std::string, std::string> &symbols)
{
    const auto &toks = f.tokens();
    for (std::size_t i = 0; i + 4 < toks.size(); ++i) {
        if (toks[i].text != "char" || !isPunct(toks[i + 1], "*") ||
            toks[i + 2].kind != TokenKind::Identifier ||
            !isPunct(toks[i + 3], "="))
            continue;
        const std::string &name = toks[i + 2].text;
        std::size_t j = i + 4;
        if (toks[j].kind != TokenKind::String)
            continue;
        std::string value;
        while (j < toks.size() &&
               toks[j].kind == TokenKind::String) {
            value += toks[j].text;
            ++j;
        }
        if (j < toks.size() && isPunct(toks[j], ";"))
            symbols.emplace(name, value);
    }
}

/** `<x>Period = [N *] sim::<unit>` -> periods[<x>Period] seconds. */
void
collectPeriods(const SourceFile &f,
               std::map<std::string, double> &periods)
{
    static const std::map<std::string, double> units = {
        {"oneNs", 1e-9},
        {"oneUs", 1e-6},
        {"oneMs", 1e-3},
        {"oneSec", 1.0},
    };
    const auto &toks = f.tokens();
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Identifier ||
            !endsWith(toks[i].text, "Period") ||
            !isPunct(toks[i + 1], "="))
            continue;
        std::size_t j = i + 2;
        double scale = 1.0;
        if (j < toks.size() && toks[j].kind == TokenKind::Number) {
            scale = std::strtod(toks[j].text.c_str(), nullptr);
            ++j;
            if (j >= toks.size() || !isPunct(toks[j], "*"))
                continue; // unitless count, not a duration
            ++j;
        }
        if (j + 3 >= toks.size() || toks[j].text != "sim" ||
            !isPunct(toks[j + 1], ":") || !isPunct(toks[j + 2], ":"))
            continue;
        const auto unit = units.find(toks[j + 3].text);
        if (unit == units.end())
            continue;
        periods.emplace(toks[i].text, scale * unit->second);
    }
}

/**
 * True when the bag channel returned by the `channel<T>(topic)` call
 * at @p call, whose argument list closes at @p close, is recorded
 * into: the call chains `.add(`, or its result is bound
 * (`auto &c = bag.channel<T>(topic);`) and the file later calls
 * `c.add(`. A read-only lookup (`count()`, `messages()`) publishes
 * nothing, so it is no external source.
 */
bool
recordsInto(const std::vector<Token> &toks, std::size_t call,
            std::size_t close)
{
    const auto adds = [&toks](std::size_t dot) {
        return dot + 2 < toks.size() && isPunct(toks[dot], ".") &&
               toks[dot + 1].text == "add" &&
               isPunct(toks[dot + 2], "(");
    };
    if (adds(close + 1))
        return true;
    // Walk back over the object expression (`out.`, `drive->bag.`,
    // `ns::`) to the `=` of a binding.
    std::size_t j = call;
    while (j > 0 && (toks[j - 1].kind == TokenKind::Identifier ||
                     isPunct(toks[j - 1], ".") ||
                     isPunct(toks[j - 1], ">") ||
                     isPunct(toks[j - 1], "-") ||
                     isPunct(toks[j - 1], ":")))
        --j;
    if (j < 2 || !isPunct(toks[j - 1], "=") ||
        toks[j - 2].kind != TokenKind::Identifier)
        return false;
    const std::string &channel = toks[j - 2].text;
    for (std::size_t k = close + 1; k < toks.size(); ++k) {
        if (toks[k].kind == TokenKind::Identifier &&
            toks[k].text == channel && adds(k + 1))
            return true;
    }
    return false;
}

/** Call-site accumulator shared across the file set. */
struct Accum
{
    std::map<std::string, std::string> symbols;
    std::map<std::string, double> periods;
    std::vector<PubSite> pubs;
    std::vector<SubSite> subs;
    std::vector<ExternalSite> externals;
};

void
collectSites(const SourceFile &f, Accum &acc)
{
    const auto &toks = f.tokens();
    std::string node; // current constructor-anchor context
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokenKind::Identifier)
            continue;

        // Constructor anchor: <Base>Node(graph, "name", ...).
        if ((t.text == "PerceptionNode" || t.text == "Node") &&
            i + 4 < toks.size() && isPunct(toks[i + 1], "(") &&
            toks[i + 2].kind == TokenKind::Identifier &&
            toks[i + 2].text == "graph" &&
            isPunct(toks[i + 3], ",") &&
            toks[i + 4].kind == TokenKind::String) {
            node = toks[i + 4].text;
            continue;
        }

        const bool is_adv = t.text == "advertise";
        const bool is_sub = t.text == "subscribe";
        const bool is_chan = t.text == "channel";
        if (!is_adv && !is_sub && !is_chan)
            continue;
        if (i + 1 >= toks.size() || !isPunct(toks[i + 1], "<"))
            continue; // declaration or non-template use
        std::string type;
        const std::size_t call = readTemplateType(toks, i + 1, &type);
        if (call >= toks.size() || !isPunct(toks[call], "("))
            continue;
        std::vector<std::size_t> arg;
        const std::size_t delim = readFirstArg(toks, call, &arg);
        const std::string topic =
            resolveTopic(toks, arg, acc.symbols);
        if (topic.empty())
            continue; // dynamic topic argument: not statically known

        const Site site{f.relPath(), t.line};
        if (is_chan) {
            if (delim < toks.size() && isPunct(toks[delim], ")") &&
                recordsInto(toks, i, delim))
                acc.externals.push_back(
                    ExternalSite{"bag_replay", topic, type, site});
            continue;
        }
        if (node.empty())
            continue; // pub/sub outside any node constructor
        if (is_adv) {
            acc.pubs.push_back(PubSite{node, topic, type, site});
            continue;
        }
        // subscribe<T>(topic, depth, handler)
        std::size_t depth = 0;
        if (delim < toks.size() && isPunct(toks[delim], ",") &&
            delim + 1 < toks.size() &&
            toks[delim + 1].kind == TokenKind::Number)
            depth = static_cast<std::size_t>(
                std::strtoul(toks[delim + 1].text.c_str(), nullptr,
                             10));
        acc.subs.push_back(SubSite{node, topic, type, depth, site});
    }
}

StaticGraph
assemble(const std::vector<SourceFile> &files)
{
    Accum acc;
    for (const SourceFile &f : files) {
        collectSymbols(f, acc.symbols);
        collectPeriods(f, acc.periods);
    }
    for (const SourceFile &f : files)
        collectSites(f, acc);

    StaticGraph g;
    g.periodSeconds = std::move(acc.periods);
    for (PubSite &p : acc.pubs) {
        g.nodes.push_back(p.node);
        g.topics[p.topic].pubs.push_back(std::move(p));
    }
    for (SubSite &s : acc.subs) {
        g.nodes.push_back(s.node);
        g.topics[s.topic].subs.push_back(std::move(s));
    }
    for (ExternalSite &e : acc.externals)
        g.topics[e.topic].externals.push_back(std::move(e));
    std::sort(g.nodes.begin(), g.nodes.end());
    g.nodes.erase(std::unique(g.nodes.begin(), g.nodes.end()),
                  g.nodes.end());
    return g;
}

} // namespace

StaticGraph
extractTree(const std::string &root)
{
    const fs::path src = fs::path(root) / "src";
    std::vector<fs::path> paths;
    if (fs::exists(src))
        for (const auto &entry :
             fs::recursive_directory_iterator(src)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext =
                entry.path().extension().string();
            if (ext == ".cc" || ext == ".hh" || ext == ".cpp")
                paths.push_back(entry.path());
        }
    std::sort(paths.begin(), paths.end());

    std::vector<SourceFile> files;
    files.reserve(paths.size());
    for (const fs::path &path : paths) {
        const auto content = slurp(path);
        if (!content)
            continue;
        const std::string rel =
            fs::relative(path, root).generic_string();
        files.emplace_back(rel, *content, /*keep_strings=*/true);
    }
    return assemble(files);
}

StaticGraph
extractSources(
    const std::vector<std::pair<std::string, std::string>> &sources)
{
    std::vector<SourceFile> files;
    files.reserve(sources.size());
    for (const auto &[rel, content] : sources)
        files.emplace_back(rel, content, /*keep_strings=*/true);
    return assemble(files);
}

} // namespace av::graph
