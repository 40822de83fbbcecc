/**
 * @file
 * Graph emitters: JSON (tooling), DOT (docs) and the canonical
 * snapshot form pinned by the golden-graph test.
 */

#include "avgraph.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/json.hh"

namespace av::graph {

namespace {

/** Stable short formatting for rates ("10", "15.1515"). */
std::string
fmtNum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

/** DOT quoting: only '"' needs escaping; backslash escapes such as
 *  the "\n" in multi-line labels must pass through untouched. */
std::string
dotQuote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
toJson(const StaticGraph &graph)
{
    std::ostringstream os;
    util::JsonWriter json(os);
    json.object().key("nodes").inlineArray();
    for (const std::string &node : graph.nodes)
        json.value(node);
    json.end().key("node_rates_hz").inlineObject();
    for (const auto &[node, rate] : graph.nodeRates)
        json.field(node, rate);
    json.end().key("topics").array();
    for (const auto &[name, entry] : graph.topics) {
        json.object().field("name", name);
        if (entry.rateHz > 0.0)
            json.field("rate_hz", entry.rateHz);
        json.key("externals").inlineArray();
        for (const ExternalSite &e : entry.externals)
            json.row("source", e.source, "type", e.type, "file",
                     e.site.file, "line", e.site.line);
        json.end().key("pubs").inlineArray();
        for (const PubSite &p : entry.pubs)
            json.row("node", p.node, "type", p.type, "file",
                     p.site.file, "line", p.site.line);
        json.end().key("subs").inlineArray();
        for (const SubSite &s : entry.subs)
            json.row("node", s.node, "type", s.type, "depth", s.depth,
                     "file", s.site.file, "line", s.site.line);
        json.end().end();
    }
    json.end().end();
    return os.str();
}

std::string
toDot(const StaticGraph &graph)
{
    std::ostringstream os;
    os << "digraph avscope {\n"
       << "  rankdir=LR;\n"
       << "  node [fontname=\"Helvetica\", fontsize=11];\n";

    // External sources (diamonds) — collect distinct names.
    std::vector<std::string> sources;
    for (const auto &[name, entry] : graph.topics)
        for (const ExternalSite &e : entry.externals)
            sources.push_back(e.source);
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()),
                  sources.end());
    for (const std::string &source : sources)
        os << "  " << dotQuote(source)
           << " [shape=diamond, style=filled,"
              " fillcolor=lightyellow];\n";

    // Topics (boxes, labeled with the inferred rate).
    for (const auto &[name, entry] : graph.topics) {
        os << "  " << dotQuote(name) << " [shape=box";
        if (entry.rateHz > 0.0)
            os << ", label=" << dotQuote(name + "\\n" +
                                      fmtNum(entry.rateHz) + " Hz");
        os << "];\n";
    }

    // Nodes (default ellipses).
    for (const std::string &node : graph.nodes) {
        os << "  " << dotQuote(node) << " [shape=ellipse";
        const auto it = graph.nodeRates.find(node);
        if (it != graph.nodeRates.end())
            os << ", label=" << dotQuote(node + "\\n" +
                                      fmtNum(it->second) + " Hz");
        os << "];\n";
    }

    // Edges, sorted and deduplicated (bag record + replay channels
    // are one edge).
    std::vector<std::string> edges;
    for (const auto &[name, entry] : graph.topics) {
        for (const ExternalSite &e : entry.externals)
            edges.push_back("  " + dotQuote(e.source) + " -> " +
                            dotQuote(name) + ";");
        for (const PubSite &p : entry.pubs)
            edges.push_back("  " + dotQuote(p.node) + " -> " +
                            dotQuote(name) + ";");
        for (const SubSite &s : entry.subs)
            edges.push_back("  " + dotQuote(name) + " -> " +
                            dotQuote(s.node) + " [label=\"q=" +
                            std::to_string(s.depth) + "\"];");
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()),
                edges.end());
    for (const std::string &edge : edges)
        os << edge << "\n";
    os << "}\n";
    return os.str();
}

std::string
toCanonical(const StaticGraph &graph)
{
    std::ostringstream os;
    for (const std::string &node : graph.nodes) {
        os << "node " << node;
        const auto it = graph.nodeRates.find(node);
        if (it != graph.nodeRates.end())
            os << " rate " << fmtNum(it->second);
        os << "\n";
    }
    for (const auto &[name, entry] : graph.topics) {
        os << "topic " << name;
        if (entry.rateHz > 0.0)
            os << " rate " << fmtNum(entry.rateHz);
        os << "\n";

        // Sorted and deduplicated: two call sites expressing the
        // same edge (e.g. bag record + replay channels) are one
        // topology fact.
        const auto flush = [&os](std::vector<std::string> &lines) {
            std::sort(lines.begin(), lines.end());
            lines.erase(std::unique(lines.begin(), lines.end()),
                        lines.end());
            for (const std::string &line : lines)
                os << line << "\n";
            lines.clear();
        };

        std::vector<std::string> lines;
        for (const ExternalSite &e : entry.externals)
            lines.push_back("  external " + e.source + " type " +
                            e.type);
        flush(lines);
        for (const PubSite &p : entry.pubs)
            lines.push_back("  pub " + p.node + " type " + p.type);
        flush(lines);
        for (const SubSite &s : entry.subs)
            lines.push_back("  sub " + s.node + " depth " +
                            std::to_string(s.depth) + " type " +
                            s.type);
        flush(lines);
    }
    return os.str();
}

} // namespace av::graph
