/**
 * @file
 * avgraph CLI.
 *
 *   avgraph --root <repo> [--json PATH] [--dot PATH]
 *                         [--canonical PATH]
 *
 * Extracts the static pub/sub graph from <repo>/src, infers rates
 * against the Table IV path spec, runs the graph-contract rule
 * catalog and reports diagnostics avlint-style. The optional
 * emitter flags write the graph artifacts regardless of findings.
 *
 * Exit status: 0 clean, 1 findings, 2 usage error.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "avgraph.hh"

namespace {

int
report(const std::vector<av::lint::Diagnostic> &diags)
{
    for (const auto &d : diags)
        std::printf("%s:%d: %s: %s\n", d.file.c_str(), d.line,
                    d.rule.c_str(), d.message.c_str());
    if (diags.empty()) {
        std::printf("avgraph: clean\n");
        return 0;
    }
    std::printf("avgraph: %zu finding(s)\n", diags.size());
    return 1;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
    out.close();
    if (!out)
        std::fprintf(stderr, "avgraph: cannot write '%s'\n",
                     path.c_str());
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    std::string root, json_path, dot_path, canonical_path;
    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string *target = nullptr;
        if (args[i] == "--root")
            target = &root;
        else if (args[i] == "--json")
            target = &json_path;
        else if (args[i] == "--dot")
            target = &dot_path;
        else if (args[i] == "--canonical")
            target = &canonical_path;
        else {
            std::fprintf(stderr,
                         "avgraph: unknown argument '%s'\n",
                         args[i].c_str());
            return 2;
        }
        if (i + 1 >= args.size()) {
            std::fprintf(stderr, "avgraph: %s needs a value\n",
                         args[i].c_str());
            return 2;
        }
        *target = args[++i];
    }
    if (root.empty()) {
        std::fprintf(stderr,
                     "usage: avgraph --root <repo> [--json PATH]"
                     " [--dot PATH] [--canonical PATH]\n");
        return 2;
    }

    av::graph::StaticGraph graph = av::graph::extractTree(root);
    const av::graph::PathSpec spec = av::graph::tableIvSpec();
    av::graph::inferRates(graph, spec);

    if (!json_path.empty() &&
        !writeFile(json_path, av::graph::toJson(graph)))
        return 2;
    if (!dot_path.empty() &&
        !writeFile(dot_path, av::graph::toDot(graph)))
        return 2;
    if (!canonical_path.empty() &&
        !writeFile(canonical_path, av::graph::toCanonical(graph)))
        return 2;

    return report(av::graph::checkGraph(graph, spec));
}
