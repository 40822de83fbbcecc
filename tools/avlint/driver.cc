/**
 * @file
 * File loading and repo-tree walking for avlint.
 */

#include "avlint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

namespace av::lint {

namespace fs = std::filesystem;

namespace {

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
lintableExtension(const fs::path &path)
{
    const std::string ext = path.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp";
}

/** The sibling header a .cc implements, when it exists. */
std::optional<fs::path>
companionHeader(const fs::path &path)
{
    const std::string ext = path.extension().string();
    if (ext != ".cc" && ext != ".cpp")
        return std::nullopt;
    fs::path header = path;
    header.replace_extension(".hh");
    if (fs::exists(header))
        return header;
    return std::nullopt;
}

} // namespace

std::vector<Diagnostic>
lintFile(const std::string &fs_path, const std::string &rel_path)
{
    const auto content = slurp(fs_path);
    if (!content)
        return {Diagnostic{rel_path, 0, "io-error",
                           "cannot read file"}};
    if (rel_path.rfind("tests/", 0) == 0)
        return lintTestSource(
            SourceFile(rel_path, *content, /*keep_strings=*/true));
    const SourceFile file(rel_path, *content);

    std::optional<SourceFile> companion;
    if (const auto header = companionHeader(fs_path)) {
        if (const auto htext = slurp(*header))
            companion.emplace(header->string(), *htext);
    }
    return lintSource(file, companion ? &*companion : nullptr);
}

std::vector<Diagnostic>
lintTree(const std::string &root)
{
    static const char *const subdirs[] = {"src", "bench", "examples",
                                          "tools", "tests"};
    const fs::path fixtures = fs::path(root) / "tests/tools/fixtures";
    std::vector<fs::path> files;
    for (const char *sub : subdirs) {
        const fs::path dir = fs::path(root) / sub;
        if (!fs::exists(dir))
            continue;
        for (auto it = fs::recursive_directory_iterator(dir);
             it != fs::recursive_directory_iterator(); ++it) {
            if (it->path() == fixtures)
                it.disable_recursion_pending();
            else if (it->is_regular_file() &&
                     lintableExtension(it->path()))
                files.push_back(it->path());
        }
    }
    std::sort(files.begin(), files.end());
    // A tree with nothing to lint means the root is wrong; a silent
    // "clean" here would let a misconfigured CI gate pass forever.
    if (files.empty())
        return {Diagnostic{root, 0, "io-error",
                           "no lintable files under root"}};

    std::vector<Diagnostic> out;
    for (const fs::path &path : files) {
        const std::string rel =
            fs::relative(path, root).generic_string();
        auto diags = lintFile(path.string(), rel);
        out.insert(out.end(),
                   std::make_move_iterator(diags.begin()),
                   std::make_move_iterator(diags.end()));
    }
    // Re-sort globally: per-file order is already (line, rule), but
    // the concatenation must not depend on traversal order either.
    sortDiagnostics(out);
    return out;
}

} // namespace av::lint
