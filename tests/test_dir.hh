/**
 * @file
 * Per-test scratch directories. Each test gets its own directory
 * under the system temp dir, named from the running gtest's suite,
 * its test name and the process id, so tests running in parallel
 * (ctest -j) and two checkouts testing on one host never share or
 * delete each other's files.
 */

#ifndef AVSCOPE_TESTS_TEST_DIR_HH
#define AVSCOPE_TESTS_TEST_DIR_HH

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

namespace av::test {

/**
 * A fresh, empty directory owned by the running test; @p tag tells
 * apart several directories of one test. Any earlier contents under
 * the same name are removed first, and the directory is removed when
 * the test process exits.
 */
inline std::string
freshTestDir(const std::string &tag = {})
{
    struct Sweeper
    {
        std::vector<std::filesystem::path> dirs;
        Sweeper() = default;
        Sweeper(const Sweeper &) = delete;
        Sweeper &operator=(const Sweeper &) = delete;
        ~Sweeper()
        {
            std::error_code ec;
            for (const auto &dir : dirs)
                std::filesystem::remove_all(dir, ec);
        }
    };
    static Sweeper sweeper;

    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "avscope_";
    name += info != nullptr ? std::string(info->test_suite_name()) +
                                  "." + info->name()
                            : std::string("no_test");
    if (!tag.empty())
        name += "." + tag;
    name += "." + std::to_string(::getpid());
    // Parameterized test names carry '/'.
    std::replace(name.begin(), name.end(), '/', '_');
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    sweeper.dirs.push_back(dir);
    return dir.string();
}

} // namespace av::test

#endif // AVSCOPE_TESTS_TEST_DIR_HH
