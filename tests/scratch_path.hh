/**
 * @file
 * Per-process scratch names for test files, sockets and directories.
 * Two copies of one suite running at once (say, two ctest runs in one
 * build directory) must not overwrite each other's files, so every
 * name lives in a directory named after the process id. The process
 * removes that directory, with everything in it, when it exits, so
 * repeated runs leave nothing behind.
 */

#ifndef SLACKSIM_TESTS_SCRATCH_PATH_HH
#define SLACKSIM_TESTS_SCRATCH_PATH_HH

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace slacksim::test {

/** @return this process's scratch directory under
 *  testing::TempDir(), created on first use. */
inline const std::string &
scratchDir()
{
    struct Dir
    {
        pid_t owner = ::getpid();
        std::string path;

        Dir()
        {
            path = ::testing::TempDir();
            if (!path.empty() && path.back() != '/')
                path += '/';
            path += "slacksim-test-" + std::to_string(owner);
            std::filesystem::create_directories(path);
        }

        ~Dir()
        {
            // A forked child that exits normally must not take the
            // parent's files with it.
            if (::getpid() != owner)
                return;
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    };
    static const Dir dir;
    return dir.path;
}

/** @return @p name inside this process's scratchDir(). */
inline std::string
scratchPath(const std::string &name)
{
    return scratchDir() + "/" + name;
}

} // namespace slacksim::test

#endif // SLACKSIM_TESTS_SCRATCH_PATH_HH
