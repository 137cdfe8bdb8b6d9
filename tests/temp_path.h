// Scratch file names for the tests. Every name lies in a directory of
// the test process's own, named after its pid, so suites that run on
// one host at once (two build trees, or two tests of one binary under
// `ctest -j`) never read or truncate each other's journals and outputs.
// The directory goes, with everything in it, when the process exits.
#pragma once

#include <gtest/gtest.h>
#include <sys/types.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace sbst::testfs {

namespace detail {

/// The process's scratch directory, emptied when made: a directory of
/// an earlier process with the same pid is stale. Forked children
/// (isolated workers) inherit the object and leave the directory alone.
class ScratchDir {
 public:
  ScratchDir()
      : owner_(::getpid()),
        path_(std::string(::testing::TempDir()) + "sbst-" +
              std::to_string(owner_)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directory(path_);
  }
  ~ScratchDir() {
    if (::getpid() != owner_) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  pid_t owner_;
  std::string path_;
};

}  // namespace detail

/// `name` in this process's scratch directory.
inline std::string temp_path(std::string_view name) {
  static const detail::ScratchDir dir;
  return dir.path() + "/" + std::string(name);
}

}  // namespace sbst::testfs
