#include "util/child.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

namespace sbst::util {

std::string ChildExit::describe() const {
  return term_signal != 0 ? "signal " + std::to_string(term_signal)
                          : "exit " + std::to_string(exit_code);
}

std::optional<ChildExit> reap_child(pid_t pid, bool block) {
  int status = 0;
  rusage ru{};
  pid_t r;
  while ((r = ::wait4(pid, &status, block ? 0 : WNOHANG, &ru)) < 0 &&
         errno == EINTR) {
  }
  if (r != pid) return std::nullopt;
  ChildExit out;
  if (WIFSIGNALED(status)) out.term_signal = WTERMSIG(status);
  if (WIFEXITED(status)) out.exit_code = WEXITSTATUS(status);
  out.max_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
  out.cpu_ms =
      static_cast<std::uint64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
          1000 +
      static_cast<std::uint64_t>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
          1000;
  return out;
}

bool write_full(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n != 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_full(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n != 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace sbst::util
