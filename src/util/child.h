// Reaping child processes: the one place the campaign layer waits for
// a child, shared by the --isolate supervisor (worker processes) and the
// shard dispatcher (runner processes). Also the full-length pipe reads
// and writes both ends of an --isolate worker's pipes use.
//
// Forking stays with each owner, because their process-group rules are
// opposite: a dispatcher runner leads its own group so that revoking it
// kills its descendants, while an --isolate worker must stay in its
// runner's group for that same kill to reach it.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace sbst::util {

/// How a reaped child ended, with its rusage.
struct ChildExit {
  int exit_code = 0;    // exit status when term_signal == 0
  int term_signal = 0;  // signal that killed the child, 0 = exited
  std::uint64_t max_rss_kb = 0;  // peak resident set
  std::uint64_t cpu_ms = 0;      // user + system CPU

  /// True when the child called exit(code).
  bool exited(int code) const { return term_signal == 0 && exit_code == code; }
  /// "exit 3" or "signal 9".
  std::string describe() const;
};

/// Reaps `pid`, retrying on EINTR. With block = false, returns
/// nullopt while the child still runs; also nullopt when `pid` is not a
/// waitable child of this process.
std::optional<ChildExit> reap_child(pid_t pid, bool block);

/// Writes all `n` bytes, retrying on EINTR and partial writes. Returns
/// false when the descriptor fails, e.g. EPIPE from a dead reader
/// (callers must have SIGPIPE ignored).
bool write_full(int fd, const void* data, std::size_t n);

/// Reads exactly `n` bytes, retrying on EINTR and partial reads.
/// Returns false on a read error or on EOF before `n` bytes arrived —
/// a dead writer.
bool read_full(int fd, void* data, std::size_t n);

}  // namespace sbst::util
