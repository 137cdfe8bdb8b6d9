#include "campaign/dispatch.h"

#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "telemetry/json.h"
#include "util/child.h"

namespace sbst::campaign {

namespace {

using Clock = std::chrono::steady_clock;

/// splitmix64 — the jitter source. Deterministic in (shard, attempt) so
/// re-dispatch timing is reproducible in tests, spread enough that
/// shards dying together don't re-dispatch in lockstep.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double backoff_seconds(const DispatchOptions& opt, unsigned shard,
                       unsigned attempt) {
  double delay = opt.backoff_initial_s;
  for (unsigned i = 1; i < attempt && delay < opt.backoff_cap_s; ++i) {
    delay *= 2.0;
  }
  if (delay > opt.backoff_cap_s) delay = opt.backoff_cap_s;
  const std::uint64_t h =
      mix64((static_cast<std::uint64_t>(shard) << 32) | attempt);
  const double jitter = 0.75 + 0.5 * static_cast<double>(h % 1024) / 1024.0;
  return delay * jitter;
}

std::string shard_file(const std::string& dir, unsigned shard,
                       unsigned shard_count, const char* ext) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/shard-%u-of-%u.%s", shard, shard_count,
                ext);
  return dir + buf;
}

/// Parses a runner's status heartbeat; false when it is missing or not
/// one flat JSON object.
bool read_status(const std::string& path,
                 std::map<std::string, telemetry::JsonValue>* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  return telemetry::parse_flat_json_object(ss.str(), out);
}

/// When the file was last written; 0 when it does not exist. 1-second
/// mtime granularity is fine against stale_after_s.
std::time_t file_mtime(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_mtime : 0;
}

pid_t spawn_runner(const std::vector<std::string>& argv) {
  if (argv.empty()) return -1;
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    // Runners own their drain handling; the dispatcher signals them
    // explicitly, so a terminal Ctrl-C must not also reach every runner
    // twice (once from the terminal's process group, once forwarded).
    ::setpgid(0, 0);
    ::execv(cargv[0], cargv.data());
    std::fprintf(stderr, "exec %s failed: %s\n", cargv[0],
                 std::strerror(errno));
    _exit(127);
  }
  // Also from the parent, so the group exists before the dispatcher can
  // signal it (EACCES once the child has exec'd means it is already set).
  ::setpgid(pid, pid);
  return pid;
}

enum class ShardState { kPending, kRunning, kBackoff, kDone, kResumable,
                        kFailed };

struct Shard {
  unsigned id = 0;
  ShardState state = ShardState::kPending;
  pid_t pid = -1;
  unsigned attempt = 0;  // runners spawned so far
  unsigned redispatches = 0;
  unsigned stale_leases = 0;
  Clock::time_point eligible = Clock::time_point::min();  // backoff gate
  std::time_t spawned_wall = 0;
  std::string journal, status;
  std::string error;
};

const char* state_name(ShardState s) {
  switch (s) {
    case ShardState::kPending: return "pending";
    case ShardState::kRunning: return "running";
    case ShardState::kBackoff: return "backoff";
    case ShardState::kDone: return "done";
    case ShardState::kResumable: return "resumable";
    case ShardState::kFailed: return "failed";
  }
  return "?";
}

}  // namespace

std::string shard_journal_path(const std::string& dir, unsigned shard,
                               unsigned shard_count) {
  return shard_file(dir, shard, shard_count, "sbstj");
}

std::string shard_status_path(const std::string& dir, unsigned shard,
                              unsigned shard_count) {
  return shard_file(dir, shard, shard_count, "status.json");
}

DispatchResult run_dispatch(const DispatchOptions& options) {
  if (options.shards == 0) {
    throw std::runtime_error("dispatch needs at least one shard");
  }
  if (!options.make_runner_argv) {
    throw std::runtime_error("dispatch needs a runner argv factory");
  }
  struct stat st {};
  if (::stat(options.journal_dir.c_str(), &st) != 0 ||
      !S_ISDIR(st.st_mode)) {
    throw std::runtime_error("journal directory " + options.journal_dir +
                             " does not exist");
  }
  std::FILE* log = options.log ? options.log : stderr;

  std::vector<Shard> shards(options.shards);
  for (unsigned i = 0; i < options.shards; ++i) {
    Shard& s = shards[i];
    s.id = i;
    s.journal = shard_journal_path(options.journal_dir, i, options.shards);
    s.status = shard_status_path(options.journal_dir, i, options.shards);
  }

  const auto fail_shard = [&](Shard& s, const std::string& why) {
    s.state = ShardState::kFailed;
    s.error = why;
    std::fprintf(log, "[dispatch] shard %u/%u FAILED: %s\n", s.id,
                 options.shards, why.c_str());
  };

  // Schedules a re-dispatch (or gives up) after an abnormal death.
  const auto redispatch = [&](Shard& s, const std::string& why) {
    if (s.redispatches >= options.max_shard_retries) {
      fail_shard(s, why + "; retries exhausted after " +
                        std::to_string(s.attempt) + " attempts");
      return;
    }
    ++s.redispatches;
    const double delay = backoff_seconds(options, s.id, s.redispatches);
    s.eligible = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(delay));
    s.state = ShardState::kBackoff;
    std::fprintf(log,
                 "[dispatch] shard %u/%u died (%s); re-dispatch %u/%u after "
                 "%.2fs backoff\n",
                 s.id, options.shards, why.c_str(), s.redispatches,
                 options.max_shard_retries, delay);
  };

  // The shard is held while its status says a runner is "running", was
  // rewritten within stale_after_s and names a live pid. Spawning only
  // happens while the shard has no child of ours, so that pid belongs
  // to some other dispatcher (or a hand-started runner). Anything else
  // holds nothing: the runner finished, died or wedged past
  // stale_after_s (and lost the shard by contract), and the next
  // runner's heartbeat overwrites its file.
  const auto held_elsewhere = [&](const Shard& s, std::string* why) {
    std::map<std::string, telemetry::JsonValue> obj;
    if (!read_status(s.status, &obj)) return false;
    const telemetry::JsonValue& pid = obj["pid"];
    const bool alive = pid.u64_valid && pid.u64 > 0 &&
                       pid.u64 <= static_cast<std::uint64_t>(INT32_MAX) &&
                       ::kill(static_cast<pid_t>(pid.u64), 0) == 0;
    const double age =
        std::difftime(std::time(nullptr), file_mtime(s.status));
    if (obj["state"].str != "running" || age > options.stale_after_s ||
        !alive) {
      return false;
    }
    const std::string holder = std::to_string(pid.u64);
    char fp[17];
    std::snprintf(fp, sizeof(fp), "%016" PRIx64, options.fingerprint);
    if (obj["fingerprint"].str != fp) {
      *why = "lease held by pid " + holder +
             " for a different campaign (journal directory collision)";
    } else {
      *why = "lease already held by live pid " + holder;
    }
    return true;
  };

  const auto spawn_shard = [&](Shard& s) {
    std::string why;
    if (held_elsewhere(s, &why)) {
      fail_shard(s, why);
      return;
    }
    ++s.attempt;
    const std::vector<std::string> argv =
        options.make_runner_argv(s.id, s.journal, s.status);
    s.pid = spawn_runner(argv);
    if (s.pid < 0) {
      fail_shard(s, "cannot spawn runner");
      return;
    }
    s.spawned_wall = std::time(nullptr);
    s.state = ShardState::kRunning;
    std::fprintf(log, "[dispatch] shard %u/%u -> pid %d (attempt %u)\n", s.id,
                 options.shards, static_cast<int>(s.pid), s.attempt);
  };

  DispatchResult out;
  bool draining = false;
  Clock::time_point last_status = Clock::time_point::min();

  const auto write_status = [&](const char* state) {
    if (options.status_path.empty()) return;
    std::string j = "{\"schema\":\"sbst-dispatch-status-v1\",\"state\":\"";
    j += state;
    j += "\",\"shards\":[";
    for (const Shard& s : shards) {
      if (s.id != 0) j += ',';
      j += "{\"shard\":" + std::to_string(s.id) + ",\"state\":\"";
      j += state_name(s.state);
      j += "\",\"attempt\":" + std::to_string(s.attempt) +
           ",\"redispatches\":" + std::to_string(s.redispatches);
      // Fold in the runner's own heartbeat so one file answers "how far
      // along is the whole campaign".
      std::map<std::string, telemetry::JsonValue> obj;
      if (read_status(s.status, &obj)) {
        const auto put = [&](const char* key) {
          const auto it = obj.find(key);
          if (it != obj.end() && it->second.u64_valid) {
            j += ",\"";
            j += key;
            j += "\":" + std::to_string(it->second.u64);
          }
        };
        put("groups_done");
        put("groups_total");
        put("groups_seeded");
      }
      j += '}';
    }
    j += "]}\n";
    try {
      util::write_file_atomic(options.status_path, j, options.durability);
    } catch (...) {
    }
    last_status = Clock::now();
  };

  const auto signal_running = [&](int sig) {
    for (Shard& s : shards) {
      if (s.state == ShardState::kRunning && s.pid > 0) ::kill(-s.pid, sig);
    }
  };

  while (true) {
    if (!draining && options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      draining = true;
      std::fprintf(log,
                   "[dispatch] drain requested; signalling running shards\n");
      signal_running(SIGTERM);
      for (Shard& s : shards) {
        // Never-started or waiting-out-backoff shards will not run this
        // dispatch; their journals (possibly empty) resume later.
        if (s.state == ShardState::kPending ||
            s.state == ShardState::kBackoff) {
          s.state = ShardState::kResumable;
        }
      }
    }

    const Clock::time_point now = Clock::now();
    bool active = false;
    for (Shard& s : shards) {
      switch (s.state) {
        case ShardState::kPending:
        case ShardState::kBackoff:
          if (!draining && now >= s.eligible) spawn_shard(s);
          break;
        case ShardState::kRunning: {
          if (const std::optional<util::ChildExit> exit =
                  util::reap_child(s.pid, /*block=*/false)) {
            s.pid = -1;
            if (exit->exited(0)) {
              s.state = ShardState::kDone;
              std::fprintf(log, "[dispatch] shard %u/%u complete\n", s.id,
                           options.shards);
            } else if (draining) {
              // Drained (exit 3), or killed by the forwarded signal
              // before it could drain (a runner still in set-up): either
              // way its journal resumes on the next run, and a drain
              // spawns no replacement.
              s.state = ShardState::kResumable;
              std::fprintf(log, "[dispatch] shard %u/%u stopped (%s); "
                           "resumable\n", s.id, options.shards,
                           exit->describe().c_str());
            } else {
              // Abnormal death — or a runner that drained on a signal
              // the dispatcher never sent (external kill): both mean
              // the shard is incomplete and needs a fresh runner.
              redispatch(s, exit->describe());
            }
            break;
          }
          // Heartbeat check: status mtime, or spawn time until this
          // runner's first heartbeat lands (an older file is a previous
          // runner's).
          const double age = std::difftime(
              std::time(nullptr),
              std::max(file_mtime(s.status), s.spawned_wall));
          if (!draining && age > options.stale_after_s) {
            ++s.stale_leases;
            std::fprintf(
                log,
                "[dispatch] shard %u/%u lease stale (%.1fs > %.1fs); "
                "revoking\n",
                s.id, options.shards, age, options.stale_after_s);
            ::kill(-s.pid, SIGKILL);
            util::reap_child(s.pid, /*block=*/true);
            s.pid = -1;
            redispatch(s, "stale lease");
          }
          break;
        }
        case ShardState::kDone:
        case ShardState::kResumable:
        case ShardState::kFailed:
          break;
      }
      if (s.state == ShardState::kPending ||
          s.state == ShardState::kBackoff ||
          s.state == ShardState::kRunning) {
        active = true;
      }
    }

    // min() marks "never written"; subtracting it would overflow.
    if (last_status == Clock::time_point::min() ||
        now - last_status >=
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(options.heartbeat_period_s))) {
      write_status("running");
    }

    if (!active) break;
    // Not sleep_for, which resumes after a signal: a drain signal ends
    // this wait (poll is never restarted after a handler runs), so the
    // runners hear of it at once, not a poll period later.
    ::poll(nullptr, 0, static_cast<int>(options.poll_period_s * 1000));
  }

  out.interrupted = draining;
  out.shards.reserve(shards.size());
  for (const Shard& s : shards) {
    ShardOutcome o;
    o.shard = s.id;
    o.attempts = s.attempt;
    o.redispatches = s.redispatches;
    o.stale_leases = s.stale_leases;
    o.completed = s.state == ShardState::kDone;
    o.resumable = s.state == ShardState::kResumable;
    o.failed = s.state == ShardState::kFailed;
    o.journal = s.journal;
    o.error = s.error;
    out.shards.push_back(std::move(o));
  }
  write_status(out.interrupted ? "interrupted"
                               : (out.all_completed() ? "done" : "failed"));
  return out;
}

}  // namespace sbst::campaign
