#include "campaign/supervisor.h"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/journal.h"
#include "util/child.h"
#include "util/parallel.h"

namespace sbst::campaign {

namespace {

using Clock = std::chrono::steady_clock;

/// A group request on a worker's request pipe: `group u64 | attempt u32`,
/// one fixed-size write well below PIPE_BUF, so it arrives whole. The
/// attempt number (0 = first try) feeds the seeded crash hook.
struct GroupRequest {
  std::uint64_t group = 0;
  std::uint32_t attempt = 0;
};
constexpr std::size_t kRequestBytes = 8 + 4;

bool write_request(int fd, const GroupRequest& req) {
  char buf[kRequestBytes];
  std::memcpy(buf, &req.group, 8);
  std::memcpy(buf + 8, &req.attempt, 4);
  return util::write_full(fd, buf, sizeof(buf));
}

bool read_request(int fd, GroupRequest* req) {
  char buf[kRequestBytes];
  if (!util::read_full(fd, buf, sizeof(buf))) return false;
  std::memcpy(&req->group, buf, 8);
  std::memcpy(&req->attempt, buf + 8, 4);
  return true;
}

/// Everything a worker needs, captured before forking so children
/// inherit it copy-on-write (notably the levelized GroupSimulator —
/// respawned workers fork from the supervisor's never-used pristine
/// copy, so every attempt starts from identical state — and the driver).
struct WorkerContext {
  const fault::GroupDriver& driver;
  fault::GroupSimulator& sim;
  const IsolateOptions& iso;
  std::uint64_t time_budget_ms = 0;
};

[[noreturn]] void worker_main(const WorkerContext& ctx, int in_fd,
                              int out_fd) {
  // Drain signals are the supervisor's job: a Ctrl-C reaches the whole
  // process group, but only the supervisor should react (stop handing
  // out groups); workers finish their in-flight group and exit on EOF.
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGTERM, SIG_IGN);
  ::signal(SIGPIPE, SIG_IGN);  // a dead supervisor turns writes into EPIPE

  if (ctx.iso.worker_mem_mb != 0) {
    const rlim_t bytes =
        static_cast<rlim_t>(ctx.iso.worker_mem_mb) * 1024 * 1024;
    rlimit lim{bytes, bytes};
    ::setrlimit(RLIMIT_AS, &lim);
  }
  if (ctx.time_budget_ms != 0) {
    // Coarse backstop only: the precise per-group bound is the slice's
    // cooperative deadline plus the supervisor's wall-clock hard kill.
    // RLIMIT_CPU is cumulative over the worker's whole life, so it
    // cannot be a per-group limit.
    const rlim_t secs = static_cast<rlim_t>(ctx.time_budget_ms / 1000) * 2 + 30;
    rlimit lim{secs, secs};
    ::setrlimit(RLIMIT_CPU, &lim);
  }

  // Nothing may unwind past this frame: the child's stack below here is
  // a copy of the supervisor's (run_campaign, the test runner, main), and
  // an escaping exception would resume the parent's program in the child.
  try {
    // The simulator pulls a request whenever one of its lanes is free:
    // blocking when every lane is idle, a non-blocking peek at the pipe
    // while another lane is still busy. EOF ends the stream once the
    // lanes drain. The recording is complete, so every slice finishes.
    // The driver bounds each slice from when its request is read (the
    // supervisor forks outside the driver's lock).
    const auto pull = [&](bool wait) -> std::optional<fault::GroupSlice> {
      if (!wait) {
        pollfd p{in_fd, POLLIN, 0};
        if (::poll(&p, 1, 0) <= 0) return std::nullopt;
      }
      GroupRequest req;
      if (!read_request(in_fd, &req)) return std::nullopt;
      if (ctx.iso.crash_group >= 0 &&
          req.group == static_cast<std::uint64_t>(ctx.iso.crash_group) &&
          req.attempt < ctx.iso.crash_attempts) {
        // Seeded crash hook (tests): die exactly like a simulator bug
        // would, after the request was accepted.
        std::abort();
      }
      return ctx.driver.slice(static_cast<std::size_t>(req.group));
    };
    ctx.sim.run(pull, [&](fault::GroupSlice&& slice, bool) {
      // One write of one journal frame: atomic on the pipe.
      const std::string frame = encode_record_frame(slice.rec);
      if (!util::write_full(out_fd, frame.data(), frame.size())) _exit(2);
    });
  } catch (...) {
    // bad_alloc under RLIMIT_AS, or any simulator failure: die the way
    // an uncaught exception would, so the supervisor records SIGABRT.
    std::abort();
  }
  // EOF on the request pipe: the supervisor is done with us. _exit, not
  // exit — the child inherited the parent's stdio/journal buffers and
  // must not flush them a second time.
  _exit(0);
}

/// One group request on its way through a worker, with the driver's
/// slice it answers. Queued requests leave the times unset until a
/// worker takes them.
struct Job {
  GroupRequest req;
  fault::GroupSlice slice;
  bool solo = false;  // retry: runs alone in its worker
  /// Peak RSS and summed CPU of the attempts whose workers died, folded
  /// into the record so a crash-then-succeed group reports them too.
  std::uint64_t dead_rss_kb = 0;
  std::uint64_t dead_cpu_ms = 0;
  Clock::time_point started{};  // when the request was dispatched
  Clock::time_point deadline = Clock::time_point::max();  // hang kill
};

struct Worker {
  pid_t pid = -1;
  int to_fd = -1;    // supervisor -> worker requests
  int from_fd = -1;  // worker -> supervisor results
  std::vector<Job> held;  // in flight, at most GroupSimulator::lanes()

  bool alive() const { return pid > 0; }
};

Worker spawn_worker(const WorkerContext& ctx) {
  int req[2] = {-1, -1};
  int res[2] = {-1, -1};
  if (::pipe(req) != 0 || ::pipe(res) != 0) {
    if (req[0] >= 0) ::close(req[0]);
    if (req[1] >= 0) ::close(req[1]);
    throw std::runtime_error("cannot create worker pipes");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(req[0]);
    ::close(req[1]);
    ::close(res[0]);
    ::close(res[1]);
    throw std::runtime_error("cannot fork campaign worker");
  }
  if (pid == 0) {
    ::close(req[1]);
    ::close(res[0]);
    worker_main(ctx, req[0], res[1]);  // never returns
  }
  ::close(req[0]);
  ::close(res[1]);
  Worker w;
  w.pid = pid;
  w.to_fd = req[1];
  w.from_fd = res[0];
  return w;
}

/// Reaps a dead (or about-to-die) worker and closes its pipes. Returns
/// the structured post-mortem for quarantine records (attempts unset).
fault::GroupError reap_worker(Worker* w) {
  const util::ChildExit exit =
      util::reap_child(w->pid, /*block=*/true).value_or(util::ChildExit{});
  ::close(w->to_fd);
  ::close(w->from_fd);
  w->pid = -1;
  w->to_fd = w->from_fd = -1;
  fault::GroupError err;
  err.term_signal = exit.term_signal;
  err.exit_code = exit.exit_code;
  err.max_rss_kb = exit.max_rss_kb;
  err.cpu_ms = exit.cpu_ms;
  return err;
}

void shutdown_workers(std::vector<Worker>* workers) {
  for (Worker& w : *workers) {
    if (!w.alive()) continue;
    ::close(w.to_fd);  // EOF tells the worker to _exit(0)
    w.to_fd = -1;
  }
  for (Worker& w : *workers) {
    if (!w.alive()) continue;
    util::reap_child(w.pid, /*block=*/true);
    if (w.from_fd >= 0) ::close(w.from_fd);
    w.pid = -1;
    w.from_fd = -1;
  }
}

}  // namespace

fault::FaultSimResult run_fault_sim_isolated(
    const nl::Netlist& netlist, const nl::FaultList& faults,
    const fault::EnvFactory& make_env, const fault::FaultSimOptions& options,
    const IsolateOptions& iso, std::size_t* worker_restarts) {
  fault::GroupDriver driver(netlist, faults, make_env, options);
  if (driver.pending() == 0) return driver.finish();
  driver.record();

  // Built once, before any fork, over the driver's compiled netlist and
  // recording: children inherit all three copy-on-write. The supervisor
  // itself never simulates.
  const std::unique_ptr<fault::GroupSimulator> sim = driver.make_simulator();
  const WorkerContext ctx{driver, *sim, iso, options.time_budget_ms};

  // A worker that crashes mid-write leaves a half-closed pipe; writing
  // the next request to it must yield EPIPE, not kill the supervisor.
  struct sigaction ignore_pipe {};
  ignore_pipe.sa_handler = SIG_IGN;
  struct sigaction saved_pipe {};
  ::sigaction(SIGPIPE, &ignore_pipe, &saved_pipe);

  // Worker slots. A slot forks its worker when it is first handed a
  // group, so a run whose groups all expire or drain forks none; a dead
  // worker is re-forked the same way.
  std::vector<Worker> workers(iso.workers != 0 ? iso.workers
                                               : util::hardware_threads());

  // Grace period before a busy worker is declared hung and hard-killed.
  // The worker enforces group_timeout_ms cooperatively inside its kernel;
  // the hard deadline only fires when the group wedges the worker so
  // badly the cooperative check never runs.
  const auto hang_grace =
      options.group_timeout_ms != 0
          ? std::chrono::milliseconds(options.group_timeout_ms * 2 + 1000)
          : std::chrono::milliseconds(0);

  // Hands a job's slice back to the driver, finished with `rec` and its
  // attempt accounting in rec.error (see fault::GroupRecord::error).
  const auto resolve = [&](Job job, fault::GroupRecord rec,
                           double duration_ms) {
    rec.error.attempts = job.req.attempt + 1;
    rec.error.max_rss_kb = std::max(rec.error.max_rss_kb, job.dead_rss_kb);
    rec.error.cpu_ms += job.dead_cpu_ms;
    job.slice.rec = std::move(rec);
    job.slice.run_ms = duration_ms;
    driver.settle(std::move(job.slice), /*finished=*/true);
  };

  // Retries run alone on a fresh worker, ahead of unclaimed groups.
  std::deque<Job> retries;

  // Retry-or-quarantine decision for a group whose worker died. A death
  // charges an attempt to every group the worker held, but only a group
  // that failed while alone in its worker is quarantined: retries run
  // alone, so the innocent partner of a poison group always gets a solo
  // attempt, even with its retries spent.
  const auto fail_group = [&](const Job& job, fault::GroupError err,
                              double duration_ms, bool shared) {
    const std::uint64_t group = job.req.group;
    if (!shared && job.req.attempt >= iso.max_group_retries) {
      fault::GroupRecord rec =
          driver.plan().unstarted_record(static_cast<std::size_t>(group));
      rec.quarantined = true;
      rec.error = err;
      resolve(job, std::move(rec), duration_ms);
    } else {
      // Retry first so a transient failure is re-attempted while the
      // campaign is still warm, with the attempt count advanced.
      Job retry{{group, job.req.attempt + 1}, job.slice, /*solo=*/true};
      retry.dead_rss_kb = std::max(job.dead_rss_kb, err.max_rss_kb);
      retry.dead_cpu_ms = job.dead_cpu_ms + err.cpu_ms;
      retries.push_front(std::move(retry));
    }
  };

  // Makes sure a failed worker is dead, reaps it and charges every group
  // it held.
  const auto worker_died = [&](Worker& w, Clock::time_point now) {
    ::kill(w.pid, SIGKILL);
    const std::vector<Job> held = std::move(w.held);
    w.held.clear();
    const fault::GroupError err = reap_worker(&w);
    ++*worker_restarts;
    for (const Job& job : held) {
      fail_group(job, err,
                 std::chrono::duration<double, std::milli>(now - job.started)
                     .count(),
                 held.size() > 1);
    }
  };

  // Next request for `w`: a retry waits for an empty worker and keeps it
  // to itself; otherwise a fresh claim fills a free lane.
  const auto next_job = [&](const Worker& w) -> std::optional<Job> {
    if (!retries.empty()) {
      if (!w.held.empty()) return std::nullopt;
      const Job job = retries.front();
      retries.pop_front();
      return job;
    }
    if (w.held.size() >= sim->lanes() ||
        (!w.held.empty() && w.held.front().solo)) {
      return std::nullopt;
    }
    std::optional<fault::GroupSlice> slice = driver.next_slice(false);
    if (!slice) return std::nullopt;
    return Job{{slice->rec.group, 0}, std::move(*slice)};
  };

  try {
    bool draining = false;
    while (true) {
      if (!draining && options.cancel != nullptr &&
          options.cancel->load(std::memory_order_relaxed)) {
        draining = true;  // in-flight groups finish; nothing new starts
      }

      if (!draining) {
        for (Worker& w : workers) {
          while (std::optional<Job> job = next_job(w)) {
            if (!w.alive()) w = spawn_worker(ctx);
            job->started = Clock::now();
            job->deadline = hang_grace.count() != 0
                                ? job->started + hang_grace
                                : Clock::time_point::max();
            w.held.push_back(*job);
            if (!write_request(w.to_fd, job->req)) {
              // The worker died before reading the request (startup OOM,
              // external kill). Indistinguishable from dying right after
              // reading it, so it costs the request an attempt — keeping
              // every failure path bounded by max_group_retries.
              worker_died(w, job->started);
              break;
            }
          }
        }
      }

      std::vector<pollfd> fds;
      std::vector<std::size_t> fd_worker;
      for (std::size_t i = 0; i < workers.size(); ++i) {
        if (!workers[i].alive() || workers[i].held.empty()) continue;
        fds.push_back({workers[i].from_fd, POLLIN, 0});
        fd_worker.push_back(i);
      }
      if (fds.empty() &&
          (draining || (driver.pending() == 0 && retries.empty()))) {
        break;
      }

      // Wake at least every 200 ms to notice drain requests and hang
      // deadlines even when no worker produces events. A worker's hang
      // deadline is its earliest in-flight group's.
      const auto hang_deadline = [](const Worker& w) {
        Clock::time_point d = Clock::time_point::max();
        for (const Job& job : w.held) d = std::min(d, job.deadline);
        return d;
      };
      int timeout_ms = 200;
      const Clock::time_point now = Clock::now();
      for (std::size_t i : fd_worker) {
        const Clock::time_point d = hang_deadline(workers[i]);
        if (d == Clock::time_point::max()) continue;
        auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(d - now)
                .count();
        if (left < 0) left = 0;
        if (left < timeout_ms) timeout_ms = static_cast<int>(left);
      }
      if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms) < 0 &&
          errno != EINTR) {
        throw std::runtime_error("poll failed in campaign supervisor");
      }

      const Clock::time_point after = Clock::now();
      for (std::size_t k = 0; k < fds.size(); ++k) {
        Worker& w = workers[fd_worker[k]];
        if (!w.alive() || w.held.empty()) continue;  // handled this pass
        const bool readable = (fds[k].revents & (POLLIN | POLLHUP)) != 0;
        if (!readable) {
          if (after >= hang_deadline(w)) {
            // Hung: the cooperative timeout inside the worker never
            // fired. SIGKILL and let the EOF below classify it.
            ::kill(w.pid, SIGKILL);
            for (Job& job : w.held) job.deadline = Clock::time_point::max();
          }
          continue;
        }
        fault::GroupRecord rec;
        const bool ok = read_record_frame(w.from_fd, &rec);
        const auto job = std::find_if(
            w.held.begin(), w.held.end(),
            [&](const Job& j) { return ok && j.req.group == rec.group; });
        if (job != w.held.end()) {
          const double attempt_ms =
              std::chrono::duration<double, std::milli>(after - job->started)
                  .count();
          Job done = std::move(*job);
          w.held.erase(job);
          resolve(std::move(done), std::move(rec), attempt_ms);
          continue;
        }
        // EOF (crash/OOM/hard kill) or a desynchronized stream.
        worker_died(w, after);
      }
    }
    shutdown_workers(&workers);
  } catch (...) {
    shutdown_workers(&workers);
    ::sigaction(SIGPIPE, &saved_pipe, nullptr);
    throw;
  }
  ::sigaction(SIGPIPE, &saved_pipe, nullptr);
  return driver.finish();
}

}  // namespace sbst::campaign
