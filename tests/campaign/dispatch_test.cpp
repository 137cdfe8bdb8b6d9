// Supervision contract of the shard dispatcher: a runner's status
// heartbeat is its lease (held = "running" + fresh mtime + live pid;
// finished, stale, dead or unreadable = released), runner death
// re-dispatches the shard under bounded backoff, retries exhaust into
// an explicit failure, a foreign live runner blocks dispatch instead of
// racing the journal, and a drain request turns running shards into
// resumable ones. Fake /bin/sh runners keep every scenario
// deterministic; the foreign runners' status files come from the real
// telemetry writer, so reader and writer agree on the format.
//
// Suite names (Lease, Dispatch) deliberately avoid the sanitizer ctest
// regexes: these tests fork, which TSan does not tolerate.
#include "campaign/dispatch.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utime.h>

#include <cstdlib>
#include <cstring>
#include <ctime>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics.h"
#include "temp_path.h"

namespace sbst::campaign {
namespace {

using testfs::temp_path;

// Fresh per-scenario directory: leftovers of an earlier use (marker
// files the fail-once runner scripts key on) must be swept or the
// scenarios silently degenerate.
std::string make_dir(const char* name) {
  const std::string dir = temp_path(name);
  ::mkdir(dir.c_str(), 0755);
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      if (!std::strcmp(e->d_name, ".") || !std::strcmp(e->d_name, "..")) {
        continue;
      }
      ::unlink((dir + "/" + e->d_name).c_str());
    }
    ::closedir(d);
  }
  return dir;
}

void spit(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << data;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

/// Writes a fake runner and returns DispatchOptions invoking it as
/// `/bin/sh script <shard> <journal> <status>`.
DispatchOptions sh_runner_options(const std::string& dir,
                                  const char* script_name,
                                  const std::string& script_body,
                                  unsigned shards) {
  const std::string script = dir + "/" + script_name;
  spit(script, script_body);
  DispatchOptions opt;
  opt.shards = shards;
  opt.journal_dir = dir;
  opt.poll_period_s = 0.02;
  opt.backoff_initial_s = 0.05;
  opt.heartbeat_period_s = 0.05;
  opt.make_runner_argv = [script](unsigned shard, const std::string& journal,
                                  const std::string& status) {
    return std::vector<std::string>{"/bin/sh", script, std::to_string(shard),
                                    journal, status};
  };
  static std::FILE* devnull = std::fopen("/dev/null", "w");
  opt.log = devnull;
  return opt;
}

TEST(Lease, PathsAreCanonicalPerShard) {
  EXPECT_EQ(shard_journal_path("d", 2, 4), "d/shard-2-of-4.sbstj");
  EXPECT_EQ(shard_status_path("d", 2, 4), "d/shard-2-of-4.status.json");
}

/// The status heartbeat of a runner that is not the dispatcher's child:
/// this test process, which is alive, holding shard 0 of 1 for campaign
/// `fingerprint`. The period is long so the file's mtime stays put.
telemetry::CampaignTelemetry foreign_runner(const std::string& dir,
                                            std::uint64_t fingerprint) {
  telemetry::TelemetryOptions topt;
  topt.status_path = shard_status_path(dir, 0, 1);
  topt.heartbeat_period_s = 3600.0;
  return telemetry::CampaignTelemetry(topt, "threads", 1, fingerprint);
}

TEST(Dispatch, RejectsUnusableOptions) {
  DispatchOptions opt;
  opt.shards = 0;
  EXPECT_THROW(run_dispatch(opt), std::runtime_error);
  opt.shards = 1;
  EXPECT_THROW(run_dispatch(opt), std::runtime_error);  // no argv factory
  opt.make_runner_argv = [](unsigned, const std::string&,
                            const std::string&) {
    return std::vector<std::string>{"/bin/true"};
  };
  opt.journal_dir = temp_path("dispatch_missing_dir");
  EXPECT_THROW(run_dispatch(opt), std::runtime_error);
}

TEST(Dispatch, AllShardsCompleteFirstTry) {
  const std::string dir = make_dir("dispatch_clean");
  DispatchOptions opt =
      sh_runner_options(dir, "runner.sh", "touch \"$2\"\nexit 0\n", 3);
  const DispatchResult res = run_dispatch(opt);
  EXPECT_TRUE(res.all_completed());
  EXPECT_FALSE(res.any_failed());
  EXPECT_FALSE(res.interrupted);
  ASSERT_EQ(res.shards.size(), 3u);
  for (const ShardOutcome& s : res.shards) {
    EXPECT_TRUE(s.completed);
    EXPECT_EQ(s.attempts, 1u);
    EXPECT_EQ(s.redispatches, 0u);
    EXPECT_TRUE(file_exists(s.journal)) << "runner saw the journal path";
  }
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ(res.shards[i].journal, shard_journal_path(dir, i, 3));
  }
}

TEST(Dispatch, AbnormalExitRedispatchesUntilSuccess) {
  const std::string dir = make_dir("dispatch_crash");
  // First attempt dies abnormally; the re-dispatched attempt succeeds.
  DispatchOptions opt = sh_runner_options(
      dir, "runner.sh",
      "if [ -f \"$2.marker\" ]; then exit 0; fi\n"
      "touch \"$2.marker\"\nexit 1\n",
      2);
  const DispatchResult res = run_dispatch(opt);
  EXPECT_TRUE(res.all_completed());
  for (const ShardOutcome& s : res.shards) {
    EXPECT_EQ(s.attempts, 2u);
    EXPECT_EQ(s.redispatches, 1u);
  }
}

TEST(Dispatch, RetriesExhaustedFailsTheShard) {
  const std::string dir = make_dir("dispatch_exhaust");
  DispatchOptions opt = sh_runner_options(dir, "runner.sh", "exit 1\n", 1);
  opt.max_shard_retries = 1;
  const DispatchResult res = run_dispatch(opt);
  EXPECT_FALSE(res.all_completed());
  EXPECT_TRUE(res.any_failed());
  ASSERT_EQ(res.shards.size(), 1u);
  EXPECT_TRUE(res.shards[0].failed);
  EXPECT_EQ(res.shards[0].attempts, 2u);  // initial + one retry
  EXPECT_NE(res.shards[0].error.find("retries exhausted"), std::string::npos)
      << res.shards[0].error;
}

TEST(Dispatch, StaleLeaseRevokedAndRedispatched) {
  const std::string dir = make_dir("dispatch_stale");
  // First attempt hangs without ever heartbeating; the dispatcher must
  // declare it dead on the spawn-time fallback clock, SIGKILL it and
  // re-dispatch. The second attempt completes immediately.
  DispatchOptions opt = sh_runner_options(
      dir, "runner.sh",
      "if [ -f \"$2.marker\" ]; then exit 0; fi\n"
      "touch \"$2.marker\"\nsleep 30\n",
      1);
  opt.stale_after_s = 0.5;  // 1s wall-clock granularity rounds this to ~1s
  const DispatchResult res = run_dispatch(opt);
  EXPECT_TRUE(res.all_completed());
  ASSERT_EQ(res.shards.size(), 1u);
  EXPECT_GE(res.shards[0].stale_leases, 1u);
  EXPECT_GE(res.shards[0].redispatches, 1u);
}

/// True while `pid` exists and is not a zombie (a reaped-or-zombie
/// process no longer runs anything).
bool process_running(const std::string& pid) {
  const std::string stat = slurp("/proc/" + pid + "/stat");
  if (stat.empty()) return false;
  const std::size_t paren = stat.rfind(')');
  return paren != std::string::npos && paren + 2 < stat.size() &&
         stat[paren + 2] != 'Z';
}

TEST(Dispatch, RevokedRunnerLeavesNoDescendants) {
  const std::string dir = make_dir("dispatch_orphans");
  // The first attempt stands in for a runner with two worker processes
  // (`--workers-per-shard 2`): it forks two long sleepers, records their
  // pids and hangs without heartbeating. Revoking its lease must take
  // the whole process group down, not just the runner's own pid.
  DispatchOptions opt = sh_runner_options(
      dir, "runner.sh",
      "if [ -f \"$2.marker\" ]; then exit 0; fi\n"
      "touch \"$2.marker\"\n"
      "sleep 30 & echo $! >> \"$2.pids\"\n"
      "sleep 30 & echo $! >> \"$2.pids\"\n"
      "wait\n",
      1);
  opt.stale_after_s = 0.5;
  const auto started = std::chrono::steady_clock::now();
  const DispatchResult res = run_dispatch(opt);
  EXPECT_TRUE(res.all_completed());
  EXPECT_GE(res.shards[0].stale_leases, 1u);

  std::istringstream pids(slurp(res.shards[0].journal + ".pids"));
  std::vector<std::string> workers;
  for (std::string pid; pids >> pid;) workers.push_back(pid);
  ASSERT_EQ(workers.size(), 2u);
  for (const std::string& pid : workers) {
    for (int i = 0; i < 200 && process_running(pid); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_FALSE(process_running(pid)) << "worker " << pid << " survived";
  }
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(10));
}

TEST(Dispatch, KilledDispatcherTakesItsRunnersDown) {
  const std::string dir = make_dir("dispatch_parent_death");
  // Each runner records its pid and waits on a long sleeper without
  // ever finishing. On SIGTERM it drains like `sbst grade`: it stops its
  // work, leaves its journal resumable and exits 3. A second dispatch
  // finishes every shard whose journal a drain left behind.
  DispatchOptions opt = sh_runner_options(
      dir, "runner.sh",
      "if [ \"$(cat \"$2\" 2>/dev/null)\" = resumable ]; then\n"
      "  echo done > \"$2\"; exit 0\n"
      "fi\n"
      "trap 'kill $sleeper; echo resumable > \"$2\"; exit 3' TERM\n"
      "sleep 30 & sleeper=$!\n"
      "echo $$ > \"$2.pid\"\n"
      "wait\n",
      3);
  opt.stale_after_s = 60;
  const pid_t dispatcher = ::fork();
  ASSERT_GE(dispatcher, 0);
  if (dispatcher == 0) {
    run_dispatch(opt);
    _exit(0);
  }
  std::vector<std::string> runners;
  for (unsigned shard = 0; shard < opt.shards; ++shard) {
    const std::string pid_file =
        shard_journal_path(dir, shard, opt.shards) + ".pid";
    for (int i = 0; i < 500 && slurp(pid_file).empty(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::istringstream in(slurp(pid_file));
    std::string pid;
    ASSERT_TRUE(in >> pid) << "shard " << shard << " never started";
    runners.push_back(pid);
  }
  ::kill(dispatcher, SIGKILL);
  ASSERT_EQ(::waitpid(dispatcher, nullptr, 0), dispatcher);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (const std::string& pid : runners) {
    while (process_running(pid) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (process_running(pid)) {
      ADD_FAILURE() << "runner " << pid << " survived its dispatcher";
      ::kill(std::stoi(pid), SIGKILL);
    }
  }
  if (HasFailure()) return;
  for (unsigned shard = 0; shard < opt.shards; ++shard) {
    const std::string journal = shard_journal_path(dir, shard, opt.shards);
    EXPECT_EQ(slurp(journal), "resumable\n") << "shard " << shard;
  }

  const DispatchResult res = run_dispatch(opt);
  EXPECT_TRUE(res.all_completed());
  for (const ShardOutcome& s : res.shards) {
    EXPECT_EQ(slurp(s.journal), "done\n") << "shard " << s.shard;
  }
}

TEST(Dispatch, ForeignLiveLeaseBlocksTheShard) {
  const std::string dir = make_dir("dispatch_foreign");
  DispatchOptions opt =
      sh_runner_options(dir, "runner.sh", "exit 0\n", 1);
  opt.fingerprint = 0xaaaabbbbccccddddull;
  {
    // A fresh "running" status naming a live pid (this test) that is
    // not a child of the dispatcher: the shard must not be
    // double-dispatched.
    const telemetry::CampaignTelemetry holder =
        foreign_runner(dir, opt.fingerprint);
    const DispatchResult res = run_dispatch(opt);
    ASSERT_EQ(res.shards.size(), 1u);
    EXPECT_TRUE(res.shards[0].failed);
    EXPECT_EQ(res.shards[0].attempts, 0u);
    EXPECT_NE(res.shards[0].error.find("lease already held"),
              std::string::npos)
        << res.shards[0].error;
  }
  {
    // Same liveness but a different campaign fingerprint: the error
    // names the journal-directory collision.
    const telemetry::CampaignTelemetry holder =
        foreign_runner(dir, opt.fingerprint ^ 1);
    const DispatchResult res = run_dispatch(opt);
    EXPECT_TRUE(res.shards[0].failed);
    EXPECT_NE(res.shards[0].error.find("different campaign"),
              std::string::npos)
        << res.shards[0].error;
  }
}

TEST(Dispatch, GarbageOrStaleLeaseIsReclaimed) {
  const std::string dir = make_dir("dispatch_garbage");
  DispatchOptions opt =
      sh_runner_options(dir, "runner.sh", "exit 0\n", 1);
  const std::string status = shard_status_path(dir, 0, 1);
  spit(status, "this is not a status\n");
  const DispatchResult res = run_dispatch(opt);
  EXPECT_TRUE(res.all_completed());
  EXPECT_EQ(res.shards[0].attempts, 1u);

  // A live runner whose heartbeat stopped an hour ago is wedged past
  // stale_after_s and has lost the shard. Its file is not the new
  // runner's heartbeat either: a runner that has not written one yet
  // is judged by its spawn time, so it is not revoked while it works.
  const telemetry::CampaignTelemetry holder =
      foreign_runner(dir, opt.fingerprint);
  const std::time_t hour_ago = std::time(nullptr) - 3600;
  const struct utimbuf times {hour_ago, hour_ago};
  ASSERT_EQ(::utime(status.c_str(), &times), 0);
  const DispatchOptions slow =
      sh_runner_options(dir, "slow.sh", "sleep 0.3\nexit 0\n", 1);
  const DispatchResult res2 = run_dispatch(slow);
  EXPECT_TRUE(res2.all_completed());
  EXPECT_EQ(res2.shards[0].attempts, 1u);
  EXPECT_EQ(res2.shards[0].stale_leases, 0u);
}

TEST(Dispatch, FinishedRunnerStatusDoesNotBlockRedispatch) {
  const std::string dir = make_dir("dispatch_finished");
  DispatchOptions opt =
      sh_runner_options(dir, "runner.sh", "exit 0\n", 1);
  // A runner that finished, or drained, left its status behind with a
  // live pid and a fresh mtime; only "running" holds the shard.
  for (const bool interrupted : {false, true}) {
    telemetry::CampaignTelemetry runner =
        foreign_runner(dir, opt.fingerprint);
    runner.finish(interrupted);
    const DispatchResult res = run_dispatch(opt);
    EXPECT_TRUE(res.all_completed()) << "interrupted=" << interrupted;
    EXPECT_EQ(res.shards[0].attempts, 1u) << "interrupted=" << interrupted;
  }
}

TEST(Dispatch, DrainMarksShardsResumable) {
  const std::string dir = make_dir("dispatch_drain");
  // Runners convert SIGTERM into the resumable exit code 3, the way a
  // draining `sbst grade --shard` does.
  DispatchOptions opt = sh_runner_options(
      dir, "runner.sh",
      "trap 'exit 3' TERM\nsleep 30 &\nwait $!\nexit 0\n", 2);
  std::atomic<bool> cancel{false};
  opt.cancel = &cancel;
  std::thread trigger([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    cancel.store(true);
  });
  const DispatchResult res = run_dispatch(opt);
  trigger.join();
  EXPECT_TRUE(res.interrupted);
  EXPECT_FALSE(res.all_completed());
  EXPECT_FALSE(res.any_failed());
  for (const ShardOutcome& s : res.shards) {
    EXPECT_TRUE(s.resumable) << "shard " << s.shard;
  }
}

TEST(Dispatch, AbnormalExitDuringDrainIsResumable) {
  const std::string dir = make_dir("dispatch_drain_abnormal");
  // Runners with no TERM trap die of the forwarded signal itself, the
  // way a `sbst grade --shard` still in set-up (drain handlers not yet
  // installed) does. A drain must not schedule a re-dispatch it will
  // never spawn: the shards are resumable and the loop returns.
  DispatchOptions opt =
      sh_runner_options(dir, "runner.sh", "sleep 30\n", 2);
  std::atomic<bool> cancel{false};
  opt.cancel = &cancel;
  std::atomic<bool> returned{false};
  std::thread watchdog([&returned] {
    for (int i = 0; i < 1000 && !returned.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!returned.load()) {
      ADD_FAILURE() << "run_dispatch still looping 10 s after the drain";
      std::fflush(stdout);
      std::_Exit(1);
    }
  });
  std::thread trigger([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    cancel.store(true);
  });
  const DispatchResult res = run_dispatch(opt);
  returned.store(true);
  trigger.join();
  watchdog.join();
  EXPECT_TRUE(res.interrupted);
  EXPECT_FALSE(res.any_failed());
  for (const ShardOutcome& s : res.shards) {
    EXPECT_TRUE(s.resumable) << "shard " << s.shard;
    EXPECT_FALSE(s.failed) << "shard " << s.shard;
    EXPECT_EQ(s.attempts, 1u) << "shard " << s.shard;
  }
}

TEST(Dispatch, StatusRollupFoldsRunnerProgress) {
  const std::string dir = make_dir("dispatch_status");
  DispatchOptions opt = sh_runner_options(
      dir, "runner.sh",
      "printf '{\"groups_done\":3,\"groups_total\":5}' > \"$3\"\nexit 0\n",
      2);
  opt.status_path = dir + "/rollup.json";
  const DispatchResult res = run_dispatch(opt);
  EXPECT_TRUE(res.all_completed());
  const std::string status = slurp(opt.status_path);
  EXPECT_NE(status.find("\"schema\":\"sbst-dispatch-status-v1\""),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos) << status;
  EXPECT_NE(status.find("\"groups_done\":3"), std::string::npos) << status;
  EXPECT_NE(status.find("\"groups_total\":5"), std::string::npos) << status;
}

}  // namespace
}  // namespace sbst::campaign
