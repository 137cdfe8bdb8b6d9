// The one reaper of the campaign layer: exit classification, rusage and
// EINTR safety of util::reap_child.
//
// Suite name (ChildProcess) deliberately avoids the sanitizer ctest
// regexes: these tests fork, which TSan does not tolerate.
#include "util/child.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <ctime>
#include <thread>

namespace sbst::util {
namespace {

/// Forks a child that runs `body` and _exits with its return value.
template <typename F>
pid_t fork_child(F body) {
  const pid_t pid = ::fork();
  if (pid == 0) _exit(body());
  return pid;
}

TEST(ChildProcess, CleanExit) {
  const pid_t pid = fork_child([] { return 0; });
  ASSERT_GT(pid, 0);
  const std::optional<ChildExit> exit = reap_child(pid, /*block=*/true);
  ASSERT_TRUE(exit);
  EXPECT_TRUE(exit->exited(0));
  EXPECT_EQ(exit->term_signal, 0);
  EXPECT_EQ(exit->describe(), "exit 0");
}

TEST(ChildProcess, ExitCode) {
  const pid_t pid = fork_child([] { return 3; });
  ASSERT_GT(pid, 0);
  const std::optional<ChildExit> exit = reap_child(pid, /*block=*/true);
  ASSERT_TRUE(exit);
  EXPECT_EQ(exit->exit_code, 3);
  EXPECT_TRUE(exit->exited(3));
  EXPECT_FALSE(exit->exited(0));
  EXPECT_EQ(exit->describe(), "exit 3");
}

TEST(ChildProcess, KilledBySignal) {
  const pid_t pid = fork_child([] {
    ::pause();
    return 0;
  });
  ASSERT_GT(pid, 0);
  ::kill(pid, SIGKILL);
  const std::optional<ChildExit> exit = reap_child(pid, /*block=*/true);
  ASSERT_TRUE(exit);
  EXPECT_EQ(exit->term_signal, SIGKILL);
  EXPECT_FALSE(exit->exited(0));
  EXPECT_EQ(exit->describe(), "signal 9");
}

TEST(ChildProcess, NonBlockingReapWaitsForARunningChild) {
  const pid_t pid = fork_child([] {
    ::pause();
    return 0;
  });
  ASSERT_GT(pid, 0);
  EXPECT_FALSE(reap_child(pid, /*block=*/false));
  ::kill(pid, SIGKILL);
  std::optional<ChildExit> exit;
  for (int i = 0; i < 500 && !exit; ++i) {
    exit = reap_child(pid, /*block=*/false);
    if (!exit) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(exit);
  EXPECT_EQ(exit->term_signal, SIGKILL);
}

TEST(ChildProcess, BusyChildReportsCpuTime) {
  const pid_t pid = fork_child([] {
    // Spin until 50 ms of CPU time have been charged to this process.
    volatile unsigned sink = 0;
    const std::clock_t start = std::clock();
    while (std::clock() - start < CLOCKS_PER_SEC / 20) sink = sink + 1;
    return 0;
  });
  ASSERT_GT(pid, 0);
  const std::optional<ChildExit> exit = reap_child(pid, /*block=*/true);
  ASSERT_TRUE(exit);
  EXPECT_TRUE(exit->exited(0));
  EXPECT_GT(exit->cpu_ms, 0u);
  EXPECT_GT(exit->max_rss_kb, 0u);
}

volatile std::sig_atomic_t g_sigchld = 0;

extern "C" void count_sigchld(int) { g_sigchld = g_sigchld + 1; }

TEST(ChildProcess, SigchldDuringABlockingReapStillReturnsTheStatus) {
  // A handler installed without SA_RESTART makes wait4 fail with EINTR
  // when another child's SIGCHLD lands mid-wait.
  struct sigaction sa {};
  sa.sa_handler = count_sigchld;
  struct sigaction saved {};
  ASSERT_EQ(::sigaction(SIGCHLD, &sa, &saved), 0);

  g_sigchld = 0;
  const pid_t early = fork_child([] {
    ::usleep(100 * 1000);
    return 0;
  });
  const pid_t late = fork_child([] {
    ::usleep(400 * 1000);
    return 5;
  });
  ASSERT_GT(early, 0);
  ASSERT_GT(late, 0);
  // `early` exits while this call blocks on `late`: its SIGCHLD
  // interrupts the wait, which must resume rather than give up.
  const std::optional<ChildExit> exit = reap_child(late, /*block=*/true);
  ASSERT_TRUE(exit);
  EXPECT_TRUE(exit->exited(5));
  EXPECT_GE(g_sigchld, 1);
  const std::optional<ChildExit> first = reap_child(early, /*block=*/true);
  ASSERT_TRUE(first);
  EXPECT_TRUE(first->exited(0));
  ::sigaction(SIGCHLD, &saved, nullptr);
}

}  // namespace
}  // namespace sbst::util
