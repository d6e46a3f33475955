// Supervisor unit coverage: the CrashLoopTracker state machine over a
// synthetic clock (backoff growth, healthy reset, the exact sliding
// window quarantine boundary, release), spec parsing, and the real
// Supervisor's drain-before-kill discipline over forked children.
//
// The Supervisor tests fork() real children, so this suite must stay out
// of the tsan build (the fleet_chaos_test precedent).
#include "supervise/crash_loop.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "serve/backoff.h"
#include "supervise/spec.h"
#include "supervise/supervisor.h"

namespace qsnc::supervise {
namespace {

constexpr int64_t kSec = 1'000'000;

CrashLoopOptions test_options() {
  CrashLoopOptions options;
  options.backoff = serve::BackoffConfig{/*base_us=*/100000,
                                         /*max_us=*/5'000'000,
                                         /*multiplier=*/2.0, /*seed=*/1};
  options.quarantine_exits = 3;
  options.window_us = 10 * kSec;
  options.healthy_reset_us = 5 * kSec;
  return options;
}

TEST(CrashLoopTrackerTest, BackoffGrowsPerConsecutiveCrash) {
  CrashLoopOptions options = test_options();
  options.quarantine_exits = 100;  // stay out of quarantine here
  CrashLoopTracker tracker(options);
  const serve::Backoff backoff(options.backoff);

  int64_t now = 0;
  std::vector<int64_t> delays;
  for (int i = 0; i < 4; ++i) {
    tracker.on_start(now);
    now += 1;  // instant crash
    const auto restart_at = tracker.on_exit(now, "exit 1");
    ASSERT_TRUE(restart_at.has_value());
    delays.push_back(*restart_at - now);
    // The delay is exactly the shared backoff schedule at this attempt.
    EXPECT_EQ(*restart_at - now,
              static_cast<int64_t>(backoff.delay_us(i)))
        << "attempt " << i;
    now = *restart_at;
  }
  // Exponential: each consecutive crash waits longer than the last
  // (jitter is within [0.5, 1.0) of a doubling curve, so strict growth
  // holds for the first few attempts of this config).
  EXPECT_GT(delays[1], delays[0]);
  EXPECT_GT(delays[2], delays[1]);
}

TEST(CrashLoopTrackerTest, HealthyRunResetsTheAttemptCounter) {
  CrashLoopOptions options = test_options();
  options.quarantine_exits = 100;
  CrashLoopTracker tracker(options);
  const serve::Backoff backoff(options.backoff);

  int64_t now = 0;
  tracker.on_start(now);
  now += 1;
  tracker.on_exit(now, "exit 1");
  tracker.on_start(now);
  now += 1;
  tracker.on_exit(now, "exit 1");
  EXPECT_EQ(tracker.attempt(), 2);

  // A run that stays up past healthy_reset_us forgets the streak: the
  // next crash restarts on the attempt-0 delay again.
  tracker.on_start(now);
  now += options.healthy_reset_us + kSec;
  const auto restart_at = tracker.on_exit(now, "signal 9");
  ASSERT_TRUE(restart_at.has_value());
  EXPECT_EQ(*restart_at - now, static_cast<int64_t>(backoff.delay_us(0)));
  EXPECT_EQ(tracker.attempt(), 1);
}

TEST(CrashLoopTrackerTest, QuarantineTripsExactlyAtTheWindowBoundary) {
  // quarantine_exits = 3 in a 10 s window. Two exits at t=0s and t=1s,
  // then a third: inside the window it quarantines, outside it does not.
  {
    CrashLoopTracker tracker(test_options());
    tracker.on_start(0);
    tracker.on_exit(0, "exit 1");
    tracker.on_start(0);
    tracker.on_exit(1 * kSec, "exit 1");
    tracker.on_start(1 * kSec);
    // Third exit just inside the window: the t=0 exit still counts, so
    // this quarantines.
    const auto restart_at = tracker.on_exit(10 * kSec - 1, "exit 1");
    EXPECT_FALSE(restart_at.has_value());
    EXPECT_TRUE(tracker.quarantined());
    EXPECT_NE(tracker.quarantine_reason().find("3 exit(s)"),
              std::string::npos)
        << tracker.quarantine_reason();
    EXPECT_NE(tracker.quarantine_reason().find("exit 1"), std::string::npos)
        << tracker.quarantine_reason();
    // Once quarantined, further exits never schedule a restart.
    EXPECT_FALSE(tracker.on_exit(20 * kSec, "exit 1").has_value());
  }
  {
    CrashLoopTracker tracker(test_options());
    tracker.on_start(0);
    tracker.on_exit(0, "exit 1");
    tracker.on_start(0);
    tracker.on_exit(1 * kSec, "exit 1");
    tracker.on_start(1 * kSec);
    // Third exit exactly window_us after the first: the t=0 exit has
    // aged out (the window is a half-open interval), only two exits
    // remain — backoff, not quarantine.
    const auto restart_at = tracker.on_exit(10 * kSec, "exit 1");
    EXPECT_TRUE(restart_at.has_value());
    EXPECT_FALSE(tracker.quarantined());
  }
}

TEST(CrashLoopTrackerTest, ReleaseClearsQuarantineAndHistory) {
  CrashLoopTracker tracker(test_options());
  int64_t now = 0;
  for (int i = 0; i < 3; ++i) {
    tracker.on_start(now);
    now += 1;
    tracker.on_exit(now, "exit 1");
  }
  ASSERT_TRUE(tracker.quarantined());

  tracker.release();
  EXPECT_FALSE(tracker.quarantined());
  EXPECT_TRUE(tracker.quarantine_reason().empty());
  EXPECT_EQ(tracker.attempt(), 0);

  // The exit history is forgotten: it takes a fresh quarantine_exits
  // crashes to trip again.
  tracker.on_start(now);
  now += 1;
  EXPECT_TRUE(tracker.on_exit(now, "exit 1").has_value());
  EXPECT_FALSE(tracker.quarantined());
}

// ---------------------------------------------------------------------------
// Spec parsing.
// ---------------------------------------------------------------------------

TEST(SupervisorSpecTest, ParsesLanesCommentsAndBlanks) {
  const SupervisorSpec spec = parse_supervisor_spec(
      "# fleet of two\n"
      "\n"
      "lane backend-a = ./qsnc serve --listen tcp:127.0.0.1:7101\n"
      "lane backend-b = /bin/sleep 30\n");
  ASSERT_EQ(spec.lanes.size(), 2u);
  EXPECT_EQ(spec.lanes[0].name, "backend-a");
  ASSERT_EQ(spec.lanes[0].argv.size(), 4u);
  EXPECT_EQ(spec.lanes[0].argv[0], "./qsnc");
  EXPECT_EQ(spec.lanes[0].argv[3], "tcp:127.0.0.1:7101");
  EXPECT_EQ(spec.lanes[1].name, "backend-b");
  ASSERT_EQ(spec.lanes[1].argv.size(), 2u);
}

TEST(SupervisorSpecTest, MalformedLinesThrowWithLineNumbers) {
  EXPECT_THROW(parse_supervisor_spec("not a lane line\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_supervisor_spec("lane nameonly\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_supervisor_spec("lane empty =\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_supervisor_spec("lane a = /bin/true\n"
                                     "lane a = /bin/false\n"),
               std::invalid_argument);
  try {
    parse_supervisor_spec("lane ok = /bin/true\nbogus\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(load_supervisor_spec("/nonexistent/qsnc-spec"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Real children: restart, quarantine, drain ordering.
// ---------------------------------------------------------------------------

SupervisorOptions fast_options() {
  SupervisorOptions options;
  options.crash_loop.backoff =
      serve::BackoffConfig{/*base_us=*/20000, /*max_us=*/100000,
                          /*multiplier=*/2.0, /*seed=*/1};
  options.crash_loop.quarantine_exits = 3;
  options.crash_loop.window_us = 30 * kSec;
  options.crash_loop.healthy_reset_us = 10 * kSec;
  options.drain_timeout_ms = 300;
  options.poll_interval_ms = 5;
  return options;
}

LaneStatus wait_for_state(Supervisor& supervisor, const std::string& lane,
                          const std::string& state, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  LaneStatus last;
  while (std::chrono::steady_clock::now() < deadline) {
    for (const LaneStatus& s : supervisor.status()) {
      if (s.name == lane) last = s;
    }
    if (last.state == state) return last;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return last;
}

TEST(SupervisorTest, CrashLoopingLaneIsQuarantinedAndReleasable) {
  SupervisorSpec spec =
      parse_supervisor_spec("lane crasher = /bin/false\n");
  Supervisor supervisor(spec, fast_options());
  supervisor.start();

  const LaneStatus quarantined =
      wait_for_state(supervisor, "crasher", "quarantined");
  EXPECT_EQ(quarantined.state, "quarantined");
  EXPECT_EQ(quarantined.pid, -1);
  EXPECT_NE(quarantined.quarantine_reason.find("crash loop"),
            std::string::npos)
      << quarantined.quarantine_reason;
  EXPECT_EQ(quarantined.last_exit, "exit 1");
  EXPECT_GE(quarantined.restarts, 2);  // 3 exits = 2 restarts before trip

  // The status table carries the structured reason.
  EXPECT_NE(supervisor.status_report().find("crash loop"),
            std::string::npos)
      << supervisor.status_report();

  // release() revives it; /bin/false crash-loops straight back into
  // quarantine, proving the fresh window is armed.
  std::string message;
  EXPECT_TRUE(supervisor.release("crasher", &message));
  const LaneStatus again =
      wait_for_state(supervisor, "crasher", "quarantined");
  EXPECT_EQ(again.state, "quarantined");
  EXPECT_GT(again.restarts, quarantined.restarts);

  // Release of unknown / non-quarantined lanes refuses with a message.
  EXPECT_FALSE(supervisor.release("ghost", &message));
  EXPECT_FALSE(message.empty());
  supervisor.stop();
}

TEST(SupervisorTest, SigtermDrainBeatsSigkillForCooperativeChildren) {
  // sleep(1) exits on SIGTERM by default: stop() must record a signal 15
  // death, never an escalated signal 9.
  SupervisorSpec spec =
      parse_supervisor_spec("lane sleeper = /bin/sleep 30\n");
  Supervisor supervisor(spec, fast_options());
  supervisor.start();
  const LaneStatus running = wait_for_state(supervisor, "sleeper", "running");
  ASSERT_EQ(running.state, "running");
  ASSERT_GT(running.pid, 0);

  supervisor.stop();
  const std::vector<LaneStatus> status = supervisor.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].state, "stopped");
  EXPECT_EQ(status[0].pid, -1);
  EXPECT_EQ(status[0].last_exit, "signal 15");
  // The child is really gone (its pid no longer accepts signal 0, or is
  // a reaped zombie we cannot address).
  EXPECT_NE(::kill(running.pid, 0), 0);
}

TEST(SupervisorTest, StubbornChildEscalatesToSigkillAfterDrainTimeout) {
  // A shell trapping SIGTERM and sleeping on: only SIGKILL ends it, and
  // only after the drain budget expires. The spec parser whitespace-splits
  // argv (no quoting), so this lane is built directly. The lane reports
  // `running` at fork/exec, before the shell has installed its trap, so
  // the child touches a ready file (its $1) once the trap is in place and
  // the test waits for that file instead.
  std::string dir_template =
      (std::filesystem::temp_directory_path() / "qsnc_stubborn_XXXXXX")
          .string();
  ASSERT_NE(::mkdtemp(dir_template.data()), nullptr);
  const std::filesystem::path dir(dir_template);
  const std::filesystem::path ready = dir / "ready";
  SupervisorSpec spec;
  spec.lanes.push_back(
      {"stubborn",
       {"/bin/sh", "-c",
        "trap '' TERM; : > \"$1\"; while :; do sleep 0.05; done", "sh",
        ready.string()}});
  Supervisor supervisor(spec, fast_options());
  supervisor.start();
  const auto ready_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!std::filesystem::exists(ready) &&
         std::chrono::steady_clock::now() < ready_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(std::filesystem::exists(ready)) << "child never trapped TERM";

  const auto t0 = std::chrono::steady_clock::now();
  supervisor.stop();
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  const std::vector<LaneStatus> status = supervisor.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].state, "stopped");
  EXPECT_EQ(status[0].last_exit, "signal 9");
  // The SIGTERM grace period was actually honored before escalation.
  EXPECT_GE(elapsed_ms, fast_options().drain_timeout_ms);
  std::filesystem::remove_all(dir);
}

TEST(SupervisorTest, StartTwiceThrowsAndStopIsIdempotent) {
  SupervisorSpec spec = parse_supervisor_spec("lane t = /bin/sleep 30\n");
  Supervisor supervisor(spec, fast_options());
  supervisor.start();
  EXPECT_THROW(supervisor.start(), std::runtime_error);
  supervisor.stop();
  supervisor.stop();  // idempotent
}

}  // namespace
}  // namespace qsnc::supervise
