// Blue/green rollout controller: shadow-compare a candidate model
// version against the live one, then promote or roll back.
//
//   load (registry.add_from_bytes)  -->  kStandby
//   begin()                         -->  kShadow: a slice of the base's
//         live traffic (always the kCanary priority class, plus
//         shadow_fraction of the rest) is duplicated to green; the
//         client is answered from blue as always, and the controller
//         compares the two predictions off the hot path. A deterministic
//         canary battery (the replica-health idiom: fixed images from
//         one constant seed) runs against both versions every
//         canary_interval_ms as a second, traffic-independent signal.
//   auto-promote                    -->  compared >= observe_requests,
//         canary_rounds clean battery passes, and divergence within
//         max_divergence: the registry's active pointer flips to green
//         and blue demotes to standby. In-flight requests finish on the
//         version they were admitted to (each version has its own
//         batcher lanes), so a flip never drops or reroutes a request.
//   auto-rollback                   -->  any canary divergence, or
//         shadow divergence above max_divergence once
//         min_compared_for_rollback pairs exist: green quarantines with
//         a structured reason and blue keeps serving, untouched.
//
// Operators override with promote()/rollback() (protocol v5 kPromote /
// kRollback); double-promotes and rollback-after-promote are rejected
// with structured errors. One rollout runs at a time; a finished one
// (promoted or rolled back) leaves its report readable until the next
// begin().
//
// Client-latency discipline: shadowing adds one promise hop, never a
// wait on green — the comparator fulfills the client's future the
// moment blue's result lands, then waits for green to compare. A full
// compare queue skips shadowing (counted) rather than blocking the
// submit path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "nn/tensor.h"
#include "serve/micro_batcher.h"
#include "serve/protocol.h"

namespace qsnc::serve {

class ServeCore;

struct RolloutOptions {
  /// Fraction of non-canary blue traffic duplicated to green while
  /// shadowing (deterministic fixed-point sampling, no RNG). 1.0 shadows
  /// everything. kCanary-class requests always shadow (the priority class
  /// exists to probe — see serve/admission.h).
  double shadow_fraction = 0.25;
  /// Compared prediction pairs required before an auto-promote.
  int observe_requests = 32;
  /// diverged/compared above this ratio rolls back (0 = any divergence).
  double max_divergence = 0.0;
  /// Don't judge the divergence ratio before this many comparisons.
  int min_compared_for_rollback = 8;
  /// Clean canary-battery passes required before an auto-promote.
  int canary_rounds = 1;
  int canary_images = 4;
  int64_t canary_interval_ms = 20;
  /// Off = observation only; promote/rollback wait for the operator.
  bool auto_decide = true;
  /// Bounded comparator queue; a full queue skips shadowing (counted in
  /// the report) instead of blocking the submit path.
  int compare_queue_capacity = 256;
};

enum class RolloutState : uint8_t {
  kIdle = 0,        // no rollout has run
  kShadow = 1,      // green mirroring traffic, decision pending
  kPromoted = 2,    // green is the active version now
  kRolledBack = 3,  // green quarantined, blue kept
};

const char* rollout_state_name(RolloutState state);

/// Point-in-time rollout counters (the structured report behind
/// kRolloutStatus and the serve stats appendix).
struct RolloutReport {
  RolloutState state = RolloutState::kIdle;
  std::string base;
  std::string blue;   // active version when the rollout began
  std::string green;  // candidate version
  uint64_t compared = 0;      // pairs where both predictions were kOk
  uint64_t agreed = 0;
  uint64_t diverged = 0;
  uint64_t incomparable = 0;  // pairs with a non-kOk side (not divergence)
  uint64_t shadow_skipped = 0;  // sampled out or comparator queue full
  uint64_t canary_rounds_ok = 0;
  uint64_t canary_diverged = 0;
  std::string reason;  // decision reason (promote/rollback)
};

class RolloutController {
 public:
  /// `core` must outlive the controller. The worker thread starts idle
  /// and only ticks while a rollout is shadowing.
  RolloutController(ServeCore& core, const RolloutOptions& options);
  ~RolloutController();  // drains
  RolloutController(const RolloutController&) = delete;
  RolloutController& operator=(const RolloutController&) = delete;

  /// Starts shadowing `green_key` (a registered standby version) against
  /// its base's active version. Structured failure (ok=false) when a
  /// rollout is already shadowing, the key is unknown/active/quarantined,
  /// or the input shapes disagree.
  RolloutReply begin(const std::string& green_key);

  /// Operator overrides. `name` may be the green key, the base, or empty
  /// (the current rollout); anything else is a structured error, as are
  /// double-promotes and rollback-after-promote.
  RolloutReply promote(const std::string& name);
  RolloutReply rollback(const std::string& name, const std::string& reason);

  /// Shadow hook on the serving hot path: when `resolved_key` is the
  /// shadowed blue version and the sampler takes this request, submits
  /// to both versions and returns the client future (fulfilled from
  /// blue). Returns nullopt — leaving `image` untouched — when not
  /// shadowing, so the caller submits normally.
  std::optional<std::future<Response>> maybe_shadow(
      const std::string& resolved_key, nn::Tensor& image,
      uint64_t deadline_us, Priority priority);

  RolloutReport report() const;
  /// Rendered report ("" while kIdle) for kRolloutStatus and the stats
  /// appendix. `name` filters by base or green key; empty matches.
  std::string status_text(const std::string& name = std::string()) const;

  /// Stops the worker after fulfilling every queued client promise.
  /// Idempotent; called by ServeCore::drain.
  void drain();

 private:
  struct CompareJob {
    std::promise<Response> client;
    std::future<Response> blue;
    std::future<Response> green;
  };

  void loop();
  void process_job(CompareJob& job);
  void run_canary_round(const std::string& blue_key,
                        const std::string& green_key);
  /// Auto promote/rollback once the evidence is in. Callers hold mu_.
  void evaluate_locked();
  void promote_locked(const std::string& reason);
  void rollback_locked(const std::string& reason);
  bool sample_shadow(Priority priority);
  RolloutReport report_locked() const;  // callers hold mu_

  ServeCore& core_;
  RolloutOptions options_;

  mutable std::mutex mu_;
  RolloutState state_ = RolloutState::kIdle;
  std::string base_;
  std::string blue_;
  std::string green_;
  std::string reason_;
  uint64_t compared_ = 0;
  uint64_t agreed_ = 0;
  uint64_t diverged_ = 0;
  uint64_t incomparable_ = 0;
  uint64_t shadow_skipped_ = 0;
  uint64_t canary_rounds_ok_ = 0;
  uint64_t canary_diverged_ = 0;

  /// Hot-path gate: one relaxed load decides "no rollout, submit
  /// normally" without touching mu_.
  std::atomic<bool> shadow_active_{false};
  std::atomic<uint64_t> sample_counter_{0};

  std::mutex queue_mu_;
  std::condition_variable cv_;
  std::deque<CompareJob> queue_;
  bool stopping_ = false;
  std::mutex join_mu_;  // serializes concurrent drain() calls
  std::thread worker_;
};

}  // namespace qsnc::serve
