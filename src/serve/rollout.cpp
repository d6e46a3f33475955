#include "serve/rollout.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "nn/rng.h"
#include "serve/server.h"

namespace qsnc::serve {

namespace {

// Seed of the canary battery's fixed images (the same every round).
constexpr uint64_t kCanarySeed = 0x5ca7ab1e;

std::string percent(uint64_t part, uint64_t whole) {
  if (whole == 0) return "-";
  std::ostringstream out;
  out.precision(1);
  out << std::fixed << (100.0 * static_cast<double>(part) /
                        static_cast<double>(whole))
      << '%';
  return out.str();
}

}  // namespace

const char* rollout_state_name(RolloutState state) {
  switch (state) {
    case RolloutState::kIdle: return "idle";
    case RolloutState::kShadow: return "shadow";
    case RolloutState::kPromoted: return "promoted";
    case RolloutState::kRolledBack: return "rolled-back";
  }
  return "?";
}

RolloutController::RolloutController(ServeCore& core,
                                     const RolloutOptions& options)
    : core_(core), options_(options) {
  if (options_.compare_queue_capacity < 1) options_.compare_queue_capacity = 1;
  if (options_.canary_images < 1) options_.canary_images = 1;
  if (options_.canary_interval_ms < 1) options_.canary_interval_ms = 1;
  worker_ = std::thread([this] { loop(); });
}

RolloutController::~RolloutController() { drain(); }

RolloutReply RolloutController::begin(const std::string& green_key) {
  const ModelRegistry& registry = core_.registry();
  const std::string resolved = registry.resolve(green_key);
  if (resolved.empty()) {
    return {false, "rollout: unknown version '" + green_key + "'"};
  }
  const auto [base, version] = split_versioned_name(resolved);
  (void)version;
  const std::string blue = registry.active_key(base);
  if (blue.empty()) {
    return {false, "rollout: base '" + base + "' has no active version"};
  }
  if (blue == resolved) {
    return {false, "rollout: '" + resolved +
                       "' is already the active version of '" + base + "'"};
  }
  VersionState state = registry.state(resolved);
  if (state == VersionState::kQuarantined) {
    return {false, "rollout: '" + resolved +
                       "' is quarantined; load a new version instead"};
  }
  if (!(registry.input_shape(resolved) == registry.input_shape(blue))) {
    return {false, "rollout: input shape of '" + resolved +
                       "' does not match active '" + blue + "'"};
  }

  std::lock_guard<std::mutex> lk(mu_);
  if (state_ == RolloutState::kShadow) {
    return {false, "rollout: '" + green_key + "' rejected; rollout of '" +
                       green_ +
                       "' is still in progress (promote or rollback first)"};
  }
  base_ = base;
  blue_ = blue;
  green_ = resolved;
  reason_.clear();
  compared_ = agreed_ = diverged_ = incomparable_ = 0;
  shadow_skipped_ = canary_rounds_ok_ = canary_diverged_ = 0;
  state_ = RolloutState::kShadow;
  core_.registry().set_state(resolved, VersionState::kShadow);
  shadow_active_.store(true, std::memory_order_release);
  cv_.notify_all();  // wake the worker into its canary cadence
  return {true, "rollout: shadowing " + resolved + " against " + blue};
}

RolloutReply RolloutController::promote(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!name.empty() && name != green_ && name != base_ && name != blue_) {
    return {false, "rollout: no rollout for '" + name + "'"};
  }
  switch (state_) {
    case RolloutState::kIdle:
      return {false, "rollout: nothing to promote (no rollout started)"};
    case RolloutState::kPromoted:
      return {false, "rollout: '" + green_ +
                         "' is already promoted (double-promote rejected)"};
    case RolloutState::kRolledBack:
      return {false, "rollout: '" + green_ + "' was rolled back (" + reason_ +
                         "); load a new version instead"};
    case RolloutState::kShadow: break;
  }
  promote_locked("operator promote");
  return {true, "rollout: promoted " + green_ + " (now active for '" + base_ +
                    "'); " + blue_ + " demoted to standby"};
}

RolloutReply RolloutController::rollback(const std::string& name,
                                         const std::string& reason) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!name.empty() && name != green_ && name != base_ && name != blue_) {
    return {false, "rollout: no rollout for '" + name + "'"};
  }
  switch (state_) {
    case RolloutState::kIdle:
      return {false, "rollout: nothing to roll back (no rollout started)"};
    case RolloutState::kPromoted:
      return {false,
              "rollout: '" + green_ +
                  "' was already promoted; rollback-after-promote is "
                  "rejected — load a new version to roll forward"};
    case RolloutState::kRolledBack:
      return {false, "rollout: '" + green_ + "' is already rolled back (" +
                         reason_ + ")"};
    case RolloutState::kShadow: break;
  }
  rollback_locked(reason.empty() ? "operator rollback" : reason);
  return {true, "rollout: rolled back " + green_ + " (" + reason_ +
                    "); quarantined, " + blue_ + " keeps serving"};
}

std::optional<std::future<Response>> RolloutController::maybe_shadow(
    const std::string& resolved_key, nn::Tensor& image, uint64_t deadline_us,
    Priority priority) {
  if (!shadow_active_.load(std::memory_order_acquire)) return std::nullopt;

  std::string blue;
  std::string green;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (state_ != RolloutState::kShadow || resolved_key != blue_) {
      return std::nullopt;
    }
    if (!sample_shadow(priority)) {
      ++shadow_skipped_;
      return std::nullopt;
    }
    blue = blue_;
    green = green_;
  }

  CompareJob job;
  std::future<Response> client = job.client.get_future();
  // Green gets its copy first so the move below cannot race the copy.
  nn::Tensor copy = image;
  job.blue = core_.submit_to(blue, std::move(image), deadline_us, priority);
  job.green =
      core_.submit_to(green, std::move(copy), deadline_us, priority);
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (stopping_ ||
        queue_.size() >=
            static_cast<size_t>(options_.compare_queue_capacity)) {
      // Comparator saturated: answer from blue directly, skip the compare.
      std::lock_guard<std::mutex> lk2(mu_);
      ++shadow_skipped_;
      return std::optional<std::future<Response>>(std::move(job.blue));
    }
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
  return std::optional<std::future<Response>>(std::move(client));
}

RolloutReport RolloutController::report() const {
  std::lock_guard<std::mutex> lk(mu_);
  return report_locked();
}

RolloutReport RolloutController::report_locked() const {
  RolloutReport r;
  r.state = state_;
  r.base = base_;
  r.blue = blue_;
  r.green = green_;
  r.compared = compared_;
  r.agreed = agreed_;
  r.diverged = diverged_;
  r.incomparable = incomparable_;
  r.shadow_skipped = shadow_skipped_;
  r.canary_rounds_ok = canary_rounds_ok_;
  r.canary_diverged = canary_diverged_;
  r.reason = reason_;
  return r;
}

std::string RolloutController::status_text(const std::string& name) const {
  const RolloutReport r = report();
  if (r.state == RolloutState::kIdle) return "";
  if (!name.empty() && name != r.base && name != r.green && name != r.blue) {
    return "";
  }
  std::ostringstream out;
  out << "rollout " << r.base << ": " << rollout_state_name(r.state)
      << " blue=" << r.blue << " green=" << r.green << "\n"
      << "  shadow: compared " << r.compared << " (agreed " << r.agreed
      << ", diverged " << r.diverged << " = "
      << percent(r.diverged, r.compared) << ", incomparable "
      << r.incomparable << ", skipped " << r.shadow_skipped << ")\n"
      << "  canary: " << r.canary_rounds_ok << " clean rounds, "
      << r.canary_diverged << " diverged\n"
      << "  reason: " << (r.reason.empty() ? "-" : r.reason) << "\n";
  return out.str();
}

void RolloutController::drain() {
  std::lock_guard<std::mutex> join(join_mu_);
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    stopping_ = true;
  }
  shadow_active_.store(false, std::memory_order_release);
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  // Flush whatever the worker left: every queued client still gets blue's
  // answer (the batchers resolve all accepted futures on drain).
  std::deque<CompareJob> leftover;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    leftover.swap(queue_);
  }
  for (CompareJob& job : leftover) {
    job.client.set_value(job.blue.get());
  }
}

void RolloutController::loop() {
  const auto interval = std::chrono::milliseconds(options_.canary_interval_ms);
  auto next_canary = std::chrono::steady_clock::now() + interval;
  for (;;) {
    std::deque<CompareJob> batch;
    bool shadowing = false;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      {
        std::lock_guard<std::mutex> state_lk(mu_);
        shadowing = state_ == RolloutState::kShadow;
      }
      if (shadowing) {
        cv_.wait_until(lk, next_canary,
                       [this] { return stopping_ || !queue_.empty(); });
      } else {
        cv_.wait(lk, [this, &shadowing] {
          if (stopping_ || !queue_.empty()) return true;
          std::lock_guard<std::mutex> state_lk(mu_);
          shadowing = state_ == RolloutState::kShadow;
          return shadowing;
        });
        next_canary = std::chrono::steady_clock::now() + interval;
      }
      if (stopping_) return;
      batch.swap(queue_);
    }
    for (CompareJob& job : batch) process_job(job);

    if (shadowing && std::chrono::steady_clock::now() >= next_canary) {
      std::string blue;
      std::string green;
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (state_ == RolloutState::kShadow) {
          blue = blue_;
          green = green_;
        }
      }
      if (!blue.empty()) run_canary_round(blue, green);
      next_canary = std::chrono::steady_clock::now() + interval;
    }
  }
}

void RolloutController::process_job(CompareJob& job) {
  const Response blue = job.blue.get();
  // The client is answered the instant blue lands; green's (possibly
  // slower) result only feeds the comparison.
  job.client.set_value(blue);
  const Response green = job.green.get();

  std::lock_guard<std::mutex> lk(mu_);
  if (state_ != RolloutState::kShadow) return;  // decision already made
  if (blue.status == Status::kOk && green.status == Status::kOk) {
    ++compared_;
    if (blue.prediction == green.prediction) {
      ++agreed_;
    } else {
      ++diverged_;
    }
  } else {
    ++incomparable_;
  }
  evaluate_locked();
}

void RolloutController::run_canary_round(const std::string& blue_key,
                                         const std::string& green_key) {
  // The replica-health idiom one level up: a fixed battery of
  // deterministic images (same seed every round) asked of both versions
  // at kCanary priority, off the client path entirely.
  nn::Shape shape;
  try {
    shape = core_.registry().input_shape(blue_key);
  } catch (const std::exception&) {
    return;  // registry changed under us; next round re-reads
  }
  nn::Rng rng(kCanarySeed);
  std::vector<std::pair<std::future<Response>, std::future<Response>>> pairs;
  pairs.reserve(static_cast<size_t>(options_.canary_images));
  for (int i = 0; i < options_.canary_images; ++i) {
    nn::Tensor image(shape);
    for (int64_t j = 0; j < image.numel(); ++j) image[j] = rng.uniform();
    nn::Tensor copy = image;
    auto fb = core_.submit_to(blue_key, std::move(image), /*deadline_us=*/0,
                              Priority::kCanary);
    auto fg = core_.submit_to(green_key, std::move(copy), /*deadline_us=*/0,
                              Priority::kCanary);
    pairs.emplace_back(std::move(fb), std::move(fg));
  }
  uint64_t round_compared = 0;
  uint64_t round_diverged = 0;
  uint64_t round_incomparable = 0;
  for (auto& [fb, fg] : pairs) {
    const Response blue = fb.get();
    const Response green = fg.get();
    if (blue.status == Status::kOk && green.status == Status::kOk) {
      ++round_compared;
      if (blue.prediction != green.prediction) ++round_diverged;
    } else {
      ++round_incomparable;
    }
  }

  std::lock_guard<std::mutex> lk(mu_);
  if (state_ != RolloutState::kShadow) return;
  canary_diverged_ += round_diverged;
  // A round only counts as clean when every image compared and agreed —
  // a shed or deadline-hit battery tells us nothing about green.
  if (round_diverged == 0 && round_incomparable == 0 && round_compared > 0) {
    ++canary_rounds_ok_;
  }
  evaluate_locked();
}

void RolloutController::evaluate_locked() {
  if (!options_.auto_decide || state_ != RolloutState::kShadow) return;
  if (canary_diverged_ > 0) {
    rollback_locked("canary battery diverged (" +
                    std::to_string(canary_diverged_) +
                    " image(s) predicted differently on " + green_ + ")");
    return;
  }
  const double ratio =
      compared_ == 0 ? 0.0
                     : static_cast<double>(diverged_) /
                           static_cast<double>(compared_);
  if (compared_ >= static_cast<uint64_t>(options_.min_compared_for_rollback) &&
      ratio > options_.max_divergence) {
    rollback_locked("shadow divergence " + std::to_string(diverged_) + "/" +
                    std::to_string(compared_) + " above threshold");
    return;
  }
  if (compared_ >= static_cast<uint64_t>(options_.observe_requests) &&
      canary_rounds_ok_ >= static_cast<uint64_t>(options_.canary_rounds) &&
      ratio <= options_.max_divergence) {
    promote_locked("auto-promoted: " + std::to_string(agreed_) + "/" +
                   std::to_string(compared_) + " agreed, " +
                   std::to_string(canary_rounds_ok_) +
                   " clean canary round(s)");
  }
}

void RolloutController::promote_locked(const std::string& reason) {
  core_.registry().set_active(base_, green_);  // demotes blue to standby
  core_.journal_promote(base_, green_);
  state_ = RolloutState::kPromoted;
  reason_ = reason;
  shadow_active_.store(false, std::memory_order_release);
}

void RolloutController::rollback_locked(const std::string& reason) {
  core_.registry().set_state(green_, VersionState::kQuarantined);
  core_.journal_rollback(green_, reason);
  state_ = RolloutState::kRolledBack;
  reason_ = reason;
  shadow_active_.store(false, std::memory_order_release);
}

bool RolloutController::sample_shadow(Priority priority) {
  if (priority == Priority::kCanary) return true;
  const double f = options_.shadow_fraction;
  if (f <= 0.0) return false;
  if (f >= 1.0) return true;
  // Deterministic fixed-point sampling: request n is taken exactly when
  // floor((n+1)*f) advances past floor(n*f) — no RNG, exact long-run rate.
  const uint64_t n = sample_counter_.fetch_add(1, std::memory_order_relaxed);
  return static_cast<uint64_t>(static_cast<double>(n + 1) * f) !=
         static_cast<uint64_t>(static_cast<double>(n) * f);
}

}  // namespace qsnc::serve
