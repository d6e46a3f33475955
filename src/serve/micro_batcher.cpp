#include "serve/micro_batcher.h"

#include <algorithm>
#include <exception>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace qsnc::serve {

const char* status_name(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kRejected: return "rejected";
    case Status::kShutdown: return "shutdown";
    case Status::kError: return "error";
    case Status::kDeadlineExceeded: return "deadline_exceeded";
    case Status::kShedded: return "shedded";
  }
  return "?";
}

MicroBatcher::MicroBatcher(Backend& backend, const BatchOptions& options)
    : backend_(backend), options_(options),
      breaker_(options.admission.breaker_threshold,
               options.admission.breaker_open_us),
      ema_batch_us_(static_cast<uint64_t>(
          std::max<int64_t>(options.batch_timeout_us, 1))) {
  if (options_.max_batch < 1 || options_.queue_capacity < 1 ||
      options_.batch_timeout_us < 0) {
    throw std::invalid_argument(
        "MicroBatcher: max_batch and queue_capacity must be >= 1, "
        "batch_timeout_us >= 0");
  }
  worker_ = std::thread([this] { loop(); });
}

MicroBatcher::~MicroBatcher() { drain(); }

int64_t MicroBatcher::to_us(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t.time_since_epoch())
      .count();
}

uint64_t MicroBatcher::retry_hint_us(size_t depth) const {
  // Time to drain `depth` queued requests at the observed batch cadence,
  // plus one batch window for the retry itself.
  const uint64_t batches_ahead =
      depth / static_cast<size_t>(options_.max_batch) + 1;
  return batches_ahead * ema_batch_us_.load(std::memory_order_relaxed) +
         static_cast<uint64_t>(options_.batch_timeout_us);
}

size_t MicroBatcher::total_queued() const {
  size_t total = 0;
  for (int c = 0; c < kNumPriorities; ++c) total += queue_[c].size();
  return total;
}

int64_t MicroBatcher::allowed_depth() const {
  const uint64_t ema =
      std::max<uint64_t>(ema_batch_us_.load(std::memory_order_relaxed), 1);
  const int64_t batches_within_target =
      options_.admission.delay_target_us / static_cast<int64_t>(ema);
  return std::max<int64_t>(options_.max_batch,
                           batches_within_target * options_.max_batch);
}

std::future<Response> MicroBatcher::submit(nn::Tensor image,
                                           uint64_t deadline_us,
                                           Priority priority) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();

  const nn::Shape& chw = backend_.input_shape();
  if (image.shape() != chw) {
    metrics_.on_error();
    Response r;
    r.status = Status::kError;
    r.error = "image shape " + nn::shape_to_string(image.shape()) +
              " does not match model input " + nn::shape_to_string(chw);
    promise.set_value(std::move(r));
    return future;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      Response r;
      r.status = Status::kShutdown;
      r.error = "server draining";
      promise.set_value(std::move(r));
      return future;
    }
    const size_t depth = total_queued();
    const AdmissionOptions& adm = options_.admission;
    if (adm.max_concurrency > 0 &&
        in_flight_.load(std::memory_order_relaxed) >= adm.max_concurrency) {
      metrics_.on_shed();
      Response r;
      r.status = Status::kShedded;
      r.retry_after_us = retry_hint_us(depth);
      r.error = "admission: concurrency limit (" +
                std::to_string(adm.max_concurrency) + ") reached";
      promise.set_value(std::move(r));
      return future;
    }
    if (depth >= static_cast<size_t>(options_.queue_capacity)) {
      metrics_.on_reject();
      Response r;
      r.status = Status::kRejected;
      r.retry_after_us = retry_hint_us(depth);
      r.error = "queue full";
      promise.set_value(std::move(r));
      return future;
    }
    // Breaker last: a fast fail only when the request would otherwise be
    // accepted, so a consumed half-open probe slot is never wasted on a
    // request the queue would have rejected anyway.
    const int64_t now_us = to_us(Clock::now());
    if (!breaker_.allow(now_us)) {
      metrics_.on_breaker_shed();
      Response r;
      r.status = Status::kShedded;
      r.retry_after_us =
          static_cast<uint64_t>(breaker_.retry_after_us(now_us));
      r.error = "circuit breaker open (backend failing)";
      promise.set_value(std::move(r));
      return future;
    }
    Pending p;
    p.image = std::move(image);
    p.promise = std::move(promise);
    p.enqueued = Clock::now();
    p.deadline_us = deadline_us;
    p.priority = priority;
    queue_[static_cast<int>(priority)].push_back(std::move(p));
    in_flight_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
  return future;
}

MicroBatcher::Clock::time_point MicroBatcher::oldest_enqueued() const {
  Clock::time_point oldest = Clock::time_point::max();
  for (int c = 0; c < kNumPriorities; ++c) {
    if (!queue_[c].empty()) {
      oldest = std::min(oldest, queue_[c].front().enqueued);
    }
  }
  return oldest;
}

void MicroBatcher::loop() {
#if defined(__linux__)
  // Linux lets a sleeping thread wake up to 50 us late by default (timer
  // slack), which would stretch every batch window; 1 us keeps the window
  // close to batch_timeout_us. Applies to this thread only.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
#endif
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return stopping_ || total_queued() > 0; });
    if (total_queued() == 0) {
      if (stopping_) return;
      continue;
    }
    // Batch window: it opened when the oldest queued request arrived, so a
    // request that waited out its window behind a running batch goes at
    // once. Wait for more requests up to the window's end, unless the
    // batch fills or the server starts draining (then flush immediately).
    if (total_queued() < static_cast<size_t>(options_.max_batch) &&
        !stopping_ && options_.batch_timeout_us > 0) {
      const Clock::time_point deadline =
          oldest_enqueued() +
          std::chrono::microseconds(options_.batch_timeout_us);
      cv_.wait_until(lock, deadline, [&] {
        return stopping_ ||
               total_queued() >= static_cast<size_t>(options_.max_batch);
      });
    }
    const Clock::time_point now = Clock::now();

    // CoDel-style shed-mode state machine: the controlled signal is the
    // wait of the oldest queued request. Sustained time above the target
    // turns shedding on; any dip below turns it off.
    const AdmissionOptions& adm = options_.admission;
    if (adm.delay_target_us > 0) {
      const Clock::time_point oldest = std::min(now, oldest_enqueued());
      const int64_t delay_us =
          std::chrono::duration_cast<std::chrono::microseconds>(now - oldest)
              .count();
      if (delay_us > adm.delay_target_us) {
        if (!above_target_) {
          above_target_ = true;
          above_since_ = now;
        } else if (now - above_since_ >=
                   std::chrono::microseconds(adm.delay_window_us)) {
          shedding_ = true;
        }
      } else {
        above_target_ = false;
        shedding_ = false;
      }
    }

    // Shed: trim the queues to what one delay target's worth of batches
    // can serve, strictly lowest-priority-first, oldest first within a
    // class. The shed set is a pure function of the queue contents and the
    // observed batch cadence (see serve/admission.h).
    std::vector<Pending> shed;
    if (shedding_) {
      int64_t depths[kNumPriorities];
      int64_t sheds[kNumPriorities];
      for (int c = 0; c < kNumPriorities; ++c) {
        depths[c] = static_cast<int64_t>(queue_[c].size());
      }
      select_sheds(depths, allowed_depth(), sheds);
      for (int c = 0; c < kNumPriorities; ++c) {
        for (int64_t i = 0; i < sheds[c]; ++i) {
          shed.push_back(std::move(queue_[c].front()));
          queue_[c].pop_front();
        }
      }
    }

    // Batch formation: highest priority first, FIFO within a class.
    // Expired requests are resolved with a structured kDeadlineExceeded
    // instead of burning backend time on an answer the client has already
    // given up on; they do not occupy batch slots.
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    for (int c = kNumPriorities - 1; c >= 0; --c) {
      while (!queue_[c].empty() &&
             batch.size() < static_cast<size_t>(options_.max_batch)) {
        Pending p = std::move(queue_[c].front());
        queue_[c].pop_front();
        if (p.deadline_us > 0 &&
            now - p.enqueued >= std::chrono::microseconds(p.deadline_us)) {
          expired.push_back(std::move(p));
        } else {
          batch.push_back(std::move(p));
        }
      }
    }
    const size_t depth_after = total_queued();
    lock.unlock();
    for (Pending& p : shed) {
      metrics_.on_shed();
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      Response r;
      r.status = Status::kShedded;
      r.retry_after_us = retry_hint_us(depth_after);
      r.error = "shed: queue delay over target (priority " +
                std::string(priority_name(p.priority)) + ")";
      p.promise.set_value(std::move(r));
    }
    for (Pending& p : expired) {
      metrics_.on_deadline_exceeded();
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      Response r;
      r.status = Status::kDeadlineExceeded;
      r.latency_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              now - p.enqueued)
              .count());
      r.error = "deadline of " + std::to_string(p.deadline_us) +
                " us expired before execution";
      p.promise.set_value(std::move(r));
    }
    if (batch.empty()) {
      // A round that resolved work without executing anything must not
      // leave a consumed half-open probe slot behind.
      breaker_.release_probe();
    } else {
      if (options_.chaos != nullptr) {
        const uint64_t spike = options_.chaos->queue_spike_us();
        if (spike > 0 && !stopping_) {
          std::this_thread::sleep_for(std::chrono::microseconds(spike));
        }
      }
      execute(batch);
    }
    lock.lock();
  }
}

void MicroBatcher::execute(std::vector<Pending>& batch) {
  const Clock::time_point started = Clock::now();
  const size_t n = batch.size();
  const nn::Shape& chw = backend_.input_shape();
  const int64_t image_numel = chw[0] * chw[1] * chw[2];

  nn::Tensor batched(
      {static_cast<int64_t>(n), chw[0], chw[1], chw[2]});
  for (size_t i = 0; i < n; ++i) {
    const nn::Tensor& img = batch[i].image;
    std::copy(img.data(), img.data() + image_numel,
              batched.data() + static_cast<int64_t>(i) * image_numel);
  }

  metrics_.on_batch(n);
  std::vector<int64_t> predictions;
  std::string error;
  bool degraded = false;
  try {
    if (options_.chaos != nullptr) {
      const uint64_t lat = options_.chaos->backend_latency_us();
      if (lat > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(lat));
      }
      if (options_.chaos->backend_error()) {
        throw std::runtime_error("chaos: injected backend error");
      }
    }
    predictions = backend_.infer_batch(batched);
    degraded = backend_.last_batch_degraded();
    if (predictions.size() != n) {
      error = "backend returned " + std::to_string(predictions.size()) +
              " predictions for a batch of " + std::to_string(n);
    }
  } catch (const std::exception& e) {
    error = e.what();
  }

  const Clock::time_point done = Clock::now();
  // Injected and real backend failures alike count toward the breaker
  // threshold; a served batch closes it from any state.
  if (error.empty()) {
    breaker_.on_success();
  } else {
    breaker_.on_failure(to_us(done));
  }
  const uint64_t batch_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(done - started)
          .count());
  // EMA with alpha = 1/4: smooth enough for a retry hint, adapts in a few
  // batches after a load shift.
  const uint64_t prev = ema_batch_us_.load(std::memory_order_relaxed);
  ema_batch_us_.store(prev - prev / 4 + batch_us / 4,
                      std::memory_order_relaxed);

  for (size_t i = 0; i < n; ++i) {
    Response r;
    if (error.empty()) {
      r.status = Status::kOk;
      r.prediction = predictions[i];
      r.latency_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              done - batch[i].enqueued)
              .count());
      r.batch_size = static_cast<uint32_t>(n);
      r.degraded = degraded;
      metrics_.on_complete(r.latency_us);
      if (degraded) metrics_.on_degraded();
    } else {
      r.status = Status::kError;
      r.error = error;
      r.batch_size = static_cast<uint32_t>(n);
      metrics_.on_error();
    }
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    batch[i].promise.set_value(std::move(r));
  }
}

void MicroBatcher::drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (worker_.joinable()) worker_.join();
}

size_t MicroBatcher::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_queued();
}

ModelStatsSnapshot MicroBatcher::stats() const {
  ModelStatsSnapshot s = metrics_.snapshot();
  s.backend = backend_.kind();
  s.queue_depth = queue_depth();
  s.breaker_state = breaker_.state();
  return s;
}

}  // namespace qsnc::serve
