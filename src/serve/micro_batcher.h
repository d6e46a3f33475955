// Dynamic micro-batching over bounded per-priority request queues, with
// admission control, CoDel-style shedding, and a per-backend circuit
// breaker.
//
// Producers (socket connection handlers, in-process clients, load
// generators) submit single images; one batcher thread per model coalesces
// them into backend calls:
//
//   submit() --> [per-priority bounded queues] --> batcher --> infer_batch
//
// Coalescing rule: a batch window opens when the oldest queued request
// arrives; it closes when either `max_batch` requests are collected or
// `batch_timeout_us` has elapsed since that arrival, whichever comes
// first. A request that waited out its window behind a running batch is
// batched as soon as the batcher is free. Batch formation drains highest-priority-first (FIFO within a
// class), so interactive traffic rides ahead of batch traffic under load.
//
// Backpressure ladder (every rung is a structured response, never a drop):
//   1. circuit breaker open  -> kShedded at submit (fast fail; the hint is
//      the time until the half-open probe).
//   2. concurrency limit     -> kShedded at submit.
//   3. queue full            -> kRejected at submit with a retry_after_us
//      hint derived from the observed batch latency and current depth.
//   4. sustained queue delay -> CoDel-style shedding at batch formation:
//      when the oldest request's wait exceeds admission.delay_target_us
//      continuously for delay_window_us, the queue is trimmed to what one
//      target's worth of batches can serve, lowest-priority-first
//      (see serve/admission.h), resolving the trimmed requests kShedded.
//   5. per-request deadline  -> kDeadlineExceeded at batch formation.
//
// Shutdown: drain() stops admission (further submits complete with
// kShutdown), processes every request already accepted, then joins the
// batcher thread — zero accepted requests are ever dropped. The destructor
// drains implicitly.
//
// Chaos hooks (options.chaos, off when null): queue latency spikes before
// a batch executes, injected backend errors (which feed the circuit
// breaker like real ones) and backend latency spikes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nn/tensor.h"
#include "serve/admission.h"
#include "serve/backend.h"
#include "serve/chaos.h"
#include "serve/metrics.h"

namespace qsnc::serve {

struct BatchOptions {
  int max_batch = 8;
  int64_t batch_timeout_us = 2000;
  int queue_capacity = 256;
  /// Overload protection; all-zero defaults mean "off" (historical
  /// behavior: only queue_capacity backpressure).
  AdmissionOptions admission;
  /// Fault injector for the queue/backend hook points; not owned, may be
  /// null (no chaos). Must outlive the batcher.
  ChaosInjector* chaos = nullptr;
};

enum class Status : uint8_t {
  kOk = 0,
  kRejected = 1,  // bounded queue full; retry after retry_after_us
  kShutdown = 2,  // server draining; request was not accepted
  kError = 3,     // bad shape, unknown model, or backend failure
  kDeadlineExceeded = 4,  // per-request deadline expired before execution
  kShedded = 5,   // overload shed (CoDel / concurrency / open breaker)
};

const char* status_name(Status status);

struct Response {
  Status status = Status::kError;
  int64_t prediction = -1;
  uint64_t latency_us = 0;     // enqueue -> completion (kOk only)
  uint64_t retry_after_us = 0; // backpressure hint (kRejected / kShedded)
  uint32_t batch_size = 0;     // size of the batch this request rode in
  /// True when the batch was served in a degraded backend mode (e.g. the
  /// snc backend's quant fallback after replica quarantines).
  bool degraded = false;
  std::string error;           // human-readable detail (kError only)
};

class MicroBatcher {
 public:
  /// Starts the batcher thread. `backend` must outlive the batcher and is
  /// called only from that thread.
  MicroBatcher(Backend& backend, const BatchOptions& options);
  ~MicroBatcher();  // drains
  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues one [C, H, W] image. Never blocks: the returned future is
  /// resolved by the batcher thread (kOk / kError / kShedded /
  /// kDeadlineExceeded), or immediately on rejection (kRejected /
  /// kShedded / kShutdown / shape kError).
  ///
  /// `deadline_us` > 0 is a per-request latency budget measured from
  /// enqueue: a request still queued when its budget expires is resolved
  /// with kDeadlineExceeded at batch-formation time instead of being
  /// executed. 0 means no deadline.
  ///
  /// `priority` orders both service (higher classes batch first) and
  /// shedding (lower classes shed first); see serve/admission.h.
  std::future<Response> submit(nn::Tensor image, uint64_t deadline_us = 0,
                               Priority priority = Priority::kInteractive);

  /// Stops admission, completes all accepted requests, joins the thread.
  /// Idempotent.
  void drain();

  size_t queue_depth() const;
  const BatchOptions& options() const { return options_; }
  CircuitBreaker::State breaker_state() const { return breaker_.state(); }

  /// Counters + latency percentiles; queue_depth is filled in.
  ModelStatsSnapshot stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    nn::Tensor image;
    std::promise<Response> promise;
    Clock::time_point enqueued;
    uint64_t deadline_us = 0;  // latency budget from enqueue; 0 = none
    Priority priority = Priority::kInteractive;
  };

  void loop();
  void execute(std::vector<Pending>& batch);
  uint64_t retry_hint_us(size_t depth) const;
  size_t total_queued() const;  // callers hold mu_
  /// Arrival of the oldest queued request (time_point::max() when every
  /// queue is empty); callers hold mu_.
  Clock::time_point oldest_enqueued() const;
  /// Queue depth serveable within one delay target at the observed batch
  /// cadence (>= one max_batch so shedding never starves the server).
  int64_t allowed_depth() const;
  static int64_t to_us(Clock::time_point t);

  Backend& backend_;
  BatchOptions options_;
  ModelMetrics metrics_;
  CircuitBreaker breaker_;
  std::atomic<uint64_t> ema_batch_us_;
  std::atomic<int64_t> in_flight_{0};  // queued + executing

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_[kNumPriorities];  // index = Priority value
  bool stopping_ = false;
  // CoDel state (batcher thread only): when the oldest queued request's
  // wait first went above the delay target, and whether shedding is on.
  bool above_target_ = false;
  Clock::time_point above_since_{};
  bool shedding_ = false;
  std::mutex join_mu_;  // serializes concurrent drain() calls
  std::thread worker_;
};

}  // namespace qsnc::serve
