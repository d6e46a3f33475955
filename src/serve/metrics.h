// Serving observability: latency histograms and per-model counters.
//
// The serving hot path records one latency sample per completed request
// (enqueue -> response) into a log2-bucketed histogram, so percentile
// queries are O(buckets) and recording is O(1) under a short lock. The
// buckets cover [1 us, ~2^62 us); percentiles interpolate linearly inside
// the winning bucket, which bounds the error at a factor-of-2 bucket width
// — plenty for p50/p95/p99 dashboards, and it never allocates.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/admission.h"

namespace qsnc::serve {

/// Log2-bucketed latency histogram over microseconds.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void record(uint64_t micros);

  uint64_t max_us() const;
  double mean_us() const;

  /// Approximate percentile in microseconds, p in [0, 100]. Returns 0 when
  /// empty. Interpolates by rank inside the log2 bucket, narrowed to the
  /// observed minimum and maximum; error is bounded by the bucket width.
  uint64_t percentile_us(double p) const;

 private:
  static constexpr int kBuckets = 63;
  static int bucket_of(uint64_t micros);

  mutable std::mutex mu_;
  uint64_t buckets_[kBuckets];
  uint64_t count_ = 0;
  uint64_t min_us_ = UINT64_MAX;
  uint64_t max_us_ = 0;
  double sum_us_ = 0.0;
};

/// Point-in-time view of one model's serving counters.
struct ModelStatsSnapshot {
  std::string model;
  std::string backend;
  uint64_t completed = 0;
  uint64_t rejected = 0;   // backpressure rejections
  uint64_t errors = 0;     // backend exceptions / shape mismatches
  uint64_t deadline_exceeded = 0;  // expired before execution
  uint64_t degraded = 0;   // requests served in a degraded backend mode
  uint64_t shed = 0;       // overload sheds (CoDel + concurrency limit)
  uint64_t breaker_shed = 0;  // fast fails while the breaker was open
  CircuitBreaker::State breaker_state = CircuitBreaker::State::kClosed;
  uint64_t batches = 0;    // backend invocations
  double mean_batch = 0.0; // completed / batches
  double qps = 0.0;        // completed / seconds since first completion
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;
  uint64_t max_us = 0;
  double mean_us = 0.0;
  size_t queue_depth = 0;  // filled by the owner at snapshot time
};

/// Counters for one served model. Thread-safe; owned by the MicroBatcher.
class ModelMetrics {
 public:
  void on_complete(uint64_t latency_us);
  void on_reject();
  void on_error();
  void on_deadline_exceeded();
  void on_degraded();
  void on_shed();
  void on_breaker_shed();
  void on_batch(size_t batch_size);

  /// Snapshot with the latency percentiles filled in. `model`/`backend`
  /// and `queue_depth` are the caller's to set.
  ModelStatsSnapshot snapshot() const;

 private:
  using Clock = std::chrono::steady_clock;

  LatencyHistogram latency_;
  mutable std::mutex mu_;
  uint64_t completed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t errors_ = 0;
  uint64_t deadline_exceeded_ = 0;
  uint64_t degraded_ = 0;
  uint64_t shed_ = 0;
  uint64_t breaker_shed_ = 0;
  uint64_t batches_ = 0;
  bool saw_first_ = false;
  Clock::time_point first_;
  Clock::time_point last_;
};

/// Renders snapshots as an aligned table (report::Table layout).
std::string render_stats(const std::vector<ModelStatsSnapshot>& stats);

}  // namespace qsnc::serve
