#include "serve/metrics.h"

#include <algorithm>
#include <cstring>

#include "report/table.h"

namespace qsnc::serve {

LatencyHistogram::LatencyHistogram() {
  std::memset(buckets_, 0, sizeof(buckets_));
}

int LatencyHistogram::bucket_of(uint64_t micros) {
  // Bucket i holds samples in [2^i, 2^{i+1}) us; bucket 0 also takes 0.
  int b = 0;
  while (micros > 1 && b < kBuckets - 1) {
    micros >>= 1;
    ++b;
  }
  return b;
}

void LatencyHistogram::record(uint64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  ++buckets_[bucket_of(micros)];
  ++count_;
  min_us_ = std::min(min_us_, micros);
  max_us_ = std::max(max_us_, micros);
  sum_us_ += static_cast<double>(micros);
}

uint64_t LatencyHistogram::max_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_us_;
}

double LatencyHistogram::mean_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ > 0 ? sum_us_ / static_cast<double>(count_) : 0.0;
}

uint64_t LatencyHistogram::percentile_us(double p) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const uint64_t before = seen;
    seen += buckets_[b];
    if (static_cast<double>(seen) >= target) {
      // Linear interpolation by rank inside the bucket's range narrowed to
      // the observed samples, [max(lo, min), min(hi, max + 1)): a spread
      // inside one power-of-two band still reads p50 < p99 <= max.
      const uint64_t lo =
          std::max(b == 0 ? uint64_t{0} : (uint64_t{1} << b), min_us_);
      const uint64_t hi = std::min(uint64_t{1} << (b + 1), max_us_ + 1);
      const double frac =
          (target - static_cast<double>(before)) /
          static_cast<double>(buckets_[b]);
      const uint64_t v =
          lo + static_cast<uint64_t>(frac * static_cast<double>(hi - lo));
      return std::min(v, max_us_);
    }
  }
  return max_us_;
}

void ModelMetrics::on_complete(uint64_t latency_us) {
  latency_.record(latency_us);
  std::lock_guard<std::mutex> lock(mu_);
  ++completed_;
  const Clock::time_point now = Clock::now();
  if (!saw_first_) {
    saw_first_ = true;
    first_ = now;
  }
  last_ = now;
}

void ModelMetrics::on_reject() {
  std::lock_guard<std::mutex> lock(mu_);
  ++rejected_;
}

void ModelMetrics::on_error() {
  std::lock_guard<std::mutex> lock(mu_);
  ++errors_;
}

void ModelMetrics::on_deadline_exceeded() {
  std::lock_guard<std::mutex> lock(mu_);
  ++deadline_exceeded_;
}

void ModelMetrics::on_degraded() {
  std::lock_guard<std::mutex> lock(mu_);
  ++degraded_;
}

void ModelMetrics::on_shed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++shed_;
}

void ModelMetrics::on_breaker_shed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++breaker_shed_;
}

void ModelMetrics::on_batch(size_t batch_size) {
  std::lock_guard<std::mutex> lock(mu_);
  ++batches_;
  (void)batch_size;
}

ModelStatsSnapshot ModelMetrics::snapshot() const {
  ModelStatsSnapshot s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.completed = completed_;
    s.rejected = rejected_;
    s.errors = errors_;
    s.deadline_exceeded = deadline_exceeded_;
    s.degraded = degraded_;
    s.shed = shed_;
    s.breaker_shed = breaker_shed_;
    s.batches = batches_;
    s.mean_batch = batches_ > 0 ? static_cast<double>(completed_) /
                                      static_cast<double>(batches_)
                                : 0.0;
    if (saw_first_ && last_ > first_) {
      const double secs =
          std::chrono::duration<double>(last_ - first_).count();
      s.qps = secs > 0.0 ? static_cast<double>(completed_) / secs : 0.0;
    }
  }
  s.p50_us = latency_.percentile_us(50.0);
  s.p95_us = latency_.percentile_us(95.0);
  s.p99_us = latency_.percentile_us(99.0);
  s.max_us = latency_.max_us();
  s.mean_us = latency_.mean_us();
  return s;
}

std::string render_stats(const std::vector<ModelStatsSnapshot>& stats) {
  report::Table t({"model", "backend", "ok", "rej", "err", "ddl", "degr",
                   "shed", "brk", "batches", "avg batch", "QPS", "p50 us",
                   "p95 us", "p99 us", "max us", "queue"});
  for (const ModelStatsSnapshot& s : stats) {
    t.add_row({s.model, s.backend, std::to_string(s.completed),
               std::to_string(s.rejected), std::to_string(s.errors),
               std::to_string(s.deadline_exceeded),
               std::to_string(s.degraded), std::to_string(s.shed),
               std::to_string(s.breaker_shed),
               std::to_string(s.batches), report::fmt(s.mean_batch, 2),
               report::fmt(s.qps, 1), std::to_string(s.p50_us),
               std::to_string(s.p95_us), std::to_string(s.p99_us),
               std::to_string(s.max_us), std::to_string(s.queue_depth)});
  }
  return t.to_string();
}

}  // namespace qsnc::serve
