// MicroBatcher contracts: coalescing, timeout flush, bounded-queue
// backpressure (reject, never block), and drain-then-shutdown with zero
// dropped requests. Uses a gateable fake backend so batch boundaries are
// deterministic regardless of scheduling.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/micro_batcher.h"

namespace qsnc::serve {
namespace {

// Predicts floor(first pixel) and records every batch size. When gated,
// infer_batch blocks until release() — letting tests pile requests into
// the queue behind a known in-flight batch.
class FakeBackend final : public Backend {
 public:
  explicit FakeBackend(bool gated = false) : gated_(gated) {}

  const std::string& kind() const override { return kind_; }
  const nn::Shape& input_shape() const override { return shape_; }

  std::vector<int64_t> infer_batch(const nn::Tensor& batch) override {
    if (gated_) {
      std::unique_lock<std::mutex> lock(mu_);
      ++blocked_batches_;
      cv_blocked_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    const int64_t n = batch.dim(0);
    const int64_t numel = batch.numel() / n;
    std::vector<int64_t> out;
    for (int64_t i = 0; i < n; ++i) {
      out.push_back(static_cast<int64_t>(batch[i * numel]));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch_sizes_.push_back(n);
    }
    return out;
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  /// Blocks until the batcher thread is parked inside infer_batch.
  void wait_until_blocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_blocked_.wait(lock, [&] { return blocked_batches_ > 0; });
  }

  std::vector<int64_t> batch_sizes() {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_sizes_;
  }

 private:
  std::string kind_ = "fake";
  nn::Shape shape_ = {1, 2, 2};
  bool gated_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable cv_blocked_;
  bool open_ = false;
  int blocked_batches_ = 0;
  std::vector<int64_t> batch_sizes_;
};

nn::Tensor image_with_value(float v) {
  nn::Tensor t({1, 2, 2});
  t.fill(v);
  return t;
}

TEST(MicroBatcherTest, SingleRequestRoundTrip) {
  FakeBackend backend;
  BatchOptions opts;
  opts.batch_timeout_us = 100;
  MicroBatcher batcher(backend, opts);
  Response r = batcher.submit(image_with_value(7.0f)).get();
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.prediction, 7);
  EXPECT_EQ(r.batch_size, 1u);
}

TEST(MicroBatcherTest, CoalescesQueuedRequestsIntoOneBatch) {
  FakeBackend backend(/*gated=*/true);
  BatchOptions opts;
  opts.max_batch = 4;
  opts.batch_timeout_us = 0;  // flush immediately: batching comes from
                              // the queue backlog, not the timer
  MicroBatcher batcher(backend, opts);

  // First request occupies the (gated) backend...
  std::future<Response> first = batcher.submit(image_with_value(0.0f));
  backend.wait_until_blocked();
  // ...so these four pile up and must ride in one max_batch=4 batch.
  std::vector<std::future<Response>> rest;
  for (int i = 1; i <= 4; ++i) {
    rest.push_back(batcher.submit(image_with_value(static_cast<float>(i))));
  }
  backend.release();

  EXPECT_EQ(first.get().prediction, 0);
  for (int i = 0; i < 4; ++i) {
    const Response r = rest[static_cast<size_t>(i)].get();
    EXPECT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.prediction, i + 1);
    EXPECT_EQ(r.batch_size, 4u);
  }
  const std::vector<int64_t> sizes = backend.batch_sizes();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 1);
  EXPECT_EQ(sizes[1], 4);
}

TEST(MicroBatcherTest, TimeoutFlushesPartialBatch) {
  FakeBackend backend;
  BatchOptions opts;
  opts.max_batch = 64;
  opts.batch_timeout_us = 2000;
  MicroBatcher batcher(backend, opts);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(batcher.submit(image_with_value(1.0f)));
  }
  // Far fewer than max_batch: only the timeout can flush these.
  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_EQ(r.status, Status::kOk);
    EXPECT_LE(r.batch_size, 3u);
  }
}

// The batch window opens when a request arrives, not when the batcher
// wakes: a request whose window elapsed while the previous batch ran is
// batched as soon as that batch returns, without a second full window.
// Margins are 100 ms or more on a 300 ms window.
TEST(MicroBatcherTest, WindowElapsedDuringABatchDoesNotWaitAgain) {
  FakeBackend backend(/*gated=*/true);
  BatchOptions opts;
  opts.max_batch = 8;
  opts.batch_timeout_us = 300000;
  MicroBatcher batcher(backend, opts);

  std::future<Response> first = batcher.submit(image_with_value(0.0f));
  backend.wait_until_blocked();  // its window closed; the batch is running
  std::future<Response> second = batcher.submit(image_with_value(1.0f));
  // The second request's whole window passes while the first batch runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const auto released = std::chrono::steady_clock::now();
  backend.release();
  EXPECT_EQ(first.get().prediction, 0);
  const Response r = second.get();
  const auto waited = std::chrono::steady_clock::now() - released;
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.prediction, 1);
  EXPECT_EQ(r.batch_size, 1u);
  EXPECT_LT(waited, std::chrono::milliseconds(200));
}

TEST(MicroBatcherTest, BackpressureRejectsWithRetryHintAndNeverBlocks) {
  FakeBackend backend(/*gated=*/true);
  BatchOptions opts;
  opts.max_batch = 1;
  opts.queue_capacity = 2;
  opts.batch_timeout_us = 0;
  MicroBatcher batcher(backend, opts);

  std::future<Response> in_flight = batcher.submit(image_with_value(1.0f));
  backend.wait_until_blocked();
  std::future<Response> q1 = batcher.submit(image_with_value(2.0f));
  std::future<Response> q2 = batcher.submit(image_with_value(3.0f));
  EXPECT_EQ(batcher.queue_depth(), 2u);

  // Queue full: the next submits must resolve immediately with kRejected
  // (bounded wait proves submit didn't block on the gated backend).
  for (int i = 0; i < 3; ++i) {
    std::future<Response> rejected =
        batcher.submit(image_with_value(9.0f));
    ASSERT_EQ(rejected.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    const Response r = rejected.get();
    EXPECT_EQ(r.status, Status::kRejected);
    EXPECT_GT(r.retry_after_us, 0u);
  }

  backend.release();
  EXPECT_EQ(in_flight.get().status, Status::kOk);
  EXPECT_EQ(q1.get().status, Status::kOk);
  EXPECT_EQ(q2.get().status, Status::kOk);

  const ModelStatsSnapshot stats = batcher.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.rejected, 3u);
}

TEST(MicroBatcherTest, DrainCompletesAllAcceptedRequests) {
  FakeBackend backend(/*gated=*/true);
  BatchOptions opts;
  opts.max_batch = 2;
  opts.queue_capacity = 64;
  MicroBatcher batcher(backend, opts);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 17; ++i) {
    futures.push_back(batcher.submit(image_with_value(1.0f)));
  }
  backend.wait_until_blocked();
  std::thread drainer([&] { batcher.drain(); });
  backend.release();
  drainer.join();

  // Zero dropped: every accepted request completed with kOk.
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  // And post-drain submissions are refused as kShutdown.
  const Response late = batcher.submit(image_with_value(1.0f)).get();
  EXPECT_EQ(late.status, Status::kShutdown);
}

TEST(MicroBatcherTest, ShapeMismatchIsImmediateError) {
  FakeBackend backend;
  MicroBatcher batcher(backend, BatchOptions{});
  nn::Tensor wrong({3, 4, 4});
  const Response r = batcher.submit(wrong).get();
  EXPECT_EQ(r.status, Status::kError);
  EXPECT_NE(r.error.find("shape"), std::string::npos);
}

TEST(MicroBatcherTest, ManyProducersAllComplete) {
  FakeBackend backend;
  BatchOptions opts;
  opts.max_batch = 8;
  opts.batch_timeout_us = 200;
  opts.queue_capacity = 4096;
  MicroBatcher batcher(backend, opts);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;
  std::atomic<int> ok{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (batcher.submit(image_with_value(1.0f)).get().status ==
            Status::kOk) {
          ++ok;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ok.load(), kProducers * kPerProducer);
  const ModelStatsSnapshot stats = batcher.stats();
  EXPECT_EQ(stats.completed,
            static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_GT(stats.p50_us, 0u);
  EXPECT_GE(stats.p99_us, stats.p50_us);
}

TEST(MicroBatcherTest, ExpiredDeadlineIsStructuredRejection) {
  FakeBackend backend(/*gated=*/true);
  BatchOptions opts;
  opts.max_batch = 1;
  opts.batch_timeout_us = 0;
  MicroBatcher batcher(backend, opts);

  // Request A occupies the backend; B waits in the queue with a 1 us
  // budget that is long gone by the time A's batch completes and B's
  // batch forms.
  std::future<Response> a = batcher.submit(image_with_value(3.0f));
  backend.wait_until_blocked();
  std::future<Response> b =
      batcher.submit(image_with_value(4.0f), /*deadline_us=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  backend.release();

  EXPECT_EQ(a.get().status, Status::kOk);
  const Response rb = b.get();
  EXPECT_EQ(rb.status, Status::kDeadlineExceeded);
  EXPECT_NE(rb.error.find("deadline"), std::string::npos);
  EXPECT_GT(rb.latency_us, 0u);
  // The expired request never reached the backend.
  for (int64_t n : backend.batch_sizes()) EXPECT_EQ(n, 1);
  EXPECT_EQ(batcher.stats().deadline_exceeded, 1u);
  EXPECT_EQ(batcher.stats().completed, 1u);
}

TEST(MicroBatcherTest, GenerousAndZeroDeadlinesComplete) {
  FakeBackend backend;
  BatchOptions opts;
  opts.max_batch = 2;
  opts.batch_timeout_us = 100;
  MicroBatcher batcher(backend, opts);
  std::future<Response> none = batcher.submit(image_with_value(1.0f));
  std::future<Response> generous =
      batcher.submit(image_with_value(2.0f), /*deadline_us=*/60'000'000);
  EXPECT_EQ(none.get().status, Status::kOk);
  EXPECT_EQ(generous.get().status, Status::kOk);
  EXPECT_EQ(batcher.stats().deadline_exceeded, 0u);
}

TEST(MicroBatcherTest, DegradedFlagPropagatesToResponses) {
  class Degraded final : public Backend {
   public:
    const std::string& kind() const override { return kind_; }
    const nn::Shape& input_shape() const override { return shape_; }
    std::vector<int64_t> infer_batch(const nn::Tensor& batch) override {
      return std::vector<int64_t>(static_cast<size_t>(batch.dim(0)), 9);
    }
    bool last_batch_degraded() const override { return true; }

   private:
    std::string kind_ = "fake";
    nn::Shape shape_ = {1, 2, 2};
  };
  Degraded backend;
  MicroBatcher batcher(backend, BatchOptions{});
  const Response r = batcher.submit(image_with_value(1.0f)).get();
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.prediction, 9);
  EXPECT_EQ(batcher.stats().degraded, 1u);
}

// Samples spread inside one power-of-two band (2048..3047 us, all in
// [2048, 4096)) keep their spread: the median's bucket is also the top
// occupied one, and interpolation stays inside [min, max].
TEST(LatencyHistogramTest, SpreadInsideOneBandKeepsPercentilesApart) {
  LatencyHistogram h;
  for (uint64_t us = 2048; us < 3048; ++us) h.record(us);
  const uint64_t p50 = h.percentile_us(50.0);
  const uint64_t p99 = h.percentile_us(99.0);
  EXPECT_LT(p50, p99);
  EXPECT_LE(p99, h.max_us());
  EXPECT_EQ(h.max_us(), 3047u);
  EXPECT_GE(h.percentile_us(0.0), 2048u);
  EXPECT_NEAR(static_cast<double>(p50), 2548.0, 2.0);
  EXPECT_NEAR(static_cast<double>(p99), 3038.0, 2.0);
}

}  // namespace
}  // namespace qsnc::serve
