// Serving throughput sweep: backend x max-batch on lenet-mini through the
// full in-process queue -> micro-batcher -> backend pipeline. Closed-loop
// producer threads hammer a ServeCore; we record QPS and p50/p95/p99
// latency per configuration and write BENCH_serve.json (override the path
// with QSNC_BENCH_OUT).
//
// Flags: --requests N (per config, default 400; snc uses a quarter),
//        --producers N (default 4), --seconds-cap S (safety, default 120).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "nn/rng.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace {

using namespace qsnc;

struct SweepPoint {
  std::string backend;
  uint32_t max_batch;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double avg_batch = 0.0;
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;
};

std::vector<nn::Tensor> make_images(int n) {
  nn::Rng rng(77);
  std::vector<nn::Tensor> images;
  for (int i = 0; i < n; ++i) {
    nn::Tensor t({1, 28, 28});
    for (int64_t j = 0; j < t.numel(); ++j) {
      t[j] = rng.uniform(0.0f, 1.0f);
    }
    images.push_back(std::move(t));
  }
  return images;
}

SweepPoint run_point(serve::BackendKind backend, uint32_t max_batch,
                     int requests, int producers, double seconds_cap) {
  serve::ModelRegistry registry;
  serve::ModelConfig cfg;
  cfg.architecture = "lenet-mini";
  cfg.backend = backend;
  cfg.bits = 4;
  cfg.init_seed = 9;
  registry.add("m", cfg);

  serve::BatchOptions opts;
  opts.max_batch = max_batch;
  opts.batch_timeout_us = 200;
  opts.queue_capacity = 1024;
  serve::ServeCore core(registry, opts);

  const auto images = make_images(32);
  std::atomic<int> remaining{requests};
  std::atomic<uint64_t> client_rejects{0};
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds_cap));

  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      size_t next = static_cast<size_t>(p);
      while (remaining.fetch_sub(1) > 0 &&
             std::chrono::steady_clock::now() < deadline) {
        const nn::Tensor& img = images[next++ % images.size()];
        serve::Response r = core.infer("m", img);
        while (r.status == serve::Status::kRejected) {
          ++client_rejects;
          std::this_thread::sleep_for(std::chrono::microseconds(
              std::min<uint64_t>(r.retry_after_us, 50000)));
          r = core.infer("m", img);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  core.drain();

  const serve::ModelStatsSnapshot stats = core.stats().front();
  SweepPoint point;
  point.backend = serve::backend_kind_name(backend);
  point.max_batch = max_batch;
  point.completed = stats.completed;
  point.rejected = client_rejects.load();
  point.seconds = seconds;
  point.qps = seconds > 0.0 ? static_cast<double>(stats.completed) / seconds
                            : 0.0;
  point.avg_batch = stats.batches > 0
                        ? static_cast<double>(stats.completed) /
                              static_cast<double>(stats.batches)
                        : 0.0;
  point.p50_us = stats.p50_us;
  point.p95_us = stats.p95_us;
  point.p99_us = stats.p99_us;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const int requests = flags.get_int("requests", 400);
  const int producers = flags.get_int("producers", 4);
  const double seconds_cap = flags.get_double("seconds-cap", 120.0);

  const std::vector<uint32_t> batch_sizes = {1, 4, 16};
  const std::vector<serve::BackendKind> backends = {
      serve::BackendKind::kFp32, serve::BackendKind::kQuant,
      serve::BackendKind::kSnc};

  std::vector<SweepPoint> points;
  for (serve::BackendKind backend : backends) {
    // Spike-level simulation is ~2 orders slower per image; keep the
    // sweep bounded without losing the batch-size trend.
    const int n = backend == serve::BackendKind::kSnc
                      ? std::max(requests / 4, 32)
                      : requests;
    for (uint32_t max_batch : batch_sizes) {
      std::printf("running %-5s max_batch=%-3u requests=%d ...\n",
                  serve::backend_kind_name(backend), max_batch, n);
      std::fflush(stdout);
      points.push_back(
          run_point(backend, max_batch, n, producers, seconds_cap));
    }
  }

  std::string path;
  std::FILE* f =
      bench::open_json("BENCH_serve.json", util::num_threads(), &path);
  if (f == nullptr) return 1;
  std::fprintf(f, "  \"model\": \"lenet-mini\",\n  \"producers\": %d,\n"
               "  \"results\": [\n", producers);
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(
        f,
        "    {\"backend\": \"%s\", \"max_batch\": %u, "
        "\"completed\": %llu, "
        "\"client_rejects\": %llu, \"seconds\": %.4g, \"qps\": %.5g, "
        "\"avg_batch\": %.3g, \"p50_us\": %llu, \"p95_us\": %llu, "
        "\"p99_us\": %llu}%s\n",
        p.backend.c_str(), p.max_batch,
        static_cast<unsigned long long>(p.completed),
        static_cast<unsigned long long>(p.rejected), p.seconds, p.qps,
        p.avg_batch, static_cast<unsigned long long>(p.p50_us),
        static_cast<unsigned long long>(p.p95_us),
        static_cast<unsigned long long>(p.p99_us),
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  std::printf("\n== serving throughput (lenet-mini, %d producers) ==\n",
              producers);
  std::printf("%-6s %9s %10s %10s %9s %8s %8s %8s\n", "backend",
              "max_batch", "completed", "QPS", "avg_batch",
              "p50_us", "p95_us", "p99_us");
  for (const SweepPoint& p : points) {
    std::printf("%-6s %9u %10llu %10.1f %9.2f %8llu %8llu %8llu\n",
                p.backend.c_str(), p.max_batch,
                static_cast<unsigned long long>(p.completed), p.qps,
                p.avg_batch, static_cast<unsigned long long>(p.p50_us),
                static_cast<unsigned long long>(p.p95_us),
                static_cast<unsigned long long>(p.p99_us));
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
