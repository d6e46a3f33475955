// Overload behavior under open-loop offered load: probe the serving
// capacity of an in-process lenet-mini core, then offer 1x/2x/4x that
// rate on a fixed arrival schedule (no retries, no adaptation) with a
// 6:3:1 interactive:batch:canary priority mix and CoDel-style shedding
// enabled. Reports goodput, shed/reject counts, and completion-latency
// percentiles per multiplier — the shape to look for is goodput holding
// near capacity past 1x while batch (then canary) traffic absorbs the
// sheds and interactive p99 stays bounded. Writes BENCH_overload.json
// (override with QSNC_BENCH_OUT).
//
// A second section exercises the router front tier over a two-backend
// TCP fleet: a mid-run backend stop (reroute row: retries and drops —
// the drop count must be zero) and a chaos-slowed backend with hedging
// off vs on (tail-latency row). Both land under the "router" key of
// BENCH_overload.json.
//
// Flags: --seconds S (per point, default 2), --probe-requests N
//        (default 2000), --max-rate R (schedule cap, default 50000),
//        --router-requests N (reroute row, default 400),
//        --hedge-requests N (hedging row, default 40).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "nn/rng.h"
#include "router/hash_ring.h"
#include "router/router_config.h"
#include "router/router_server.h"
#include "serve/chaos.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace {

using namespace qsnc;
using Clock = std::chrono::steady_clock;

serve::ModelConfig model_config() {
  serve::ModelConfig cfg;
  cfg.architecture = "lenet-mini";
  cfg.backend = serve::BackendKind::kFp32;
  cfg.init_seed = 9;
  return cfg;
}

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

/// Closed-loop capacity probe: hammer the core with a few producer
/// threads and read the sustained completion rate off the stats.
double probe_capacity(int requests) {
  serve::ModelRegistry registry;
  registry.add("m", model_config());
  serve::BatchOptions opts;
  opts.max_batch = 8;
  opts.batch_timeout_us = 200;
  opts.queue_capacity = 1024;
  serve::ServeCore core(registry, opts);
  const auto images = make_images(32);

  const int producers = 4;
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = p; i < requests; i += producers) {
        (void)core.infer("m", images[static_cast<size_t>(i) %
                                     images.size()]);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return seconds > 0 ? requests / seconds : 0.0;
}

struct ClassCounts {
  uint64_t ok = 0, shed = 0, rejected = 0, errors = 0;
};

struct OverloadPoint {
  double multiplier = 0.0;
  double offered_qps = 0.0;
  uint64_t sent = 0;
  ClassCounts per[serve::kNumPriorities];
  ClassCounts total;
  double seconds = 0.0;
  double goodput_qps = 0.0;
  uint64_t p50_us = 0, p99_us = 0;
};

serve::Priority priority_of(uint64_t i) {
  const uint64_t r = i % 10;  // 6:3:1 interactive:batch:canary
  if (r < 6) return serve::Priority::kInteractive;
  if (r < 9) return serve::Priority::kBatch;
  return serve::Priority::kCanary;
}

OverloadPoint run_point(double multiplier, double rate, double seconds) {
  serve::ModelRegistry registry;
  registry.add("m", model_config());
  serve::BatchOptions opts;
  opts.max_batch = 8;
  opts.batch_timeout_us = 200;
  opts.queue_capacity = 4096;
  opts.admission.delay_target_us = 5000;
  opts.admission.delay_window_us = 20000;
  serve::ServeCore core(registry, opts);
  const auto images = make_images(32);

  const uint64_t n = static_cast<uint64_t>(rate * seconds);
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(n);
  // Single scheduler thread, fixed arrival schedule t_i = i/rate.
  // infer_async never blocks, so the offered rate does not adapt to the
  // server's state — a true open loop.
  const auto start = Clock::now();
  for (uint64_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(
                    static_cast<int64_t>(static_cast<double>(i) * 1e6 /
                                         rate)));
    futures.push_back(core.infer_async(
        "m", images[static_cast<size_t>(i) % images.size()], 0,
        priority_of(i)));
  }

  OverloadPoint point;
  point.multiplier = multiplier;
  point.offered_qps = rate;
  point.sent = n;
  std::vector<uint64_t> ok_latencies;
  for (uint64_t i = 0; i < n; ++i) {
    const serve::Response r = futures[i].get();
    ClassCounts& cls = point.per[static_cast<size_t>(priority_of(i))];
    switch (r.status) {
      case serve::Status::kOk:
        ++cls.ok;
        ok_latencies.push_back(r.latency_us);
        break;
      case serve::Status::kShedded:
        ++cls.shed;
        break;
      case serve::Status::kRejected:
        ++cls.rejected;
        break;
      default:
        ++cls.errors;
        break;
    }
  }
  point.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  core.drain();
  for (const ClassCounts& cls : point.per) {
    point.total.ok += cls.ok;
    point.total.shed += cls.shed;
    point.total.rejected += cls.rejected;
    point.total.errors += cls.errors;
  }
  point.goodput_qps =
      point.seconds > 0
          ? static_cast<double>(point.total.ok) / point.seconds
          : 0.0;
  std::sort(ok_latencies.begin(), ok_latencies.end());
  const auto pct = [&](double p) -> uint64_t {
    if (ok_latencies.empty()) return 0;
    return ok_latencies[static_cast<size_t>(
        p / 100.0 * static_cast<double>(ok_latencies.size() - 1))];
  };
  point.p50_us = pct(50);
  point.p99_us = pct(99);
  return point;
}

// --- router fleet rows -----------------------------------------------------

/// One in-process backend serving node on an ephemeral TCP port.
struct FleetNode {
  serve::ModelRegistry registry;
  std::unique_ptr<serve::ServeCore> core;
  std::unique_ptr<serve::SocketServer> server;

  explicit FleetNode(serve::ChaosInjector* chaos = nullptr) {
    registry.add("m", model_config());
    serve::BatchOptions opts;
    opts.max_batch = 8;
    opts.batch_timeout_us = 200;
    opts.queue_capacity = 1024;
    opts.chaos = chaos;
    core = std::make_unique<serve::ServeCore>(registry, opts);
    server = std::make_unique<serve::SocketServer>(*core, "tcp:127.0.0.1:0");
  }
};

router::RouterOptions fleet_options(const FleetNode& a, const FleetNode& b) {
  router::RouterOptions options;
  options.backends = {a.server->endpoint(), b.server->endpoint()};
  options.listen = serve::parse_endpoint("tcp:127.0.0.1:0");
  options.probe_interval_ms = 50;
  options.probe_down_after = 2;
  return options;
}

/// A session key whose ring owner is backend index `want`.
std::string session_owned_by(const router::RouterOptions& options,
                             size_t want) {
  std::vector<std::string> labels;
  for (const auto& ep : options.backends) labels.push_back(ep.str());
  const router::HashRing ring(labels, options.vnodes);
  for (int i = 0;; ++i) {
    std::string s = "s";
    s += std::to_string(i);
    if (ring.pick(router::route_hash("m", s)) == want) return s;
  }
}

struct RerouteRow {
  uint64_t requests = 0;
  uint64_t retries = 0;
  uint64_t dropped = 0;  // must be zero: the router's core contract
  uint64_t rerouted = 0;
};

/// Closed-loop load through the router; one backend stops cold halfway.
RerouteRow run_router_reroute(uint64_t requests) {
  FleetNode a;
  FleetNode b;
  router::RouterServer router(fleet_options(a, b));
  serve::SocketClient client(router.endpoint());
  const auto images = make_images(32);

  RerouteRow row;
  row.requests = requests;
  for (uint64_t i = 0; i < requests; ++i) {
    if (i == requests / 2) b.server->stop();  // no drain visible to router
    bool ok = false;
    for (int attempt = 0; attempt < 20 && !ok; ++attempt) {
      if (attempt > 0) ++row.retries;
      const serve::Response r =
          client.infer("m", images[static_cast<size_t>(i) % images.size()]);
      ok = r.status == serve::Status::kOk;
    }
    if (!ok) ++row.dropped;
  }
  row.rerouted = router.router().rerouted();
  return row;
}

struct HedgeRow {
  uint64_t requests = 0;
  uint64_t p99_unhedged_us = 0;
  uint64_t p99_hedged_us = 0;
  uint64_t hedged = 0;
  uint64_t hedge_wins = 0;
};

/// Tail latency with every request pinned to a chaos-slowed backend,
/// hedging off vs on (the duplicate lands on the fast backend).
HedgeRow run_router_hedging(uint64_t requests) {
  serve::ChaosConfig chaos_cfg;
  chaos_cfg.backend_latency_rate = 1.0;
  chaos_cfg.backend_latency_us = 20'000;
  serve::ChaosInjector chaos(chaos_cfg);
  FleetNode slow(&chaos);
  FleetNode fast;
  const auto images = make_images(32);

  HedgeRow row;
  row.requests = requests;
  const auto run = [&](int64_t hedge_after_us) -> uint64_t {
    router::RouterOptions options = fleet_options(slow, fast);
    options.hedge_after_us = hedge_after_us;
    router::RouterServer router(options);
    const std::string session = session_owned_by(options, 0);
    serve::SocketClient client(router.endpoint());
    std::vector<uint64_t> latencies;
    for (uint64_t i = 0; i < requests; ++i) {
      const auto start = Clock::now();
      (void)client.infer("m",
                         images[static_cast<size_t>(i) % images.size()], 0,
                         serve::Priority::kInteractive, session);
      latencies.push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - start)
              .count()));
    }
    if (hedge_after_us > 0) {
      row.hedged = router.router().hedged();
      row.hedge_wins = router.router().hedge_wins();
    }
    std::sort(latencies.begin(), latencies.end());
    return latencies[static_cast<size_t>(
        0.99 * static_cast<double>(latencies.size() - 1))];
  };
  row.p99_unhedged_us = run(0);
  row.p99_hedged_us = run(2'000);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const double seconds = flags.get_double("seconds", 2.0);
  const int probe_requests = static_cast<int>(
      flags.get_int("probe-requests", 2000));
  const double max_rate = flags.get_double("max-rate", 50000.0);
  const uint64_t router_requests = static_cast<uint64_t>(
      flags.get_int("router-requests", 400));
  const uint64_t hedge_requests = static_cast<uint64_t>(
      flags.get_int("hedge-requests", 40));

  std::printf("probing capacity (%d closed-loop requests) ...\n",
              probe_requests);
  std::fflush(stdout);
  const double capacity = probe_capacity(probe_requests);
  std::printf("capacity ~%.0f QPS\n", capacity);

  std::vector<OverloadPoint> points;
  for (double multiplier : {1.0, 2.0, 4.0}) {
    const double rate = std::min(capacity * multiplier, max_rate);
    std::printf("offering %.1fx capacity (%.0f QPS) for %.1fs ...\n",
                multiplier, rate, seconds);
    std::fflush(stdout);
    points.push_back(run_point(multiplier, rate, seconds));
  }

  std::printf("router fleet: reroute row (%llu requests, one backend "
              "stopped mid-run) ...\n",
              static_cast<unsigned long long>(router_requests));
  std::fflush(stdout);
  const RerouteRow reroute = run_router_reroute(router_requests);
  std::printf("router fleet: hedging row (%llu pinned requests, one "
              "backend chaos-slowed 20ms) ...\n",
              static_cast<unsigned long long>(hedge_requests));
  std::fflush(stdout);
  const HedgeRow hedge = run_router_hedging(hedge_requests);

  std::string path;
  std::FILE* f =
      bench::open_json("BENCH_overload.json", util::num_threads(), &path);
  if (f == nullptr) return 1;
  std::fprintf(f,
               "  \"model\": \"lenet-mini\",\n"
               "  \"capacity_qps\": %.5g,\n  \"results\": [\n",
               capacity);
  for (size_t i = 0; i < points.size(); ++i) {
    const OverloadPoint& p = points[i];
    std::fprintf(
        f,
        "    {\"multiplier\": %g, \"offered_qps\": %.5g, \"sent\": %llu, "
        "\"ok\": %llu, \"shed\": %llu, \"rejected\": %llu, "
        "\"errors\": %llu, \"goodput_qps\": %.5g, \"p50_us\": %llu, "
        "\"p99_us\": %llu,\n"
        "     \"per_class\": {"
        "\"interactive\": {\"ok\": %llu, \"shed\": %llu}, "
        "\"batch\": {\"ok\": %llu, \"shed\": %llu}, "
        "\"canary\": {\"ok\": %llu, \"shed\": %llu}}}%s\n",
        p.multiplier, p.offered_qps,
        static_cast<unsigned long long>(p.sent),
        static_cast<unsigned long long>(p.total.ok),
        static_cast<unsigned long long>(p.total.shed),
        static_cast<unsigned long long>(p.total.rejected),
        static_cast<unsigned long long>(p.total.errors), p.goodput_qps,
        static_cast<unsigned long long>(p.p50_us),
        static_cast<unsigned long long>(p.p99_us),
        static_cast<unsigned long long>(
            p.per[static_cast<size_t>(serve::Priority::kInteractive)].ok),
        static_cast<unsigned long long>(
            p.per[static_cast<size_t>(serve::Priority::kInteractive)]
                .shed),
        static_cast<unsigned long long>(
            p.per[static_cast<size_t>(serve::Priority::kBatch)].ok),
        static_cast<unsigned long long>(
            p.per[static_cast<size_t>(serve::Priority::kBatch)].shed),
        static_cast<unsigned long long>(
            p.per[static_cast<size_t>(serve::Priority::kCanary)].ok),
        static_cast<unsigned long long>(
            p.per[static_cast<size_t>(serve::Priority::kCanary)].shed),
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n  \"router\": {\n"
      "    \"reroute\": {\"requests\": %llu, \"retries\": %llu, "
      "\"dropped\": %llu, \"rerouted\": %llu},\n"
      "    \"hedging\": {\"requests\": %llu, \"p99_unhedged_us\": %llu, "
      "\"p99_hedged_us\": %llu, \"hedged\": %llu, \"hedge_wins\": %llu}\n"
      "  }\n}\n",
      static_cast<unsigned long long>(reroute.requests),
      static_cast<unsigned long long>(reroute.retries),
      static_cast<unsigned long long>(reroute.dropped),
      static_cast<unsigned long long>(reroute.rerouted),
      static_cast<unsigned long long>(hedge.requests),
      static_cast<unsigned long long>(hedge.p99_unhedged_us),
      static_cast<unsigned long long>(hedge.p99_hedged_us),
      static_cast<unsigned long long>(hedge.hedged),
      static_cast<unsigned long long>(hedge.hedge_wins));
  std::fclose(f);

  std::printf("\n== overload (lenet-mini, CoDel target 5ms) ==\n");
  std::printf("%5s %11s %8s %8s %8s %8s %11s %8s %8s\n", "mult",
              "offered", "sent", "ok", "shed", "rej", "goodput", "p50_us",
              "p99_us");
  for (const OverloadPoint& p : points) {
    std::printf("%5.1f %11.0f %8llu %8llu %8llu %8llu %11.0f %8llu "
                "%8llu\n",
                p.multiplier, p.offered_qps,
                static_cast<unsigned long long>(p.sent),
                static_cast<unsigned long long>(p.total.ok),
                static_cast<unsigned long long>(p.total.shed),
                static_cast<unsigned long long>(p.total.rejected),
                p.goodput_qps,
                static_cast<unsigned long long>(p.p50_us),
                static_cast<unsigned long long>(p.p99_us));
  }
  std::printf("\n== router fleet (2 TCP backends) ==\n");
  std::printf("reroute: %llu requests, %llu retries, %llu dropped, "
              "%llu rerouted%s\n",
              static_cast<unsigned long long>(reroute.requests),
              static_cast<unsigned long long>(reroute.retries),
              static_cast<unsigned long long>(reroute.dropped),
              static_cast<unsigned long long>(reroute.rerouted),
              reroute.dropped == 0 ? " (zero-drop contract held)" : "");
  std::printf("hedging: p99 %llu us -> %llu us (%llu hedges, %llu wins)\n",
              static_cast<unsigned long long>(hedge.p99_unhedged_us),
              static_cast<unsigned long long>(hedge.p99_hedged_us),
              static_cast<unsigned long long>(hedge.hedged),
              static_cast<unsigned long long>(hedge.hedge_wins));
  std::printf("wrote %s\n", path.c_str());
  return reroute.dropped == 0 ? 0 : 1;
}
