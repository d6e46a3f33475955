// End-to-end router tier over in-process backend servers: bit-exact
// passthrough, session stickiness, reroute-on-death with zero dropped
// requests, and hedging around a chaos-slowed backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nn/rng.h"
#include "router/hash_ring.h"
#include "router/router_config.h"
#include "router/router_server.h"
#include "serve/chaos.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/transport.h"

namespace qsnc::router {
namespace {

using serve::BatchOptions;
using serve::Response;
using serve::SocketClient;
using serve::Status;

/// One in-process backend serving node on an ephemeral TCP port.
struct BackendNode {
  serve::ModelRegistry registry;
  std::unique_ptr<serve::ServeCore> core;
  std::unique_ptr<serve::SocketServer> server;

  explicit BackendNode(const BatchOptions& opts = default_opts()) {
    serve::ModelConfig cfg;
    cfg.architecture = "lenet-mini";
    cfg.backend = serve::BackendKind::kFp32;
    cfg.init_seed = 5;
    registry.add("lenet-mini", cfg);
    core = std::make_unique<serve::ServeCore>(registry, opts);
    server = std::make_unique<serve::SocketServer>(*core, "tcp:127.0.0.1:0");
  }

  static BatchOptions default_opts() {
    BatchOptions opts;
    opts.max_batch = 4;
    opts.batch_timeout_us = 500;
    return opts;
  }

  const serve::Endpoint& endpoint() const { return server->endpoint(); }
};

std::vector<nn::Tensor> random_images(int n, uint64_t seed) {
  nn::Rng rng(seed);
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

RouterOptions fast_probe_options(
    const std::vector<const BackendNode*>& nodes) {
  RouterOptions options;
  for (const BackendNode* node : nodes) {
    options.backends.push_back(node->endpoint());
  }
  options.listen = serve::parse_endpoint("tcp:127.0.0.1:0");
  options.probe_interval_ms = 50;
  options.probe_timeout_ms = 250;
  options.probe_down_after = 2;
  options.forward_timeout_ms = 3000;
  return options;
}

/// A session key whose ring owner is backend `want` (the ring is a pure
/// function of (labels, vnodes), so the test can precompute ownership).
std::string session_owned_by(const RouterOptions& options, size_t want) {
  std::vector<std::string> labels;
  for (const auto& ep : options.backends) labels.push_back(ep.str());
  const HashRing ring(labels, options.vnodes);
  for (int i = 0; i < 1000; ++i) {
    std::string session = "s";
    session += std::to_string(i);
    if (ring.pick(route_hash("lenet-mini", session)) == want) {
      return session;
    }
  }
  ADD_FAILURE() << "no session hashed to backend " << want;
  return "s0";
}

// Regression: candidate ordering polls usable() for every backend on
// every request, and that poll must not consume the breaker's half-open
// probe slot — otherwise a backend that tripped its breaker once is
// permanently wedged out of the usable set (only reachable as a
// last-resort) even though it recovered.
TEST(BackendPoolTest, TrippedBreakerRejoinsDespiteRepeatedUsablePolls) {
  RouterOptions options;
  options.backends.push_back(serve::parse_endpoint("unix:/tmp/qsnc-bp-a"));
  options.backends.push_back(serve::parse_endpoint("unix:/tmp/qsnc-bp-b"));
  options.breaker_threshold = 1;
  options.breaker_open_ms = 1;  // 1000us on the synthetic clock below
  BackendPool pool(options);

  pool.record_failure(0, /*now_us=*/0);
  EXPECT_FALSE(pool.usable(0, 500));  // open, timer running
  // Ordering-style polls after the open window: all true, none of them
  // transitions the breaker or takes the probe slot.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.usable(0, 1000 + i));
  }
  EXPECT_EQ(pool.stats()[0].breaker, serve::CircuitBreaker::State::kOpen);
  // The real forward attempt becomes the probe; its success closes the
  // breaker and the backend is fully back.
  EXPECT_TRUE(pool.admit(0, 2000));
  EXPECT_EQ(pool.stats()[0].breaker,
            serve::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(pool.usable(0, 2001));  // probe slot held by the attempt
  pool.record_success(0);
  EXPECT_TRUE(pool.usable(0, 2002));
  EXPECT_EQ(pool.stats()[0].breaker, serve::CircuitBreaker::State::kClosed);
}

// Regression: when the HealthProber revives a backend (probe flips it
// up), its breaker must reset too. Before, a backend whose breaker
// opened during the outage stayed breaker-open for the rest of its
// timer even though a probe just proved it serves again — fast-failing
// live traffic at a healthy backend.
TEST(BackendPoolTest, ProbeReviveResetsBreaker) {
  RouterOptions options;
  options.backends.push_back(serve::parse_endpoint("unix:/tmp/qsnc-bp-a"));
  options.backends.push_back(serve::parse_endpoint("unix:/tmp/qsnc-bp-b"));
  options.breaker_threshold = 1;
  options.breaker_open_ms = 60'000;  // would hold open for 60s of now_us
  options.probe_down_after = 2;
  BackendPool pool(options);

  // Forward failures open the breaker; probe failures mark it down.
  pool.record_failure(0, /*now_us=*/0);
  EXPECT_FALSE(pool.usable(0, 1000));
  pool.record_probe(0, false, 0);
  pool.record_probe(0, false, 0);
  EXPECT_FALSE(pool.up(0));

  // The revival probe flips it up AND closes the breaker — well inside
  // the 60s open window, so only the reset explains usable() here.
  pool.record_probe(0, true, 0);
  EXPECT_TRUE(pool.up(0));
  EXPECT_EQ(pool.stats()[0].breaker, serve::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(pool.usable(0, 2000));

  // A routine ok-probe on an already-up backend is not a revival: it
  // must not reset a breaker that live forwards just opened.
  pool.record_failure(0, 3000);
  EXPECT_FALSE(pool.usable(0, 4000));
  pool.record_probe(0, true, 0);
  EXPECT_FALSE(pool.usable(0, 4001));
  EXPECT_EQ(pool.stats()[0].breaker, serve::CircuitBreaker::State::kOpen);
}

TEST(RouterE2ETest, PredictionsThroughRouterAreBitExact) {
  BackendNode a;
  BackendNode b;
  RouterServer router(fast_probe_options({&a, &b}));

  SocketClient client(router.endpoint());
  const auto images = random_images(16, 123);
  for (size_t i = 0; i < images.size(); ++i) {
    const Response direct = a.core->infer("lenet-mini", images[i]);
    ASSERT_EQ(direct.status, Status::kOk) << direct.error;
    const Response routed = client.infer("lenet-mini", images[i]);
    ASSERT_EQ(routed.status, Status::kOk) << routed.error;
    EXPECT_EQ(routed.prediction, direct.prediction) << "image " << i;
  }
  EXPECT_EQ(router.router().requests(), images.size());
  EXPECT_EQ(router.router().exhausted(), 0u);

  // Sessionless requests spread: both backends saw traffic.
  const auto stats = router.pool().stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GT(stats[0].forwards + stats[1].forwards, 0u);

  // The front answers the stats protocol with the router health table.
  const std::string table = client.stats();
  EXPECT_NE(table.find("router:"), std::string::npos);
  EXPECT_NE(table.find(a.endpoint().str()), std::string::npos);
}

TEST(RouterE2ETest, SessionsStickToOneBackend) {
  BackendNode a;
  BackendNode b;
  const RouterOptions options = fast_probe_options({&a, &b});
  RouterServer router(options);
  const std::string session = session_owned_by(options, 1);

  SocketClient client(router.endpoint());
  const auto images = random_images(20, 7);
  for (const auto& image : images) {
    const Response r = client.infer("lenet-mini", image, /*deadline_us=*/0,
                                    serve::Priority::kInteractive, session);
    ASSERT_EQ(r.status, Status::kOk) << r.error;
  }

  const auto stats = router.pool().stats();
  EXPECT_EQ(stats[1].forwards, images.size());
  EXPECT_EQ(stats[0].forwards, 0u);
  EXPECT_EQ(router.router().rerouted(), 0u);
}

TEST(RouterE2ETest, ReroutesAroundADeadBackendWithZeroDrops) {
  BackendNode a;
  BackendNode b;
  RouterServer router(fast_probe_options({&a, &b}));
  SocketClient client(router.endpoint());

  const auto images = random_images(30, 55);
  // Warm both backends.
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(client.infer("lenet-mini", images[i]).status, Status::kOk);
  }

  // Kill backend b mid-fleet. Every subsequent request must still
  // resolve kOk — a dead candidate costs a reroute, never a drop.
  b.server->stop();
  for (size_t i = 6; i < images.size(); ++i) {
    const Response direct = a.core->infer("lenet-mini", images[i]);
    const Response routed = client.infer("lenet-mini", images[i]);
    ASSERT_EQ(routed.status, Status::kOk) << "request " << i << ": "
                                          << routed.error;
    EXPECT_EQ(routed.prediction, direct.prediction);
  }
  EXPECT_EQ(router.router().exhausted(), 0u);

  // The prober marks the dead backend down (wait for its verdict), and
  // the health table reflects the reroute.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (router.pool().up(1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_FALSE(router.pool().up(1)) << "prober never marked backend down";
  const auto stats = router.pool().stats();
  EXPECT_GT(stats[1].probes_failed, 0u);
  const std::string table = router.router().stats_report();
  EXPECT_NE(table.find(" NO "), std::string::npos)  // the up column
      << table;

  // Once marked down, fresh traffic skips the corpse entirely: no new
  // reroutes accumulate.
  const uint64_t rerouted_before = router.router().rerouted();
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(client.infer("lenet-mini", images[i]).status, Status::kOk);
  }
  EXPECT_EQ(router.router().rerouted(), rerouted_before);
}

TEST(RouterE2ETest, HedgingCutsTailLatencyOfASlowBackend) {
  // Backend 0 is chaos-slowed: every batch sleeps 80ms before execution.
  serve::ChaosConfig chaos_cfg;
  chaos_cfg.backend_latency_rate = 1.0;
  chaos_cfg.backend_latency_us = 80'000;
  serve::ChaosInjector chaos(chaos_cfg);
  BatchOptions slow_opts = BackendNode::default_opts();
  slow_opts.chaos = &chaos;
  BackendNode slow(slow_opts);
  BackendNode fast;

  // Two routers over the same fleet: hedging on vs off.
  RouterOptions hedged_options = fast_probe_options({&slow, &fast});
  hedged_options.hedge_after_us = 5'000;
  RouterOptions unhedged_options = fast_probe_options({&slow, &fast});
  RouterServer hedged(hedged_options);
  RouterServer unhedged(unhedged_options);

  // Pin every request to the slow backend so the hedge (next ring
  // candidate = the fast one) is what saves the tail.
  const std::string session = session_owned_by(hedged_options, 0);
  const auto images = random_images(10, 2024);

  auto run = [&](RouterServer& router) {
    SocketClient client(router.endpoint());
    std::vector<int64_t> latencies_us;
    for (const auto& image : images) {
      const auto start = std::chrono::steady_clock::now();
      const Response r =
          client.infer("lenet-mini", image, /*deadline_us=*/0,
                       serve::Priority::kInteractive, session);
      EXPECT_EQ(r.status, Status::kOk) << r.error;
      latencies_us.push_back(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    std::sort(latencies_us.begin(), latencies_us.end());
    return latencies_us;  // sorted; back() is the max ~ p99 at this n
  };

  const auto unhedged_lat = run(unhedged);
  const auto hedged_lat = run(hedged);

  // Without hedging every pinned request eats the injected 80ms.
  EXPECT_GE(unhedged_lat.front(), 80'000);
  // With hedging the duplicate on the fast backend wins the race; the
  // whole distribution lands far below the injected latency.
  EXPECT_LT(hedged_lat.back(), unhedged_lat.front());
  EXPECT_GT(hedged.router().hedged(), 0u);
  EXPECT_GT(hedged.router().hedge_wins(), 0u);
  EXPECT_EQ(unhedged.router().hedged(), 0u);
}

TEST(RouterE2ETest, CrossHopDeadlineIsDecrementedAndExhaustsStructurally) {
  // Every backend is chaos-slowed (80ms before every batch), so a 30ms
  // total budget can never be met: the first attempt times out at the
  // remaining-budget clamp, and a later attempt finds the budget spent —
  // the router answers kDeadlineExceeded itself instead of burning more
  // backend slots on an answer the client has given up on. Three lanes,
  // not two: an attempt's read can time out a poll-tick *under* the
  // clamp, leaving microseconds of budget at the next check; with a
  // third candidate the loop is guaranteed one more budget check after
  // that sliver is spent, so the deadline branch (never the exhausted
  // branch) always answers.
  serve::ChaosConfig chaos_cfg;
  chaos_cfg.backend_latency_rate = 1.0;
  chaos_cfg.backend_latency_us = 80'000;
  serve::ChaosInjector chaos(chaos_cfg);
  BatchOptions slow_opts = BackendNode::default_opts();
  slow_opts.chaos = &chaos;
  BackendNode a(slow_opts);
  BackendNode b(slow_opts);
  BackendNode c(slow_opts);
  RouterServer router(fast_probe_options({&a, &b, &c}));
  SocketClient client(router.endpoint());

  const auto images = random_images(3, 99);

  // A deadline-less request rides the slow fleet fine (80ms << the 3s
  // forward timeout), as does a generous budget — deadline propagation
  // must cost correct requests nothing.
  ASSERT_EQ(client.infer("lenet-mini", images[0]).status, Status::kOk);
  const Response roomy =
      client.infer("lenet-mini", images[1], /*deadline_us=*/2'000'000);
  ASSERT_EQ(roomy.status, Status::kOk) << roomy.error;

  // 30ms of budget against 80ms backends: structured exhaustion.
  const Response tight =
      client.infer("lenet-mini", images[2], /*deadline_us=*/30'000);
  EXPECT_EQ(tight.status, Status::kDeadlineExceeded) << tight.error;
  EXPECT_NE(tight.error.find("deadline exhausted"), std::string::npos)
      << tight.error;
  EXPECT_GE(router.router().deadline_exceeded(), 1u);
  EXPECT_EQ(router.router().exhausted(), 0u);
  // The health table surfaces the new counter.
  EXPECT_NE(router.router().stats_report().find("deadline"),
            std::string::npos);
}

TEST(RouterE2ETest, DryRetryBudgetShedsInsteadOfAmplifying) {
  BackendNode dead;
  BackendNode alive;
  RouterOptions options = fast_probe_options({&dead, &alive});
  // Keep the prober and breaker out of the picture so every pinned
  // request genuinely attempts the corpse: the retry budget is the only
  // mechanism under test.
  options.probe_interval_ms = 100'000;
  options.probe_down_after = 1000;
  options.breaker_threshold = 0;
  // One reroute of burst, a refill rate that adds nothing in-test.
  options.retry_tokens_per_sec = 0.001;
  options.retry_burst = 1.0;
  RouterServer router(options);
  const std::string doomed = session_owned_by(options, 0);
  const std::string safe = session_owned_by(options, 1);
  dead.server->stop();

  SocketClient client(router.endpoint());
  const auto images = random_images(4, 321);

  // Request 1 spends backend 0's only token on the reroute and succeeds.
  const Response first =
      client.infer("lenet-mini", images[0], /*deadline_us=*/0,
                   serve::Priority::kInteractive, doomed);
  ASSERT_EQ(first.status, Status::kOk) << first.error;
  EXPECT_EQ(router.router().rerouted(), 1u);

  // Request 2 finds the bucket dry: shed with a retry-after hint, no
  // second reroute amplified onto the healthy neighbor.
  const Response second =
      client.infer("lenet-mini", images[1], /*deadline_us=*/0,
                   serve::Priority::kInteractive, doomed);
  EXPECT_EQ(second.status, Status::kShedded) << second.error;
  EXPECT_GT(second.retry_after_us, 0u);
  EXPECT_NE(second.error.find("retry budget exhausted"), std::string::npos)
      << second.error;
  EXPECT_EQ(router.router().rerouted(), 1u);
  EXPECT_EQ(router.router().budget_shed(), 1u);
  EXPECT_EQ(router.pool().stats()[0].retry_sheds, 1u);

  // Collateral check: traffic owned by the healthy backend is untouched
  // by its neighbor's dry budget.
  const Response other =
      client.infer("lenet-mini", images[2], /*deadline_us=*/0,
                   serve::Priority::kInteractive, safe);
  EXPECT_EQ(other.status, Status::kOk) << other.error;
  // And the shed shows up in the health table ("rshed" column).
  EXPECT_NE(router.router().stats_report().find("rshed"),
            std::string::npos);
}

}  // namespace
}  // namespace qsnc::router
