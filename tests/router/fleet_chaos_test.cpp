// Multi-process fleet chaos: two real backend processes (fork + exec-free
// in-child servers) under the soak chaos profile, a router over them, and
// a SIGKILL of one backend mid-load. The contract under test is the
// router's zero-drop guarantee: every client request eventually resolves
// kOk — chaos and the kill cost retries/latency, never a lost request.
//
// fork() happens before the parent or child create any threads (servers
// and the router spawn theirs afterwards), so this test must stay out of
// the tsan suite.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

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

using serve::Response;
using serve::Status;

struct ChildBackend {
  pid_t pid = -1;
  uint16_t port = 0;
};

/// Forks a backend serving process under the soak chaos profile (or,
/// with `versioned_rollout`, chaos-free with a versioned registry and a
/// fast-deciding rollout controller). The child binds an ephemeral TCP
/// port, reports it over a pipe, and serves until SIGTERM (or SIGKILL).
/// Must be called before the parent creates any threads.
ChildBackend spawn_backend(uint64_t chaos_seed,
                           bool versioned_rollout = false) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    ADD_FAILURE() << "pipe() failed";
    return {};
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(pipefd[0]);
    {
      serve::ChaosInjector chaos(serve::chaos_profile("soak", chaos_seed));
      serve::ModelConfig cfg;
      cfg.architecture = "lenet-mini";
      cfg.backend = serve::BackendKind::kFp32;
      cfg.init_seed = 5;
      serve::ModelRegistry registry;
      registry.add(versioned_rollout ? "lenet-mini@v1" : "lenet-mini", cfg);
      serve::BatchOptions opts;
      opts.max_batch = 4;
      opts.batch_timeout_us = 500;
      if (!versioned_rollout) opts.chaos = &chaos;
      serve::RolloutOptions rollout;
      rollout.shadow_fraction = 1.0;
      rollout.observe_requests = 2;
      rollout.canary_interval_ms = 5;
      serve::ServeCore core(registry, opts, rollout);
      serve::SocketServerOptions sopts;
      if (!versioned_rollout) sopts.chaos = &chaos;
      serve::SocketServer server(core, "tcp:127.0.0.1:0", sopts);
      const uint16_t port = static_cast<uint16_t>(server.endpoint().port);
      if (::write(pipefd[1], &port, sizeof(port)) != sizeof(port)) {
        ::_exit(2);
      }
      ::close(pipefd[1]);
      server.run_until_signal();
    }
    ::_exit(0);
  }
  ::close(pipefd[1]);
  ChildBackend child;
  child.pid = pid;
  ssize_t n = 0;
  while (n < static_cast<ssize_t>(sizeof(child.port))) {
    const ssize_t got =
        ::read(pipefd[0], reinterpret_cast<char*>(&child.port) + n,
               sizeof(child.port) - n);
    if (got <= 0) break;
    n += got;
  }
  ::close(pipefd[0]);
  if (n != sizeof(child.port) || child.port == 0) {
    ADD_FAILURE() << "backend child never reported its port";
  }
  return child;
}

void reap(ChildBackend& child, int sig) {
  if (child.pid <= 0) return;
  ::kill(child.pid, sig);
  int status = 0;
  ::waitpid(child.pid, &status, 0);
  child.pid = -1;
}

TEST(FleetChaosTest, SigkillUnderSoakLosesNoAcceptedRequests) {
  // Fork both backends before anything in this process starts a thread.
  ChildBackend b0 = spawn_backend(101);
  ChildBackend b1 = spawn_backend(202);
  ASSERT_GT(b0.port, 0);
  ASSERT_GT(b1.port, 0);

  RouterOptions options;
  options.backends = {
      serve::parse_endpoint("tcp:127.0.0.1:" + std::to_string(b0.port)),
      serve::parse_endpoint("tcp:127.0.0.1:" + std::to_string(b1.port)),
  };
  options.listen = serve::parse_endpoint("tcp:127.0.0.1:0");
  options.probe_interval_ms = 50;
  options.probe_timeout_ms = 500;
  options.probe_down_after = 2;
  options.forward_timeout_ms = 3000;
  RouterServer router(options);

  // Reference predictions from an in-process copy of the same model.
  serve::ModelConfig cfg;
  cfg.architecture = "lenet-mini";
  cfg.backend = serve::BackendKind::kFp32;
  cfg.init_seed = 5;
  serve::ModelRegistry reference_registry;
  reference_registry.add("lenet-mini", cfg);
  serve::ServeCore reference(reference_registry, serve::BatchOptions{});

  nn::Rng rng(77);
  std::vector<nn::Tensor> images;
  for (int i = 0; i < 45; ++i) {
    nn::Tensor t({1, 28, 28});
    for (int64_t j = 0; j < t.numel(); ++j) {
      t[j] = rng.uniform(0.0f, 1.0f);
    }
    images.push_back(std::move(t));
  }

  // A session whose ring owner is backend 1 (the one we will kill): the
  // first pinned request after the SIGKILL must hit the corpse and
  // reroute, making the reroute counter deterministic.
  const HashRing ring(
      {options.backends[0].str(), options.backends[1].str()},
      options.vnodes);
  std::string doomed_session;
  for (int i = 0; i < 1000 && doomed_session.empty(); ++i) {
    std::string s = "s";
    s += std::to_string(i);
    if (ring.pick(route_hash("lenet-mini", s)) == 1) doomed_session = s;
  }
  ASSERT_FALSE(doomed_session.empty());

  auto client = std::make_unique<serve::SocketClient>(router.endpoint());
  uint64_t retries = 0;
  int dropped = 0;
  for (size_t i = 0; i < images.size(); ++i) {
    if (i == 15) {
      // SIGKILL one backend mid-load: no drain, no goodbye frame.
      ::kill(b1.pid, SIGKILL);
      int status = 0;
      ::waitpid(b1.pid, &status, 0);
      b1.pid = -1;
    }
    const Response expect = reference.infer("lenet-mini", images[i]);
    ASSERT_EQ(expect.status, Status::kOk) << expect.error;

    // Requests 15..24 pin to the killed backend's ring position; the
    // rest spread.
    const std::string session =
        (i >= 15 && i < 25) ? doomed_session : std::string();
    bool ok = false;
    for (int attempt = 0; attempt < 30 && !ok; ++attempt) {
      if (attempt > 0) {
        ++retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      try {
        const Response r =
            client->infer("lenet-mini", images[i], /*deadline_us=*/0,
                          serve::Priority::kInteractive, session);
        if (r.status == Status::kOk) {
          EXPECT_EQ(r.prediction, expect.prediction) << "request " << i;
          ok = true;
        }
        // kError (injected backend fault / all-candidates-failed),
        // kRejected, kShedded: structured rejections, retried above.
      } catch (const std::exception&) {
        // Router connection lost (should not happen — the front runs
        // without chaos); reconnect and retry.
        client = std::make_unique<serve::SocketClient>(router.endpoint());
      }
    }
    if (!ok) ++dropped;
  }

  // The zero-drop contract: chaos + SIGKILL cost retries, never a
  // permanently failed request.
  EXPECT_EQ(dropped, 0);
  EXPECT_GT(router.router().requests(), 0u);
  // The router actually moved traffic off the killed backend (requests
  // pinned to its ring position resolved elsewhere).
  const auto stats = router.pool().stats();
  EXPECT_GT(stats[1].reroutes_away, 0u);

  // And the prober flips its verdict (connect refused = instant probe
  // failure, down after probe_down_after consecutive misses).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (router.pool().up(1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_FALSE(router.pool().up(1)) << "prober never marked backend down";

  reap(b0, SIGTERM);
  reap(b1, SIGKILL);
}

TEST(FleetChaosTest, SigkillMidRolloutLosesNoRequestsAndRolloutCompletes) {
  // Two versioned backends serving lenet-mini@v1; backend 0 will run a
  // blue/green rollout while backend 1 gets SIGKILLed under live load.
  ChildBackend b0 = spawn_backend(0, /*versioned_rollout=*/true);
  ChildBackend b1 = spawn_backend(0, /*versioned_rollout=*/true);
  ASSERT_GT(b0.port, 0);
  ASSERT_GT(b1.port, 0);

  RouterOptions options;
  options.backends = {
      serve::parse_endpoint("tcp:127.0.0.1:" + std::to_string(b0.port)),
      serve::parse_endpoint("tcp:127.0.0.1:" + std::to_string(b1.port)),
  };
  options.listen = serve::parse_endpoint("tcp:127.0.0.1:0");
  options.probe_interval_ms = 50;
  options.probe_timeout_ms = 500;
  options.probe_down_after = 2;
  options.forward_timeout_ms = 3000;
  RouterServer router(options);

  serve::ModelConfig cfg;
  cfg.architecture = "lenet-mini";
  cfg.backend = serve::BackendKind::kFp32;
  cfg.init_seed = 5;
  serve::ModelRegistry reference_registry;
  reference_registry.add("lenet-mini", cfg);
  serve::ServeCore reference(reference_registry, serve::BatchOptions{});

  nn::Rng rng(78);
  std::vector<nn::Tensor> images;
  for (int i = 0; i < 40; ++i) {
    nn::Tensor t({1, 28, 28});
    for (int64_t j = 0; j < t.numel(); ++j) {
      t[j] = rng.uniform(0.0f, 1.0f);
    }
    images.push_back(std::move(t));
  }

  // Hot-load a bit-identical v2 onto backend 0 over its control socket:
  // the rollout shadows every request backend 0 serves from here on.
  serve::SocketClient control("tcp:127.0.0.1:" + std::to_string(b0.port));
  serve::LoadVersionRequest load;
  load.name = "lenet-mini@v2";
  load.init_seed = 5;  // same seed as v1: every prediction agrees
  const serve::RolloutReply loaded = control.load_version(load);
  ASSERT_TRUE(loaded.ok) << loaded.message;

  auto client = std::make_unique<serve::SocketClient>(router.endpoint());
  uint64_t retries = 0;
  int dropped = 0;
  for (size_t i = 0; i < images.size(); ++i) {
    if (i == 12) {
      // SIGKILL the *other* backend mid-rollout: the fleet keeps serving
      // and backend 0's rollout keeps judging, undisturbed.
      ::kill(b1.pid, SIGKILL);
      int status = 0;
      ::waitpid(b1.pid, &status, 0);
      b1.pid = -1;
    }
    const Response expect = reference.infer("lenet-mini", images[i]);
    ASSERT_EQ(expect.status, Status::kOk) << expect.error;
    bool ok = false;
    for (int attempt = 0; attempt < 30 && !ok; ++attempt) {
      if (attempt > 0) {
        ++retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      try {
        const Response r = client->infer("lenet-mini", images[i]);
        if (r.status == Status::kOk) {
          EXPECT_EQ(r.prediction, expect.prediction) << "request " << i;
          ok = true;
        }
      } catch (const std::exception&) {
        client = std::make_unique<serve::SocketClient>(router.endpoint());
      }
    }
    if (!ok) ++dropped;
  }
  EXPECT_EQ(dropped, 0);

  // The rollout auto-promotes from the shadowed traffic + canary battery
  // (same seed: nothing can diverge).
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  std::string status_text;
  while (std::chrono::steady_clock::now() < deadline) {
    status_text = control.rollout_status("lenet-mini").message;
    if (status_text.find("promoted") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_NE(status_text.find("promoted"), std::string::npos) << status_text;

  // Bare-name traffic now serves v2 with identical predictions, and v1
  // stays reachable by its explicit name as a standby.
  const Response via_v2 = control.infer("lenet-mini", images[0]);
  EXPECT_EQ(via_v2.status, Status::kOk) << via_v2.error;
  const Response via_v1 = control.infer("lenet-mini@v1", images[0]);
  EXPECT_EQ(via_v1.status, Status::kOk) << via_v1.error;
  EXPECT_EQ(via_v1.prediction, via_v2.prediction);

  // The router's prober learns the flip from the health acks: backend 0
  // now advertises lenet-mini@v2.
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool labeled = false;
  while (!labeled && std::chrono::steady_clock::now() < deadline) {
    for (const BackendSnapshot& s : router.pool().stats()) {
      for (const serve::ModelVersionLabel& label : s.versions) {
        if (label.model == "lenet-mini" && label.version == "v2") {
          labeled = true;
        }
      }
    }
    if (!labeled) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(labeled) << "prober never saw the promoted version label";

  reap(b0, SIGTERM);
  reap(b1, SIGKILL);
}

}  // namespace
}  // namespace qsnc::router
