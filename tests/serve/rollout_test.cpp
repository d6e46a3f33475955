// Model-lifecycle correctness: the versioned registry's resolution and
// immutability rules, the corrupt-checkpoint contract (a bad image over
// the hot-load path must fail structurally and leave the registry
// untouched), and the blue/green rollout state machine — shadow ->
// auto-promote on agreement, shadow -> auto-rollback on injected
// divergence, and the rejected operator transitions (double-promote,
// rollback-after-promote).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "models/model_zoo.h"
#include "nn/network.h"
#include "nn/rng.h"
#include "nn/serialize.h"
#include "serve/model_registry.h"
#include "serve/rollout.h"
#include "serve/server.h"

namespace qsnc::serve {
namespace {

ModelConfig lenet_config(uint64_t seed) {
  ModelConfig cfg;
  cfg.architecture = "lenet-mini";
  cfg.backend = BackendKind::kFp32;
  cfg.init_seed = seed;
  return cfg;
}

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

std::vector<uint8_t> lenet_checkpoint_bytes(uint64_t seed) {
  nn::Rng rng(seed);
  nn::Network net = models::make_lenet_mini(rng);
  return nn::save_state_bytes(net);
}

/// Polls the controller until the rollout leaves kShadow (or times out —
/// the caller then fails on the state assertion with the full report).
RolloutReport await_decision(RolloutController& rollout,
                             int64_t timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const RolloutReport r = rollout.report();
    if (r.state == RolloutState::kPromoted ||
        r.state == RolloutState::kRolledBack ||
        std::chrono::steady_clock::now() >= deadline) {
      return r;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---------------------------------------------------------------------------
// Versioned registry
// ---------------------------------------------------------------------------

TEST(VersionedRegistryTest, BareNamesResolveToTheActiveVersion) {
  ModelRegistry registry;
  registry.add("lenet-mini@v1", lenet_config(5));
  registry.add("lenet-mini@v2", lenet_config(5));

  // First registered version of a base is active; later ones standby.
  EXPECT_EQ(registry.resolve("lenet-mini"), "lenet-mini@v1");
  EXPECT_EQ(registry.resolve("lenet-mini@v1"), "lenet-mini@v1");
  EXPECT_EQ(registry.resolve("lenet-mini@v2"), "lenet-mini@v2");
  EXPECT_EQ(registry.resolve("lenet-mini@v9"), "");
  EXPECT_EQ(registry.resolve("unknown"), "");
  EXPECT_EQ(registry.state("lenet-mini@v1"), VersionState::kActive);
  EXPECT_EQ(registry.state("lenet-mini@v2"), VersionState::kStandby);
  EXPECT_EQ(registry.active_key("lenet-mini"), "lenet-mini@v1");
}

TEST(VersionedRegistryTest, VersionsAreImmutableOnceRegistered) {
  ModelRegistry registry;
  registry.add("lenet-mini@v1", lenet_config(5));
  EXPECT_THROW(registry.add("lenet-mini@v1", lenet_config(6)),
               std::invalid_argument);
  // The failed re-register did not clobber the original entry.
  EXPECT_EQ(registry.config("lenet-mini@v1").init_seed, 5u);
}

TEST(VersionedRegistryTest, SetActiveFlipsThePointerAndDemotesBlue) {
  ModelRegistry registry;
  registry.add("lenet-mini@v1", lenet_config(5));
  registry.add("lenet-mini@v2", lenet_config(5));

  registry.set_active("lenet-mini", "lenet-mini@v2");
  EXPECT_EQ(registry.resolve("lenet-mini"), "lenet-mini@v2");
  EXPECT_EQ(registry.state("lenet-mini@v2"), VersionState::kActive);
  EXPECT_EQ(registry.state("lenet-mini@v1"), VersionState::kStandby);

  const std::vector<ModelVersionLabel> labels = registry.active_versions();
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0].model, "lenet-mini");
  EXPECT_EQ(labels[0].version, "v2");

  // Bad flips are rejected with the registry unchanged.
  EXPECT_THROW(registry.set_active("lenet-mini", "lenet-mini@v9"),
               std::invalid_argument);
  registry.set_state("lenet-mini@v1", VersionState::kQuarantined);
  EXPECT_THROW(registry.set_active("lenet-mini", "lenet-mini@v1"),
               std::invalid_argument);
  EXPECT_EQ(registry.resolve("lenet-mini"), "lenet-mini@v2");
}

// ---------------------------------------------------------------------------
// Corrupt / truncated checkpoints (the hot-load safety contract)
// ---------------------------------------------------------------------------

TEST(VersionedRegistryTest, CorruptCheckpointBytesLeaveTheRegistryUntouched) {
  ModelRegistry registry;
  registry.add("lenet-mini@v1", lenet_config(5));
  const std::vector<uint8_t> good = lenet_checkpoint_bytes(21);

  // Flipped payload byte: the CRC catches it before any tensor loads.
  std::vector<uint8_t> corrupt = good;
  corrupt[corrupt.size() / 2] ^= 0xff;
  try {
    registry.add_from_bytes("lenet-mini@v2", lenet_config(21), corrupt);
    FAIL() << "corrupt checkpoint registered";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(registry.contains("lenet-mini@v2"));

  // Truncations at every interesting depth: header, CRC field, payload.
  for (const size_t cut : {size_t{0}, size_t{3}, size_t{10},
                           good.size() / 2, good.size() - 1}) {
    const std::vector<uint8_t> truncated(
        good.begin(), good.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_THROW(registry.add_from_bytes("lenet-mini@v2", lenet_config(21),
                                         truncated),
                 std::runtime_error)
        << "cut at " << cut;
    EXPECT_FALSE(registry.contains("lenet-mini@v2")) << "cut at " << cut;
  }

  // Bad magic is distinguished from a bad checksum.
  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xff;
  try {
    registry.add_from_bytes("lenet-mini@v2", lenet_config(21), bad_magic);
    FAIL() << "bad-magic checkpoint registered";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }

  // A well-formed version-1 image (no CRC field) must not slip past the
  // checksum by claiming the old version.
  std::vector<uint8_t> v1 = good;
  v1.erase(v1.begin() + 8, v1.begin() + 12);  // drop the CRC field
  v1[4] = 1;
  try {
    registry.add_from_bytes("lenet-mini@v2", lenet_config(21), v1);
    FAIL() << "v1-tagged checkpoint registered";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(registry.contains("lenet-mini@v2"));

  // The same name still registers fine from the intact image: nothing
  // was half-registered by the failures above.
  registry.add_from_bytes("lenet-mini@v2", lenet_config(21), good);
  EXPECT_TRUE(registry.contains("lenet-mini@v2"));
  EXPECT_EQ(registry.state("lenet-mini@v2"), VersionState::kStandby);
  // And the restored weights are the saved ones: v2 predicts exactly as
  // a fresh seed-21 network would.
  ModelRegistry reference;
  reference.add("ref", lenet_config(21));
  for (const nn::Tensor& img : random_images(4, 77)) {
    nn::Tensor batch({1, 1, 28, 28});
    std::copy(img.data(), img.data() + img.numel(), batch.data());
    nn::Tensor batch2 = batch;
    const auto a = registry.backend("lenet-mini@v2").infer_batch(batch);
    const auto b = reference.backend("ref").infer_batch(batch2);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a[0], b[0]);
  }
}

// ---------------------------------------------------------------------------
// Rollout state machine
// ---------------------------------------------------------------------------

struct RolloutFixtureOptions {
  RolloutOptions rollout;
  uint64_t green_seed = 5;
};

class RolloutFixture : public ::testing::Test {
 protected:
  /// Blue = lenet-mini@v1 from seed 5. Tests pick green's seed: 5 makes
  /// a bit-identical twin (every prediction agrees), anything else makes
  /// an honestly divergent candidate (fresh random init).
  void start_core(const RolloutOptions& rollout) {
    registry_.add("lenet-mini@v1", lenet_config(5));
    BatchOptions opts;
    opts.max_batch = 4;
    opts.batch_timeout_us = 200;
    opts.queue_capacity = 4096;
    core_ = std::make_unique<ServeCore>(registry_, opts, rollout);
  }

  RolloutReply load_green(uint64_t seed, const std::string& name =
                                             "lenet-mini@v2") {
    LoadVersionRequest request;
    request.name = name;
    request.init_seed = seed;
    return core_->load_version(request);
  }

  void drive_traffic(int n) {
    std::vector<std::future<Response>> futures;
    for (const nn::Tensor& img : random_images(n, 4242)) {
      futures.push_back(core_->infer_async("lenet-mini", img));
    }
    for (auto& f : futures) {
      const Response r = f.get();
      EXPECT_EQ(r.status, Status::kOk) << r.error;
    }
  }

  ModelRegistry registry_;
  std::unique_ptr<ServeCore> core_;
};

TEST_F(RolloutFixture, ShadowThenAutoPromoteOnAgreement) {
  RolloutOptions rollout;
  rollout.shadow_fraction = 1.0;
  rollout.observe_requests = 8;
  rollout.canary_rounds = 1;
  rollout.canary_interval_ms = 2;
  start_core(rollout);

  const RolloutReply loaded = load_green(/*seed=*/5);
  ASSERT_TRUE(loaded.ok) << loaded.message;
  EXPECT_EQ(registry_.state("lenet-mini@v2"), VersionState::kShadow);

  drive_traffic(16);
  const RolloutReport report = await_decision(core_->rollout());
  ASSERT_EQ(report.state, RolloutState::kPromoted) << report.reason;
  EXPECT_GE(report.compared, 8u);
  EXPECT_EQ(report.diverged, 0u);
  EXPECT_GE(report.canary_rounds_ok, 1u);
  EXPECT_NE(report.reason.find("auto-promoted"), std::string::npos)
      << report.reason;

  // The flip is visible to new bare-name traffic; blue stays reachable
  // by its explicit name as a standby.
  EXPECT_EQ(registry_.resolve("lenet-mini"), "lenet-mini@v2");
  EXPECT_EQ(registry_.state("lenet-mini@v1"), VersionState::kStandby);
  EXPECT_EQ(core_->infer("lenet-mini@v1", random_images(1, 9)[0]).status,
            Status::kOk);
}

TEST_F(RolloutFixture, CanaryDivergenceAutoRollsBackWithoutTraffic) {
  RolloutOptions rollout;
  rollout.canary_interval_ms = 2;
  rollout.canary_images = 4;
  start_core(rollout);

  // Different seed = genuinely different weights: the deterministic
  // canary battery alone must catch it, with zero live requests shadowed.
  const RolloutReply loaded = load_green(/*seed=*/7);
  ASSERT_TRUE(loaded.ok) << loaded.message;

  const RolloutReport report = await_decision(core_->rollout());
  ASSERT_EQ(report.state, RolloutState::kRolledBack) << report.reason;
  EXPECT_GT(report.canary_diverged, 0u);
  EXPECT_NE(report.reason.find("canary"), std::string::npos) << report.reason;
  EXPECT_EQ(registry_.state("lenet-mini@v2"), VersionState::kQuarantined);

  // Blue is untouched and still active; the quarantined version refuses
  // explicit requests with a structured error.
  EXPECT_EQ(registry_.resolve("lenet-mini"), "lenet-mini@v1");
  EXPECT_EQ(core_->infer("lenet-mini", random_images(1, 9)[0]).status,
            Status::kOk);
  const Response refused =
      core_->infer("lenet-mini@v2", random_images(1, 9)[0]);
  EXPECT_EQ(refused.status, Status::kError);
  EXPECT_NE(refused.error.find("quarantined"), std::string::npos)
      << refused.error;
}

TEST_F(RolloutFixture, ShadowDivergenceOnLiveTrafficRollsBack) {
  RolloutOptions rollout;
  rollout.shadow_fraction = 1.0;
  rollout.min_compared_for_rollback = 4;
  rollout.observe_requests = 1000000;       // promote can never win
  rollout.canary_interval_ms = 600000;      // park the canary battery
  start_core(rollout);

  ASSERT_TRUE(load_green(/*seed=*/7).ok);
  // Fresh random-init networks disagree on most images; with
  // max_divergence 0 a single disagreement past min_compared decides.
  for (int round = 0; round < 50; ++round) {
    if (core_->rollout().report().state != RolloutState::kShadow) break;
    drive_traffic(8);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const RolloutReport report = await_decision(core_->rollout());
  ASSERT_EQ(report.state, RolloutState::kRolledBack) << report.reason;
  EXPECT_GT(report.diverged, 0u);
  EXPECT_EQ(report.canary_diverged, 0u);  // the battery never ran
  EXPECT_NE(report.reason.find("shadow divergence"), std::string::npos)
      << report.reason;
}

TEST_F(RolloutFixture, OperatorPromoteThenDoublePromoteIsRejected) {
  RolloutOptions rollout;
  rollout.auto_decide = false;  // observation only; the operator decides
  rollout.canary_interval_ms = 2;
  start_core(rollout);

  ASSERT_TRUE(load_green(/*seed=*/5).ok);
  RolloutController& ctl = core_->rollout();

  const RolloutReply promoted = ctl.promote("");
  ASSERT_TRUE(promoted.ok) << promoted.message;
  EXPECT_EQ(registry_.resolve("lenet-mini"), "lenet-mini@v2");

  const RolloutReply again = ctl.promote("lenet-mini");
  EXPECT_FALSE(again.ok);
  EXPECT_NE(again.message.find("double-promote"), std::string::npos)
      << again.message;

  const RolloutReply rollback = ctl.rollback("lenet-mini", "too late");
  EXPECT_FALSE(rollback.ok);
  EXPECT_NE(rollback.message.find("rollback-after-promote"),
            std::string::npos)
      << rollback.message;
  // The rejected transitions changed nothing.
  EXPECT_EQ(registry_.resolve("lenet-mini"), "lenet-mini@v2");
  EXPECT_EQ(registry_.state("lenet-mini@v2"), VersionState::kActive);
}

TEST_F(RolloutFixture, OperatorRollbackQuarantinesGreenWithTheGivenReason) {
  RolloutOptions rollout;
  rollout.auto_decide = false;
  start_core(rollout);

  ASSERT_TRUE(load_green(/*seed=*/5).ok);
  RolloutController& ctl = core_->rollout();

  const RolloutReply rolled = ctl.rollback("lenet-mini@v2", "operator veto");
  ASSERT_TRUE(rolled.ok) << rolled.message;
  EXPECT_EQ(registry_.state("lenet-mini@v2"), VersionState::kQuarantined);
  EXPECT_EQ(core_->rollout().report().reason, "operator veto");

  const RolloutReply promote = ctl.promote("");
  EXPECT_FALSE(promote.ok);
  EXPECT_NE(promote.message.find("rolled back"), std::string::npos)
      << promote.message;
  EXPECT_EQ(registry_.resolve("lenet-mini"), "lenet-mini@v1");
}

TEST_F(RolloutFixture, BeginRejectsBadCandidatesWithStructuredReasons) {
  RolloutOptions rollout;
  rollout.auto_decide = false;
  start_core(rollout);
  RolloutController& ctl = core_->rollout();

  EXPECT_FALSE(ctl.begin("lenet-mini@v9").ok);   // unknown
  EXPECT_FALSE(ctl.begin("lenet-mini@v1").ok);   // already active
  EXPECT_FALSE(ctl.promote("").ok);              // nothing started
  EXPECT_FALSE(ctl.rollback("", "").ok);

  // A second candidate cannot start while one is shadowing.
  ASSERT_TRUE(load_green(/*seed=*/5, "lenet-mini@v2").ok);
  const RolloutReply overlapped = load_green(/*seed=*/5, "lenet-mini@v3");
  ASSERT_TRUE(overlapped.ok);  // the load lands (standby)...
  EXPECT_NE(overlapped.message.find("rollout not started"),
            std::string::npos)
      << overlapped.message;  // ...but no second rollout begins
  EXPECT_EQ(registry_.state("lenet-mini@v3"), VersionState::kStandby);

  // A quarantined version can never be a candidate again.
  ASSERT_TRUE(ctl.rollback("", "clearing the deck").ok);
  EXPECT_FALSE(ctl.begin("lenet-mini@v2").ok);
}

// ---------------------------------------------------------------------------
// The socket hot-load path (kLoadVersion end to end)
// ---------------------------------------------------------------------------

TEST(RolloutSocketTest, CorruptCheckpointOverTheSocketIsAStructuredError) {
  ModelRegistry registry;
  registry.add("lenet-mini@v1", lenet_config(5));
  BatchOptions opts;
  opts.batch_timeout_us = 200;
  RolloutOptions rollout;
  rollout.auto_decide = false;
  ServeCore core(registry, opts, rollout);
  SocketServer server(core, "tcp:127.0.0.1:0");
  SocketClient client(server.endpoint());

  const std::vector<uint8_t> good = lenet_checkpoint_bytes(21);
  std::vector<uint8_t> corrupt = good;
  corrupt[corrupt.size() - 5] ^= 0x01;

  LoadVersionRequest request;
  request.name = "lenet-mini@v2";
  request.init_seed = 21;
  request.state = corrupt;
  const RolloutReply refused = client.load_version(request);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.message.find("load:"), std::string::npos)
      << refused.message;
  EXPECT_NE(refused.message.find("checksum"), std::string::npos)
      << refused.message;
  // Nothing registered, nothing serving: the registry was untouched.
  EXPECT_FALSE(registry.contains("lenet-mini@v2"));
  EXPECT_EQ(client.rollout_status("").message, "no rollout in progress");

  // Truncated image: same contract.
  request.state.assign(good.begin(), good.begin() + 7);
  EXPECT_FALSE(client.load_version(request).ok);
  EXPECT_FALSE(registry.contains("lenet-mini@v2"));

  // The intact image hot-loads, shadows, and an operator promote flips
  // the active version — the full lifecycle over one connection.
  request.state = good;
  const RolloutReply loaded = client.load_version(request);
  ASSERT_TRUE(loaded.ok) << loaded.message;
  EXPECT_EQ(registry.state("lenet-mini@v2"), VersionState::kShadow);
  EXPECT_NE(client.rollout_status("lenet-mini").message.find("shadow"),
            std::string::npos);
  const RolloutReply promoted = client.promote("lenet-mini");
  ASSERT_TRUE(promoted.ok) << promoted.message;
  EXPECT_EQ(registry.resolve("lenet-mini"), "lenet-mini@v2");

  const nn::Tensor image = random_images(1, 3)[0];
  EXPECT_EQ(client.infer("lenet-mini", image).status, Status::kOk);
  server.stop();
}

}  // namespace
}  // namespace qsnc::serve
