// Pluggable inference backends for the serving runtime.
//
// A Backend answers one question — "class predictions for this image
// batch" — behind which the three execution paths of the reproduction sit:
//
//  * fp32  — plain float Network::forward at the training input scale.
//  * quant — the paper's deployed M-bit path: inputs are encoded like the
//            SNC input encoder would (scale, round, clamp) and inter-layer
//            signals run through the attached IntegerSignalQuantizer.
//  * snc   — full spike-level execution on SncSystem. A micro-batch window
//            runs whole through one programmed system's infer_batch; a
//            fault-diversity deployment (per_replica_seeds) keeps a pool
//            of differently seeded replicas and rotates windows over the
//            healthy ones.
//
// Contracts: infer_batch takes [N, C, H, W] pixels in [0, 1] and returns N
// predictions in order. A Backend instance is driven by one batcher thread
// at a time (the MicroBatcher is its only caller); it may parallelize
// internally. Backends never mutate their Network between calls, so
// results are deterministic for a given checkpoint.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/fixed_point.h"
#include "core/int_quant_engine.h"
#include "nn/network.h"
#include "nn/tensor.h"
#include "snc/snc_system.h"

namespace qsnc::serve {

class Backend {
 public:
  virtual ~Backend() = default;

  /// Backend kind name ("fp32" | "quant" | "snc"), for reports.
  virtual const std::string& kind() const = 0;

  /// Per-image input shape [C, H, W] this backend expects.
  virtual const nn::Shape& input_shape() const = 0;

  /// Class predictions for a [N, C, H, W] batch with pixels in [0, 1].
  /// Throws std::invalid_argument on a shape mismatch.
  virtual std::vector<int64_t> infer_batch(const nn::Tensor& batch) = 0;

  /// Optional backend-specific activity report appended to the serving
  /// stats table (e.g. the snc backend's per-stage spike/sparsity
  /// counters). Empty when the backend has nothing to add.
  virtual std::string activity_report() const { return std::string(); }

  /// True when the most recent infer_batch was served in a degraded mode
  /// (e.g. the snc backend falling back to its quant path because too many
  /// replicas are quarantined). Only meaningful between infer_batch calls
  /// from the single batcher thread that drives this backend.
  virtual bool last_batch_degraded() const { return false; }
};

/// Float forward pass at a fixed input scale (the signal-unit convention —
/// see core/qat_pipeline.h).
class Fp32Backend final : public Backend {
 public:
  Fp32Backend(nn::Network& net, nn::Shape input_chw,
              float input_scale = 16.0f);

  const std::string& kind() const override { return kind_; }
  const nn::Shape& input_shape() const override { return input_chw_; }
  std::vector<int64_t> infer_batch(const nn::Tensor& batch) override;

 private:
  std::string kind_ = "fp32";
  nn::Network& net_;
  nn::Shape input_chw_;
  float input_scale_;
};

/// Fake-quant integer path: attaches an M-bit IntegerSignalQuantizer to
/// the network for its lifetime and encodes inputs to the same grid.
/// Matches `qsnc eval --bits M` / core::evaluate_accuracy(..., bits).
///
/// When the deployed weights sit exactly on a dyadic fixed-point grid
/// (e.g. after weight clustering), the backend compiles the network into a
/// core::IntQuantEngine at construction and serves batches through the
/// true-integer GEMM path instead of fp32 — provably bit-identical
/// predictions (see int_quant_engine.h), no float multiplies in the hot
/// loop. Networks that fail the engine's exactness checks keep the float
/// path unchanged.
class QuantBackend final : public Backend {
 public:
  QuantBackend(nn::Network& net, nn::Shape input_chw, int bits);
  ~QuantBackend() override;

  const std::string& kind() const override { return kind_; }
  const nn::Shape& input_shape() const override { return input_chw_; }
  std::vector<int64_t> infer_batch(const nn::Tensor& batch) override;

  int bits() const { return bits_; }

  /// True when batches are served by the integer engine.
  bool integer_engine_active() const { return engine_ != nullptr; }

 private:
  std::string kind_ = "quant";
  nn::Network& net_;
  nn::Shape input_chw_;
  int bits_;
  float input_scale_;
  std::unique_ptr<core::IntegerSignalQuantizer> quantizer_;
  std::unique_ptr<core::IntQuantEngine> engine_;
};

/// Replica health monitoring knobs for the snc backend. Disabled by
/// default; when enabled, the first infer_batch runs a deterministic
/// canary batch through every replica and compares predictions against an
/// ideal-device reference system. A deviating replica is quarantined —
/// left out of the serving rotation, so no request is ever served from it.
/// One check suffices: a programmed replica's conductances never change,
/// so under deterministic coding (every registry deployment) its verdict
/// is fixed.
/// When the healthy fraction is below min_healthy_fraction the backend
/// degrades gracefully: batches run on the quant fallback path and
/// last_batch_degraded() turns true.
struct ReplicaHealthConfig {
  bool enabled = false;
  int canary_images = 2;            // canary batch size
  double min_healthy_fraction = 0.5;
  /// Build a pool of replicas whose SncConfig::seed is stream_seed(seed, i),
  /// so they draw *independent* device faults (fault diversity), and
  /// rotate windows over the healthy ones. Off by default: the backend
  /// then programs one system, since identically seeded replicas would be
  /// bit-identical.
  bool per_replica_seeds = false;
};

/// Point-in-time view of the snc backend's replica-health counters.
struct ReplicaHealthSnapshot {
  bool enabled = false;
  int64_t replicas = 0;
  int64_t healthy = 0;
  int64_t quarantined = 0;
  int64_t canary_runs = 0;          // per-replica canary evaluations
  int64_t degraded_batches = 0;     // batches served on the fallback
};

/// Spike-level execution on programmed SncSystem replicas. By default the
/// backend programs one system; fault-diversity deployments (health
/// enabled with per_replica_seeds) program a pool of differently seeded
/// replicas. Either way window w (counting infer_batch calls) runs whole
/// on healthy replica w mod H through SncSystem::infer_batch, so each
/// stage's panels stream once per window and the predictions depend only
/// on the sequence of windows — not on thread count or timing.
class SncBackend final : public Backend {
 public:
  /// Programs the system(s) from `net`. `replicas` sizes only a
  /// fault-diversity pool (<= 0 picks the thread-pool size); otherwise one
  /// system is built. `net` must already be BN-folded and weight-clustered
  /// per `config` (see ModelRegistry, which prepares it).
  SncBackend(nn::Network& net, nn::Shape input_chw,
             const snc::SncConfig& config, int replicas = 0,
             const ReplicaHealthConfig& health = {});

  const std::string& kind() const override { return kind_; }
  const nn::Shape& input_shape() const override { return input_chw_; }
  std::vector<int64_t> infer_batch(const nn::Tensor& batch) override;

  /// Per-stage spike / input-sparsity table aggregated over every image
  /// served so far (empty before the first inference), plus the replica
  /// health and fault-recovery counters when health monitoring is on.
  std::string activity_report() const override;
  bool last_batch_degraded() const override { return last_degraded_; }

  /// Aggregate activity over all served images (stage entries summed
  /// elementwise); `images` is the number of inferences folded in.
  snc::SncStats activity_totals(int64_t* images = nullptr) const;

  size_t replica_count() const { return replicas_.size(); }
  ReplicaHealthSnapshot health_snapshot() const;

  /// Invoked (from the batcher thread) whenever a replica is quarantined,
  /// with the replica index and the structured reason — the serving
  /// layer's durable state journal hooks here. Install before traffic
  /// flows; at most one hook.
  void set_quarantine_hook(
      std::function<void(size_t, const std::string&)> hook) {
    quarantine_hook_ = std::move(hook);
  }

  /// Direct replica access for tests and benches (panel traffic, fault
  /// injection via set_defect). Do not call while a batch is in flight.
  snc::SncSystem& replica(size_t i) { return *replicas_.at(i); }

 private:
  std::vector<int64_t> canary_predictions(snc::SncSystem& system) const;
  void run_health_check();
  std::vector<int64_t> infer_fallback(const nn::Tensor& batch);

  std::string kind_ = "snc";
  nn::Network& net_;
  nn::Shape input_chw_;
  int signal_bits_;
  std::vector<std::unique_ptr<snc::SncSystem>> replicas_;
  /// Replica indices in the serving rotation: every replica until the
  /// health check, the healthy ones after it.
  std::vector<size_t> healthy_;
  uint64_t windows_ = 0;  // infer_batch calls served by a replica

  // Health state, mutated only from the single batcher thread;
  // health_counters_ is also read by stats threads under health_mu_.
  ReplicaHealthConfig health_;
  bool checked_ = false;
  std::vector<nn::Tensor> canary_;
  std::vector<int64_t> canary_reference_;
  bool last_degraded_ = false;
  std::function<void(size_t, const std::string&)> quarantine_hook_;
  std::unique_ptr<QuantBackend> fallback_;
  mutable std::mutex health_mu_;
  ReplicaHealthSnapshot health_counters_;

  mutable std::mutex stats_mu_;
  snc::SncStats totals_;      // stage-wise sums over all served images
  int64_t stat_images_ = 0;
};

/// The snc activity tables that `qsnc deploy` and
/// SncBackend::activity_report print: per-stage spike and input-sparsity
/// counters averaged over `images` inferences (omitted when `images` is
/// 0), then the fault-recovery counters under `fault_title` (omitted when
/// `faults` programmed no cell, i.e. fault recovery is off).
std::string snc_activity_tables(const snc::SncStats& totals, int64_t images,
                                const snc::FaultReport& faults,
                                const std::string& fault_title);

/// Throws std::invalid_argument unless `batch` is [N, C, H, W] matching
/// the per-image shape. Returns N.
int64_t check_batch_shape(const nn::Tensor& batch, const nn::Shape& chw);

}  // namespace qsnc::serve
