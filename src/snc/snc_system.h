// Behavioural simulator of the memristor-based SNC executing a deployed,
// quantized network.
//
// Deployment contract: the source network's weights must already lie on the
// N-bit cluster grid (core::apply_weight_clustering) — program_network()
// maps each weight to its signed grid level and programs a differential
// crossbar pair per layer. Inference then runs entirely in the spiking
// domain: integer signals are rate-coded into windows of T = 2^M - 1 slots,
// crossbar column currents are integrated by IFCs, and counters reconstruct
// the next layer's integer signals.
//
// Supported topologies: sequential Conv2d / ReLU / MaxPool2d / GlobalAvgPool
// / Flatten / Dense networks plus pad-identity ResidualBlock
// composites — i.e. all three model-zoo networks. Batch norms must be
// folded into their convolutions first (core::fold_batchnorm); the
// constructor verifies every remaining BN is the exact identity and
// rejects unfolded networks loudly. Residual shortcuts execute as digital
// adds on the counter outputs (subsample + zero-channel-pad), with the
// block's output rectification applied after the add.
//
// Integration modes:
//  * kIdealIntegration — the IFC defers firing to the window end, so the
//    spike count equals clamp(round(column_sum + bias), 0, T). This is
//    bit-exact with the quantized network (tests assert equality) and fast
//    (no slot loop).
//  * kOnline — physical IFC semantics: the membrane integrates slot by
//    slot and fires whenever it crosses threshold (subtractive reset).
//    With mixed-sign weights an early fire cannot be revoked, so results
//    can deviate by a spike — the coding ablation bench measures how much
//    accuracy this costs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/network.h"
#include "snc/crossbar.h"
#include "snc/mapper.h"
#include "snc/programming.h"
#include "snc/spike.h"

namespace qsnc::snc {

enum class IntegrationMode { kIdealIntegration, kOnline };

/// Closed-loop fault-recovery knobs. Both off by default. Stuck faults are
/// a static per-cell map in every mode (drawn at construction whenever a
/// stuck rate is nonzero); recovery changes only how the crossbars are
/// programmed around that map, and fills the fault report.
struct FaultRecoveryConfig {
  /// Closed-loop write-verify programming with differential compensation
  /// and (when spare_cols > 0) fault-aware column remapping.
  bool write_verify = false;
  /// Spare physical columns per crossbar reserved for remapping.
  int64_t spare_cols = 0;

  bool enabled() const { return write_verify || spare_cols > 0; }
};

struct SncConfig {
  int signal_bits = 4;  // M
  int weight_bits = 4;  // N
  /// Cluster grid scales from weight clustering: one entry per
  /// crossbar-backed layer (conv/dense, in network order) for per-layer
  /// clustering, or a single shared entry for per-network clustering. Each
  /// layer's scale fixes its conductance-to-weight conversion factor (the
  /// per-layer IFC threshold in hardware).
  std::vector<float> weight_scales{1.0f};
  float input_scale = 16.0f;  // pixel -> signal-unit scale before encoding
  IntegrationMode mode = IntegrationMode::kIdealIntegration;
  bool stochastic_coding = false;  // Bernoulli instead of deterministic
  MemristorConfig device;
  FaultRecoveryConfig recovery;
  uint64_t seed = 7;  // programming variation + stochastic coding draws
};

/// Per-crossbar-stage activity counters for one inference. These are
/// properties of the *signals*, not of the code that executed them, so
/// infer(), infer_batch() and infer_reference() report identical numbers
/// (pinned by the equivalence tests); the runner's work is proportional
/// to `input_events`, a dense simulator's to `dense_row_drives()`.
struct SncStageStats {
  int64_t rows = 0;       // crossbar rows (receptive-field taps)
  int64_t cols = 0;       // crossbar columns (output channels)
  int64_t positions = 0;  // spatial evaluations (out_h * out_w, 1 for FC)
  /// Nonzero-signal row drives gathered across all positions — the rows
  /// that actually emit spikes / draw crossbar current.
  int64_t input_events = 0;
  /// Output spikes leaving the stage (post skip-add for residual tails).
  int64_t spikes = 0;
  /// (position, slot) pairs in which at least one row spiked; only
  /// counted by the slot-by-slot paths (online mode or stochastic
  /// coding), 0 in collapsed ideal reads.
  int64_t occupied_slots = 0;

  // Fault-tolerance counters. These are programming-time facts about the
  // stage's crossbar, identical on every inference path; all zero when
  // FaultRecoveryConfig is disabled.
  int64_t write_retries = 0;      // extra write-verify attempts
  int64_t faults_detected = 0;    // pairs that exhausted the retry budget
  int64_t faults_compensated = 0;  // recovered via partner compensation
  int64_t residual_faults = 0;    // still off-target after recovery
  int64_t remapped_cols = 0;      // logical columns routed onto spares

  /// Row drives a dense simulator performs for this stage.
  int64_t dense_row_drives() const { return rows * positions; }
  /// Fraction of row drives the runner skips: zero signals in the
  /// receptive fields (1.0 = all-zero input, 0.0 = fully dense).
  double input_sparsity() const {
    const int64_t dense = dense_row_drives();
    return dense > 0
               ? 1.0 - static_cast<double>(input_events) /
                           static_cast<double>(dense)
               : 0.0;
  }
};

/// Where one crossbar stage's host time went in the last call that
/// requested stats: SncSystem::last_call_timing(). These are properties of
/// the call, not of each image (a B-image call reports one entry per stage
/// for all B images), measured with a few steady_clock reads per chunk of
/// work. read_us is summed over the pool threads that ran the stage's
/// chunks, so with more than one thread it can exceed stage_us, the
/// stage's wall time.
struct SncStageTiming {
  /// Conductance-panel bytes the stage streamed (deterministic; the
  /// per-stage share of SncSystem::panel_bytes_streamed()).
  int64_t panel_bytes = 0;
  /// Event counts plus the read's drives: the padded input planes (conv)
  /// or the drive buffer and union mask (dense).
  double drive_us = 0.0;
  /// The read (thread sum); on conv stages it includes the epilogue,
  /// which runs fused in registers.
  double read_us = 0.0;
  /// Rounding sums into counts on dense stages; 0 on conv stages.
  double epilogue_us = 0.0;
  double stage_us = 0.0;     // the whole crossbar stage, wall time
  double pool_us = 0.0;      // digital pool stages that follow it
  double skip_us = 0.0;      // residual skip latch and skip add
};

/// Per-inference activity statistics.
struct SncStats {
  int64_t total_spikes = 0;   // spikes transported across all boundaries
  int64_t window_slots = 0;   // T
  int64_t layers = 0;         // crossbar-backed stages executed
  /// Per-stage activity, one entry per crossbar-backed stage in network
  /// order (filled whenever stats are requested).
  std::vector<SncStageStats> stage;

  /// Totals over all crossbar stages.
  int64_t input_events() const;
  int64_t dense_row_drives() const;
  /// Overall fraction of row drives the runner skips.
  double input_sparsity() const;

  /// Folds one inference's stats into this running total: spikes and the
  /// per-stage activity counters (positions, input events, spikes,
  /// occupied slots) sum; shape facts (window, layers, rows, cols) and the
  /// programming-time fault counters take `other`'s value.
  void add(const SncStats& other);
};

class SncSystem {
 public:
  /// Programs the crossbars from `net` (throws std::invalid_argument on an
  /// unsupported topology or weights off the grid beyond tolerance).
  SncSystem(nn::Network& net, const nn::Shape& input_chw,
            const SncConfig& config);
  ~SncSystem();  // out of line: Stage is an implementation detail

  /// Spike-level inference of one [C, H, W] image with pixels in [0, 1]:
  /// infer_batch() at B=1. Returns the predicted class. Hidden layers
  /// communicate through M-bit counters; the output layer is read with an
  /// analog winner-take-all (column charge comparison, as in the paper's
  /// substrate [12]), so sub-spike logit differences still resolve the
  /// argmax.
  int64_t infer(const nn::Tensor& image, SncStats* stats = nullptr);

  /// Inference of a [B, C, H, W] image stack through the crossbar-stage
  /// runner. Per crossbar stage each image's input_events is summed from a
  /// per-input tap fan-out table baked at programming time. A conv stage's
  /// collapsed ideal read copies each image's inputs once into a
  /// zero-padded plane and runs nn::conv_read with output positions in the
  /// SIMD lanes: 8 positions per vector, one fused multiply-add per
  /// crossbar cell, the rounding epilogue fused in registers and one
  /// contiguous store per column. A dense stage copies the B inputs into an
  /// image-minor drive buffer beside a union-nonzero mask and runs one
  /// image-tiled kernel (nn::accumulate_rows_batch, a tile of up to 8
  /// images on AVX-512, 4 on AVX2) over the rows live in some image, then
  /// one vectorized epilogue (nn::read_epilogue) per image. Slot modes
  /// (online integration, stochastic coding) gather the union rows once,
  /// encode every image's spike trains into per-slot firing-row lists, and
  /// run accumulate_rows_batch once per (image, occupied slot); their
  /// unrectified stages take the collapsed read above. Per-image spike
  /// trains, IFC state, slot occupancy, stochastic-coding RNG streams, and
  /// stats do not depend on the grouping: logits, predictions, and
  /// per-image SncStats are bit-identical to infer_reference() at every
  /// batch size, at any pool size and under every kernel dispatch tier.
  /// Returns one predicted class per image; `stats`, when non-null, is
  /// resized to B (and last_call_timing() filled). In ideal integration
  /// the buffers a call needs are owned by the system and by per-thread
  /// scratch, so once a call at the same B has run, a call allocates only
  /// its returned vector (plus stats entries when `stats` grows).
  std::vector<int64_t> infer_batch(const nn::Tensor& batch,
                                   std::vector<SncStats>* stats = nullptr);

  /// Reference oracle for tests and benches: the same network walk as
  /// infer(), but every crossbar stage is a deliberately naive dense
  /// simulator that drives every row at every position through each
  /// physical array's own read (Crossbar::read_columns /
  /// read_columns_spiking) and routes columns with physical_column(). It
  /// never reads the packed panel the runner streams, so a panel that went
  /// stale against its arrays (a defect pin or a spare remap) shows up as
  /// a mismatch. Draws the next stochastic-coding stream like infer(), sets
  /// last_logits(), and streams no panel bytes.
  int64_t infer_reference(const nn::Tensor& image, SncStats* stats = nullptr);

  /// Output-layer analog charges (weight units) of the last image run by
  /// any of the calls above.
  const std::vector<double>& last_logits() const { return last_logits_; }

  /// Per-image output-layer charges of the last call.
  const std::vector<std::vector<double>>& last_batch_logits() const {
    return last_batch_logits_;
  }

  /// Cumulative conductance-panel bytes streamed by the runner's crossbar
  /// reads since construction; each row pass counts 2*cols doubles. A conv
  /// stage's read streams one panel row per (image, 8-position lane group,
  /// crossbar row), rows whose 8 drives are all zero included (the SIMD
  /// tiers skip their multiply-adds), so it is a function of the shape
  /// alone. A dense stage streams each row live in some image of the batch
  /// once, and a slot read each (union row, firing slot) once.
  /// infer_reference() streams none.
  int64_t panel_bytes_streamed() const {
    return panel_bytes_.load(std::memory_order_relaxed);
  }

  /// Per-crossbar-stage host timing of the last inference call, one entry
  /// per crossbar stage in network order; empty when that call did not
  /// request stats. The timer only runs when stats are requested, which
  /// the serving backend does on every window.
  const std::vector<SncStageTiming>& last_call_timing() const {
    return timing_;
  }

  /// Reads a programmed weight back through the conductance domain
  /// (crossbar `layer`, logical row/col) — used by round-trip tests.
  float read_back_weight(size_t layer, int64_t row, int64_t col) const;

  size_t stage_count() const { return stages_.size(); }
  const SncConfig& config() const { return config_; }

  /// Aggregate fault-tolerance counters over all crossbar stages (all
  /// zero when recovery is disabled).
  FaultReport fault_report() const;

 private:
  struct Stage;

  /// Per-image integer signals between stages (spike counts, CHW-major).
  /// int32 holds every count: rectified stages stay in [0, T] and the
  /// read epilogue saturates unrectified ones to the int32 range.
  using Signals = std::vector<std::vector<int32_t>>;

  /// Stochastic coding draws from a per-inference stream: image k of the
  /// system's lifetime (counting across every inference call in order)
  /// draws from stream_seed(config.seed, kCodingStreamBase + k).
  /// Stream-per-image seeding is what keeps stochastic results
  /// bit-identical regardless of how images are grouped into batches. The
  /// base tag keeps coding streams disjoint from the raw programming seed.
  static constexpr uint64_t kCodingStreamBase = uint64_t{1} << 40;
  nn::Rng next_coding_rng();

  /// A crossbar-stage executor over a group of images: fills outputs[b]
  /// (presized), the input_events and occupied_slots of stats[b] (entries
  /// may be null) and, on the final readout stage, readout_[b].
  /// coding_rngs[b] is image b's stochastic stream (empty unless
  /// stochastic coding is on).
  using StageRunner = void (SncSystem::*)(
      const Stage& stage, const Signals& inputs, Signals& outputs,
      const std::vector<SncStageStats*>& stats,
      std::vector<nn::Rng>& coding_rngs);
  /// The crossbar-stage runner behind infer() and infer_batch(): fan-out
  /// event counts, then the collapsed ideal read (nn::conv_read over
  /// (image, lane group) items on conv stages, one image-tiled
  /// nn::accumulate_rows_batch call and epilogue on dense stages), or one
  /// kernel call per (image, occupied slot) over a union gather (slot
  /// modes).
  void run_crossbar_stage(const Stage& stage, const Signals& inputs,
                          Signals& outputs,
                          const std::vector<SncStageStats*>& stats,
                          std::vector<nn::Rng>& coding_rngs);
  /// The dense oracle behind infer_reference().
  void run_reference_stage(const Stage& stage, const Signals& inputs,
                           Signals& outputs,
                           const std::vector<SncStageStats*>& stats,
                           std::vector<nn::Rng>& coding_rngs);
  /// The network walk shared by every inference call: encodes `count`
  /// [C, H, W] images starting at `pixels`, runs crossbar stages through
  /// `run_stage` and the digital stages in place, and reads out logits and
  /// predictions.
  std::vector<int64_t> run_network(const float* pixels, int64_t count,
                                   std::vector<SncStats>* stats,
                                   StageRunner run_stage);
  /// run_network over one [C, H, W] image (shape-checked).
  int64_t run_one(const nn::Tensor& image, SncStats* stats,
                  StageRunner run_stage);

  /// Digital pool stage from `input` into `output` (resized).
  void run_pool_stage(const Stage& stage, const std::vector<int32_t>& input,
                      std::vector<int32_t>& output) const;
  /// Digital pad-identity skip add in place; returns post-add spikes.
  int64_t apply_skip_add(const Stage& stage, std::vector<int32_t>& signal,
                         const std::vector<int32_t>& skip) const;

  SncConfig config_;
  nn::Shape input_chw_;
  std::vector<std::unique_ptr<Stage>> stages_;
  size_t crossbar_stage_count_ = 0;
  std::vector<double> last_logits_;
  std::vector<std::vector<double>> last_batch_logits_;
  /// Per-image final-stage charges of the running call.
  std::vector<std::vector<double>> readout_;
  std::atomic<int64_t> panel_bytes_{0};
  std::vector<SncStageTiming> timing_;
  /// The running stage's timing entry (null when stats are off).
  SncStageTiming* stage_timing_ = nullptr;

  // Call workspace, reused across calls so a steady-state ideal-read call
  // at a fixed batch size allocates only its result: per-image signals
  // ping-pong between signals_ and next_ stage by stage, skips_ latches
  // residual inputs, planes_ holds a conv stage's padded input planes (one
  // per image), and drives_ / live_ / events_ / acc_ are a dense stage's
  // image-minor drive buffer, union mask, event list and column sums.
  Signals signals_;
  Signals next_;
  Signals skips_;
  std::vector<double> planes_;
  std::vector<double> drives_;
  std::vector<uint8_t> live_;
  std::vector<int32_t> events_;
  std::vector<double> acc_;
  std::vector<nn::Rng> coding_rngs_;
  std::vector<SncStageStats*> stage_stats_;
  uint64_t coding_streams_issued_ = 0;
  nn::Rng rng_;
};

}  // namespace qsnc::snc
