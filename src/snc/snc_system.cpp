#include "snc/snc_system.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "core/bn_folding.h"
#include "core/fixed_point.h"
#include "nn/gemm.h"
#include "nn/im2col.h"
#include "nn/layers/conv2d.h"
#include "nn/layers/dense.h"
#include "nn/layers/flatten.h"
#include "nn/layers/pool.h"
#include "nn/layers/batchnorm.h"
#include "nn/layers/relu.h"
#include "nn/layers/residual.h"
#include "nn/max_pool_walk.h"
#include "util/thread_pool.h"

namespace qsnc::snc {

struct SncSystem::Stage {
  enum class Kind {
    kConv,
    kDense,
    kMaxPool,
    kGlobalAvgPool,
  };
  Kind kind = Kind::kConv;

  // Geometry (all stages).
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t out_c = 0, out_h = 0, out_w = 0;
  int64_t kernel = 0, stride = 0, pad = 0;

  // Crossbar-backed stages.
  std::unique_ptr<DifferentialCrossbar> xbar;  // [rows x cols] logical
  std::vector<float> bias;                     // per output column
  float step = 0.0f;     // weight units per grid level (scale / 2^N)
  bool rectify = false;  // followed by ReLU: clamp + M-bit counter ceiling

  // Programming pass counters (only populated when recovery is enabled).
  FaultReport fault;

  // Runner im2col tap table (conv stages): taps[pos * rows + r] is
  // the flat input index of receptive-field tap r at output position pos,
  // or -1 where the tap falls in the zero padding. Precomputed once at
  // construction so the gather is a table walk with no bounds arithmetic.
  std::vector<int32_t> taps;
  // Fan-out of each input signal (crossbar stages): the number of
  // (position, row) taps that read it — taps entries equal to the index
  // for conv stages, 1 for dense stages. A nonzero input produces exactly
  // fanout[i] row-drive events, so a stage's input_events is a sum over
  // its nonzero inputs rather than a count over every gathered tap.
  std::vector<int32_t> fanout;

  // Residual plumbing (pad-identity shortcuts). A save_skip stage latches
  // its *input* signal into the skip register before executing; an
  // add_skip stage adds the (subsampled, zero-channel-padded) register to
  // its raw counter outputs and then rectifies.
  bool save_skip = false;
  bool add_skip = false;
  int64_t skip_in_c = 0;    // channels of the latched signal
  int64_t skip_stride = 1;  // spatial subsample factor of the shortcut

  // Output layer: read with an analog winner-take-all instead of an M-bit
  // counter, so sub-spike logit differences survive.
  bool final_readout = false;
};

int64_t SncStats::input_events() const {
  int64_t total = 0;
  for (const SncStageStats& s : stage) total += s.input_events;
  return total;
}

int64_t SncStats::dense_row_drives() const {
  int64_t total = 0;
  for (const SncStageStats& s : stage) total += s.dense_row_drives();
  return total;
}

double SncStats::input_sparsity() const {
  const int64_t dense = dense_row_drives();
  return dense > 0 ? 1.0 - static_cast<double>(input_events()) /
                               static_cast<double>(dense)
                   : 0.0;
}

void SncStats::add(const SncStats& other) {
  total_spikes += other.total_spikes;
  window_slots = other.window_slots;
  layers = other.layers;
  if (stage.size() < other.stage.size()) stage.resize(other.stage.size());
  for (size_t s = 0; s < other.stage.size(); ++s) {
    SncStageStats& acc = stage[s];
    const SncStageStats& st = other.stage[s];
    acc.positions += st.positions;
    acc.input_events += st.input_events;
    acc.spikes += st.spikes;
    acc.occupied_slots += st.occupied_slots;
    acc.rows = st.rows;
    acc.cols = st.cols;
    acc.write_retries = st.write_retries;
    acc.faults_detected = st.faults_detected;
    acc.faults_compensated = st.faults_compensated;
    acc.residual_faults = st.residual_faults;
    acc.remapped_cols = st.remapped_cols;
  }
}

SncSystem::~SncSystem() = default;

SncSystem::SncSystem(nn::Network& net, const nn::Shape& input_chw,
                     const SncConfig& config)
    : config_(config), input_chw_(input_chw), rng_(config.seed) {
  if (input_chw.size() != 3) {
    throw std::invalid_argument("SncSystem: input shape must be [C,H,W]");
  }
  const int64_t kmax = int64_t{1} << (config.weight_bits - 1);
  if (config.weight_scales.empty()) {
    throw std::invalid_argument("SncSystem: weight_scales must not be empty");
  }

  int64_t c = input_chw[0], h = input_chw[1], w = input_chw[2];
  bool flattened = false;
  size_t xbar_index = 0;

  auto scale_for_stage = [&](size_t idx) {
    if (config_.weight_scales.size() == 1) return config_.weight_scales[0];
    if (idx >= config_.weight_scales.size()) {
      throw std::invalid_argument(
          "SncSystem: fewer weight_scales than crossbar layers");
    }
    return config_.weight_scales[idx];
  };

  auto program_matrix = [&](const nn::Tensor& weights, int64_t rows,
                            int64_t cols, Stage& stage) {
    const float step =
        scale_for_stage(xbar_index++) /
        static_cast<float>(int64_t{1} << config_.weight_bits);
    stage.step = step;
    const FaultRecoveryConfig& rec = config_.recovery;
    stage.xbar = std::make_unique<DifferentialCrossbar>(
        rows, cols, config_.device, rec.enabled() ? rec.spare_cols : 0);
    std::vector<int64_t> levels(static_cast<size_t>(rows * cols));
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t col = 0; col < cols; ++col) {
        // Weight layout: conv OIHW / dense [out, in] both expose
        // weight(col-th output, r-th input tap) at flat index col*rows + r.
        const float wv = weights[col * rows + r];
        const double level = wv / step;
        const int64_t k = std::llround(level);
        if (std::fabs(level - static_cast<double>(k)) > 1e-3 ||
            std::llabs(k) > kmax) {
          throw std::invalid_argument(
              "SncSystem: weight off the cluster grid; run "
              "apply_weight_clustering first");
        }
        levels[static_cast<size_t>(col * rows + r)] = k;
      }
    }
    // Stuck faults are a static per-cell property, drawn before any write
    // so every write (and every write-verify retry) meets the same fault.
    if (config_.device.stuck_off_rate > 0.0 ||
        config_.device.stuck_on_rate > 0.0) {
      stage.xbar->draw_defect_maps(rng_);
    }
    if (rec.write_verify) {
      stage.fault = program_verified(*stage.xbar, levels, kmax, rng_);
      return;
    }
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t col = 0; col < cols; ++col) {
        stage.xbar->program_cell(r, col,
                                 levels[static_cast<size_t>(col * rows + r)],
                                 kmax, &rng_);
      }
    }
    if (rec.enabled()) {
      stage.fault.cells = rows * cols;
      stage.fault.spare_cols_left = stage.xbar->spare_cols_left();
    }
  };

  // Bakes the im2col tap index table and the per-input fan-out for a conv
  // stage's current geometry.
  auto build_tap_table = [](Stage& stage) {
    const int64_t rows = stage.in_c * stage.kernel * stage.kernel;
    const int64_t positions = stage.out_h * stage.out_w;
    stage.taps.assign(static_cast<size_t>(positions * rows), -1);
    for (int64_t pos = 0; pos < positions; ++pos) {
      const int64_t oy = pos / stage.out_w;
      const int64_t ox = pos % stage.out_w;
      int32_t* row = stage.taps.data() + pos * rows;
      int64_t r = 0;
      for (int64_t ic = 0; ic < stage.in_c; ++ic) {
        for (int64_t ky = 0; ky < stage.kernel; ++ky) {
          for (int64_t kx = 0; kx < stage.kernel; ++kx, ++r) {
            const int64_t iy = oy * stage.stride - stage.pad + ky;
            const int64_t ix = ox * stage.stride - stage.pad + kx;
            if (iy >= 0 && iy < stage.in_h && ix >= 0 && ix < stage.in_w) {
              row[r] = static_cast<int32_t>((ic * stage.in_h + iy) *
                                                stage.in_w +
                                            ix);
            }
          }
        }
      }
    }
    stage.fanout.assign(
        static_cast<size_t>(stage.in_c * stage.in_h * stage.in_w), 0);
    for (const int32_t tap : stage.taps) {
      if (tap >= 0) ++stage.fanout[static_cast<size_t>(tap)];
    }
  };

  // Emits a crossbar stage for one convolution given the running geometry.
  auto make_conv_stage = [&](nn::Conv2d& conv) {
    auto stage = std::make_unique<Stage>();
    stage->kind = Stage::Kind::kConv;
    stage->in_c = c;
    stage->in_h = h;
    stage->in_w = w;
    stage->out_c = conv.out_channels();
    stage->kernel = conv.kernel();
    stage->stride = conv.stride();
    stage->pad = conv.pad();
    stage->out_h =
        nn::conv_out_extent(h, conv.kernel(), conv.stride(), conv.pad());
    stage->out_w =
        nn::conv_out_extent(w, conv.kernel(), conv.stride(), conv.pad());
    const int64_t rows = conv.in_channels() * conv.kernel() * conv.kernel();
    program_matrix(conv.weight().value, rows, conv.out_channels(), *stage);
    build_tap_table(*stage);
    stage->bias.assign(static_cast<size_t>(conv.out_channels()), 0.0f);
    if (conv.uses_bias()) {
      for (int64_t j = 0; j < conv.out_channels(); ++j) {
        stage->bias[static_cast<size_t>(j)] = conv.bias().value[j];
      }
    }
    c = stage->out_c;
    h = stage->out_h;
    w = stage->out_w;
    return stage;
  };

  for (size_t i = 0; i < net.size(); ++i) {
    nn::Layer* layer = &net.layer(i);
    if (auto* block = dynamic_cast<nn::ResidualBlock*>(layer)) {
      // Pad-identity basic block, batch-norm already folded:
      //   y = clamp(conv2(relu_q(conv1(x))) + pad_subsample(x)).
      if (block->has_projection()) {
        throw std::invalid_argument(
            "SncSystem: projection shortcuts unsupported; build the model "
            "with ShortcutKind::kPadIdentity");
      }
      if (!core::is_identity_batchnorm(block->bn1()) ||
          !core::is_identity_batchnorm(block->bn2())) {
        throw std::invalid_argument(
            "SncSystem: residual block has unfolded batch norm; run "
            "core::fold_batchnorm(net) before deployment");
      }
      const int64_t skip_in_c = c;
      auto stage1 = make_conv_stage(block->conv1());
      stage1->rectify = true;  // relu1: mid-block IFC + counter
      stage1->save_skip = true;
      stages_.push_back(std::move(stage1));

      auto stage2 = make_conv_stage(block->conv2());
      stage2->rectify = false;  // raw counts; rectify after the skip add
      stage2->add_skip = true;
      stage2->skip_in_c = skip_in_c;
      stage2->skip_stride = block->stride();
      stages_.push_back(std::move(stage2));
      continue;
    }
    if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(layer)) {
      if (!core::is_identity_batchnorm(*bn)) {
        throw std::invalid_argument(
            "SncSystem: unfolded BatchNorm2d; run core::fold_batchnorm(net) "
            "before deployment");
      }
      continue;  // exact identity: nothing to execute
    }
    if (auto* conv = dynamic_cast<nn::Conv2d*>(layer)) {
      stages_.push_back(make_conv_stage(*conv));
    } else if (auto* fc = dynamic_cast<nn::Dense*>(layer)) {
      auto stage = std::make_unique<Stage>();
      stage->kind = Stage::Kind::kDense;
      stage->in_c = flattened ? c * h * w : c;
      if (!flattened && (h != 1 || w != 1)) {
        throw std::invalid_argument("SncSystem: Dense before Flatten");
      }
      if (stage->in_c != fc->in_features()) {
        throw std::invalid_argument("SncSystem: Dense fan-in mismatch");
      }
      stage->out_c = fc->out_features();
      stage->out_h = stage->out_w = stage->in_h = stage->in_w = 1;
      program_matrix(fc->weight().value, fc->in_features(), fc->out_features(),
                     *stage);
      stage->fanout.assign(static_cast<size_t>(fc->in_features()), 1);
      stage->bias.assign(static_cast<size_t>(fc->out_features()), 0.0f);
      for (int64_t j = 0; j < fc->out_features(); ++j) {
        stage->bias[static_cast<size_t>(j)] = fc->bias().value[j];
      }
      c = stage->out_c;
      h = w = 1;
      flattened = true;
      stages_.push_back(std::move(stage));
    } else if (auto* mp = dynamic_cast<nn::MaxPool2d*>(layer)) {
      auto stage = std::make_unique<Stage>();
      stage->kind = Stage::Kind::kMaxPool;
      stage->in_c = stage->out_c = c;
      stage->in_h = h;
      stage->in_w = w;
      stage->kernel = mp->kernel();
      stage->stride = mp->stride();
      stage->out_h = nn::conv_out_extent(h, mp->kernel(), mp->stride(), 0);
      stage->out_w = nn::conv_out_extent(w, mp->kernel(), mp->stride(), 0);
      h = stage->out_h;
      w = stage->out_w;
      stages_.push_back(std::move(stage));
    } else if (dynamic_cast<nn::GlobalAvgPool*>(layer) != nullptr) {
      auto stage = std::make_unique<Stage>();
      stage->kind = Stage::Kind::kGlobalAvgPool;
      stage->in_c = stage->out_c = c;
      stage->in_h = h;
      stage->in_w = w;
      stage->out_h = stage->out_w = 1;
      h = w = 1;
      flattened = true;
      stages_.push_back(std::move(stage));
    } else if (dynamic_cast<nn::ReLU*>(layer) != nullptr) {
      if (stages_.empty() || (stages_.back()->kind != Stage::Kind::kConv &&
                              stages_.back()->kind != Stage::Kind::kDense)) {
        throw std::invalid_argument("SncSystem: ReLU without crossbar stage");
      }
      stages_.back()->rectify = true;
    } else if (dynamic_cast<nn::Flatten*>(layer) != nullptr) {
      // CHW-major integer buffers make flatten the identity.
      flattened = true;
    } else {
      throw std::invalid_argument("SncSystem: unsupported layer '" +
                                  layer->name() +
                                  "' (sequential conv/pool/fc nets only)");
    }
  }

  for (const auto& stage : stages_) {
    if (stage->kind == Stage::Kind::kConv ||
        stage->kind == Stage::Kind::kDense) {
      ++crossbar_stage_count_;
    }
  }

  // The network's last crossbar stage carries the classification logits:
  // if it is unrectified (no trailing ReLU), read it out analog.
  for (auto it = stages_.rbegin(); it != stages_.rend(); ++it) {
    Stage& s = **it;
    if (s.kind == Stage::Kind::kConv || s.kind == Stage::Kind::kDense) {
      if (&s == stages_.back().get() && !s.rectify && !s.add_skip) {
        s.final_readout = true;
      }
      break;
    }
  }
}

namespace {
// Accumulator doubles (16 KB) per position tile of the collapsed ideal
// read: the tile stays in L1 between the kernel and the epilogue.
constexpr int64_t kReadTileDoubles = 2048;

using Clock = std::chrono::steady_clock;

int64_t nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

double micros_since(Clock::time_point t0) {
  return static_cast<double>(nanos(Clock::now() - t0)) * 1e-3;
}

// Fills the stage header of one image's stats: geometry plus the
// programming-time fault counters (programming happened once, before any
// inference ran).
void fill_stage_header(const FaultReport& fault, int64_t rows, int64_t cols,
                       int64_t positions, SncStageStats* stats) {
  if (stats == nullptr) return;
  stats->rows = rows;
  stats->cols = cols;
  stats->positions = positions;
  stats->write_retries = fault.write_retries;
  stats->faults_detected = fault.faults_detected;
  stats->faults_compensated = fault.faults_compensated;
  stats->residual_faults = fault.residual_faults;
  stats->remapped_cols = fault.remapped_cols;
}
}  // namespace

nn::Rng SncSystem::next_coding_rng() {
  return nn::Rng(
      nn::Rng::stream_seed(config_.seed,
                           kCodingStreamBase + coding_streams_issued_++));
}

// The crossbar-stage runner. Once per stage the B input signals are copied
// into one image-minor drive buffer (slot s = input index + 1, slot 0 an
// all-zero slot that padding taps read) beside a union-nonzero mask over
// the slots, and each image's input_events is summed from the per-input
// fan-out table. Per position the collapsed ideal read keeps only the
// taps whose slot is live in some image and hands the (panel row, slot)
// list to one image-tiled kernel, which writes the position's B rows of
// column sums into a small tile of positions; one vectorized epilogue per
// tile then turns the sums into counts. Slot modes keep their own gather,
// because stochastic coding draws a full window from every image's stream
// for every row. Per image the arithmetic is the dense oracle's sequence:
// a tap that is zero for image b adds a signed zero product, which leaves
// b's column sums unchanged, the live taps keep their ascending-row order,
// and the epilogue is core::round_half_up operation for operation — so
// logits, predictions, and per-image stats are bit-identical at every
// batch size.
void SncSystem::run_crossbar_stage(
    const Stage& stage, const Signals& inputs, Signals& outputs,
    const std::vector<SncStageStats*>& stats,
    std::vector<nn::Rng>& coding_rngs) {
  const int64_t B = static_cast<int64_t>(inputs.size());
  const int64_t T = window_slots(config_.signal_bits);
  const int64_t kmax = int64_t{1} << (config_.weight_bits - 1);
  const double step = static_cast<double>(stage.step);
  const double dg = (g_max(config_.device) - g_min(config_.device)) /
                    static_cast<double>(kmax);

  const int64_t rows = stage.xbar->rows();
  const int64_t cols = stage.xbar->cols();
  const bool is_conv = stage.kind == Stage::Kind::kConv;
  const int64_t positions = is_conv ? stage.out_h * stage.out_w : 1;
  const bool slot_mode = config_.mode != IntegrationMode::kIdealIntegration ||
                         config_.stochastic_coding;
  const int64_t width = 2 * cols;
  const double* panel = stage.xbar->packed_panel();
  const int64_t row_bytes = width * static_cast<int64_t>(sizeof(double));

  // Host timing, only when stats are requested: a few clock reads per
  // position tile, summed over the chunks of every thread.
  SncStageTiming* const timing = stage_timing_;
  std::atomic<int64_t> read_ns{0};
  std::atomic<int64_t> epilogue_ns{0};
  std::atomic<int64_t> stage_panel{0};
  const auto drive_t0 = timing != nullptr ? Clock::now() : Clock::time_point{};

  // Drive buffer, union mask, and per-image event counts, shared read-only
  // by every position chunk. Slot s of the drive buffer holds input s - 1
  // of every image side by side; slot 0 stays the all-zero padding slot.
  // Every entry is written, input-major, so the stores are sequential.
  const int64_t n_in = static_cast<int64_t>(stage.fanout.size());
  drives_.resize(static_cast<size_t>((n_in + 1) * B));
  live_.resize(static_cast<size_t>(n_in + 1));
  std::fill(drives_.begin(), drives_.begin() + B, 0.0);
  live_[0] = 0;
  double* const drives = drives_.data();
  for (int64_t i = 0; i < n_in; ++i) {
    double* d = drives + (i + 1) * B;
    int32_t any = 0;
    for (int64_t b = 0; b < B; ++b) {
      const int32_t v = inputs[static_cast<size_t>(b)][static_cast<size_t>(i)];
      d[b] = static_cast<double>(v);
      any |= v;
    }
    live_[static_cast<size_t>(i + 1)] = any != 0;
  }
  const uint8_t* const live = live_.data();
  const int32_t* const fanout = stage.fanout.data();
  for (int64_t b = 0; b < B; ++b) {
    if (stats[static_cast<size_t>(b)] == nullptr) continue;
    const int32_t* in = inputs[static_cast<size_t>(b)].data();
    // Branch-free int32 sum (a stage's events fit): a data-dependent
    // branch here mispredicts every few inputs and used to cost more than
    // the drive copy itself.
    int32_t events = 0;
    for (int64_t i = 0; i < n_in; ++i) {
      events += fanout[i] & -static_cast<int32_t>(in[i] != 0);
    }
    stats[static_cast<size_t>(b)]->input_events = events;
  }
  if (timing != nullptr) timing->drive_us = micros_since(drive_t0);

  // Epilogue of the collapsed ideal read over n consecutive positions from
  // pos0 whose column sums sit position-major in acc (B image rows of
  // `width` per position): y = step * level_sum + bias rounded (and
  // clamped on rectified stages) into every image's output.
  nn::ReadEpilogue epilogue;
  epilogue.cols = cols;
  epilogue.dg = dg;
  epilogue.step = step;
  epilogue.bias = stage.bias.data();
  epilogue.rectify = stage.rectify;
  epilogue.ceiling = T;
  auto finish_read = [&](int64_t pos0, int64_t n, const double* acc) {
    for (int64_t b = 0; b < B; ++b) {
      nn::read_epilogue(acc + b * width, n, B * width, epilogue,
                        outputs[static_cast<size_t>(b)].data() + pos0,
                        positions,
                        stage.final_readout
                            ? readout_[static_cast<size_t>(b)].data()
                            : nullptr);
    }
  };

  // Per-image occupied-slot totals; only the slot modes count them.
  std::vector<std::atomic<int64_t>> occupied_count(
      static_cast<size_t>(slot_mode ? B : 0));

  auto run_ideal = [&](int64_t p0, int64_t p1) {
    // Per-thread scratch, grown on first use; the position loop never
    // allocates. The accumulator tile holds a few positions — enough to
    // amortize the epilogue, small enough to stay in L1 — never the whole
    // stage.
    const int64_t tile = std::clamp<int64_t>(kReadTileDoubles / (B * width),
                                             1, p1 - p0);
    thread_local std::vector<int32_t> tl_event_rows;
    thread_local std::vector<int32_t> tl_event_slots;
    thread_local std::vector<double> tl_acc;
    if (tl_event_rows.size() < static_cast<size_t>(rows)) {
      tl_event_rows.resize(static_cast<size_t>(rows));
      tl_event_slots.resize(static_cast<size_t>(rows));
    }
    if (tl_acc.size() < static_cast<size_t>(tile * B * width)) {
      tl_acc.resize(static_cast<size_t>(tile * B * width));
    }
    int32_t* const event_rows = tl_event_rows.data();
    int32_t* const event_slots = tl_event_slots.data();
    double* const acc = tl_acc.data();
    int64_t chunk_panel = 0;
    int64_t chunk_read_ns = 0;
    int64_t chunk_epilogue_ns = 0;
    for (int64_t t0 = p0; t0 < p1; t0 += tile) {
      const int64_t t1 = std::min(t0 + tile, p1);
      const auto ta =
          timing != nullptr ? Clock::now() : Clock::time_point{};
      for (int64_t pos = t0; pos < t1; ++pos) {
        // Branch-free tap filter: every tap is written, only live ones
        // advance the list.
        const int32_t* taps =
            is_conv ? stage.taps.data() + pos * rows : nullptr;
        int64_t n = 0;
        for (int64_t r = 0; r < rows; ++r) {
          const int32_t slot =
              (is_conv ? taps[r] : static_cast<int32_t>(r)) + 1;
          event_rows[n] = static_cast<int32_t>(r);
          event_slots[n] = slot;
          n += live[slot];
        }
        chunk_panel += n * row_bytes;
        nn::accumulate_rows_batch(event_rows, event_slots, n, drives, B,
                                  panel, width, acc + (pos - t0) * B * width);
      }
      if (timing != nullptr) {
        const auto tb = Clock::now();
        finish_read(t0, t1 - t0, acc);
        const auto tc = Clock::now();
        chunk_read_ns += nanos(tb - ta);
        chunk_epilogue_ns += nanos(tc - tb);
      } else {
        finish_read(t0, t1 - t0, acc);
      }
    }
    panel_bytes_.fetch_add(chunk_panel, std::memory_order_relaxed);
    if (timing != nullptr) {
      stage_panel.fetch_add(chunk_panel, std::memory_order_relaxed);
      read_ns.fetch_add(chunk_read_ns, std::memory_order_relaxed);
      epilogue_ns.fetch_add(chunk_epilogue_ns, std::memory_order_relaxed);
    }
  };

  auto run_slots = [&](int64_t p0, int64_t p1) {
    const auto chunk_t0 =
        timing != nullptr ? Clock::now() : Clock::time_point{};
    // Per-chunk scratch sized once for the whole batch; the position and
    // slot loops below never allocate. fires[(b * T + t) * rows + i] is
    // the i-th panel row (ascending) whose spike train fires in slot t of
    // image b, nfire[b * T + t] how many there are.
    std::vector<int32_t> event_rows(static_cast<size_t>(rows));
    std::vector<int32_t> event_slots(static_cast<size_t>(rows));
    std::vector<int64_t> vrow(static_cast<size_t>(B));
    std::vector<double> acc(static_cast<size_t>(B * width));
    std::vector<int32_t> fires(static_cast<size_t>(B * T * rows));
    std::vector<int32_t> nfire(static_cast<size_t>(B * T));
    std::vector<uint8_t> train(static_cast<size_t>(T));
    std::vector<uint8_t> union_fires(static_cast<size_t>(T));
    // A spiking row drives its panel row at unit voltage: every event
    // reads drive slot 0 of the one-entry `unit` buffer.
    const std::vector<int32_t> unit_slots(static_cast<size_t>(rows), 0);
    const double unit = 1.0;
    std::vector<IntegrateFire> units(static_cast<size_t>(cols),
                                     IntegrateFire(1.0));
    std::vector<SpikeCounter> counters(static_cast<size_t>(cols),
                                       SpikeCounter(config_.signal_bits));
    std::vector<int64_t> chunk_occupied(static_cast<size_t>(B), 0);
    int64_t chunk_panel = 0;

    for (int64_t pos = p0; pos < p1; ++pos) {
      // Union gather with spike-train encoding: the tap table is walked
      // once per row for the whole batch, and each image's train is
      // scattered branch-free into its per-slot firing lists. Stochastic
      // coding consumes a full window of draws from every image's stream
      // for every row (zero or not), exactly like the dense oracle, so
      // stream-per-image alignment holds regardless of batch composition.
      const int32_t* taps =
          is_conv ? stage.taps.data() + pos * rows : nullptr;
      std::fill(nfire.begin(), nfire.end(), 0);
      int64_t nu = 0;  // union rows with at least one nonzero drive
      for (int64_t r = 0; r < rows; ++r) {
        const int32_t tap = is_conv ? taps[r] : static_cast<int32_t>(r);
        bool any = false;
        for (int64_t b = 0; b < B; ++b) {
          const int64_t v =
              tap >= 0 ? inputs[static_cast<size_t>(b)]
                               [static_cast<size_t>(tap)]
                       : 0;
          vrow[static_cast<size_t>(b)] = v;
          any = any || v != 0;
        }
        for (int64_t b = 0; b < B; ++b) {
          const int64_t v = vrow[static_cast<size_t>(b)];
          if (config_.stochastic_coding) {
            rate_encode_stochastic_into(v, config_.signal_bits,
                                        coding_rngs[static_cast<size_t>(b)],
                                        train.data());
          } else if (v != 0) {
            rate_encode_into(v, config_.signal_bits, train.data());
          }
          if (v == 0) continue;
          int32_t* f = fires.data() + b * T * rows;
          int32_t* nf = nfire.data() + b * T;
          for (int64_t t = 0; t < T; ++t) {
            f[t * rows + nf[t]] = static_cast<int32_t>(r);
            nf[t] += train[static_cast<size_t>(t)];
            union_fires[static_cast<size_t>(t)] |=
                train[static_cast<size_t>(t)];
          }
        }
        if (!any) continue;
        event_rows[static_cast<size_t>(nu)] = static_cast<int32_t>(r);
        event_slots[static_cast<size_t>(nu)] = tap + 1;
        ++nu;
        // A union row firing in slot t streams its panel row once for the
        // whole batch.
        for (int64_t t = 0; t < T; ++t) {
          chunk_panel += union_fires[static_cast<size_t>(t)] * row_bytes;
          union_fires[static_cast<size_t>(t)] = 0;
        }
      }

      // Slot-by-slot spiking execution, per image: the IFC membrane is
      // preloaded with bias + 0.5 (spikes fired by the preload count), and
      // each occupied slot drives the image's firing rows in one kernel
      // call. A slot in which no row fires deposits zero charge and is
      // skipped. Non-rectified stages (final readout / pre-skip-add raw
      // counts) take their wide digital count from the collapsed ideal
      // read instead, so their IFC banks are never read and only slot
      // occupancy is counted.
      for (int64_t b = 0; b < B; ++b) {
        const int32_t* f = fires.data() + b * T * rows;
        const int32_t* nf = nfire.data() + b * T;
        int64_t& occupied = chunk_occupied[static_cast<size_t>(b)];
        if (!stage.rectify) {
          for (int64_t t = 0; t < T; ++t) occupied += nf[t] != 0;
          continue;
        }
        for (int64_t col = 0; col < cols; ++col) {
          units[static_cast<size_t>(col)].reset();
          counters[static_cast<size_t>(col)].reset();
          counters[static_cast<size_t>(col)].count(
              units[static_cast<size_t>(col)].integrate(
                  static_cast<double>(stage.bias[static_cast<size_t>(col)]) +
                  0.5));
        }
        for (int64_t t = 0; t < T; ++t) {
          if (nf[t] == 0) continue;
          ++occupied;
          nn::accumulate_rows_batch(f + t * rows, unit_slots.data(), nf[t],
                                    &unit, 1, panel, width, acc.data());
          for (int64_t col = 0; col < cols; ++col) {
            const double level_sum = (acc[2 * col] - acc[2 * col + 1]) / dg;
            counters[static_cast<size_t>(col)].count(
                units[static_cast<size_t>(col)].integrate(step * level_sum));
          }
        }
        for (int64_t col = 0; col < cols; ++col) {
          outputs[static_cast<size_t>(b)][static_cast<size_t>(
              col * positions + pos)] =
              counters[static_cast<size_t>(col)].value();
        }
      }
      if (!stage.rectify) {
        chunk_panel += nu * row_bytes;
        nn::accumulate_rows_batch(event_rows.data(), event_slots.data(), nu,
                                  drives, B, panel, width, acc.data());
        finish_read(pos, 1, acc.data());
      }
    }
    for (int64_t b = 0; b < B; ++b) {
      occupied_count[static_cast<size_t>(b)].fetch_add(
          chunk_occupied[static_cast<size_t>(b)], std::memory_order_relaxed);
    }
    panel_bytes_.fetch_add(chunk_panel, std::memory_order_relaxed);
    if (timing != nullptr) {
      stage_panel.fetch_add(chunk_panel, std::memory_order_relaxed);
      read_ns.fetch_add(nanos(Clock::now() - chunk_t0),
                        std::memory_order_relaxed);
    }
  };

  // Positions parallelize on deterministic non-readout stages; chunk
  // boundaries are shape-only, so the parallel schedule never affects
  // results. Stochastic coding (per-image streams drawn in position
  // order) and the final readout (positions overwrite readout_) stay
  // serial.
  auto run_positions = [&](int64_t p0, int64_t p1) {
    if (slot_mode) {
      run_slots(p0, p1);
    } else {
      run_ideal(p0, p1);
    }
  };
  if (!config_.stochastic_coding && !stage.final_readout) {
    // Passed by reference: a std::function holding the lambda itself would
    // not fit the small-object buffer and would allocate on every stage.
    util::parallel_for(0, positions, std::max<int64_t>(1, positions / 32),
                       std::cref(run_positions));
  } else {
    run_positions(0, positions);
  }

  for (int64_t b = 0; b < B && slot_mode; ++b) {
    SncStageStats* st = stats[static_cast<size_t>(b)];
    if (st == nullptr) continue;
    st->occupied_slots = occupied_count[static_cast<size_t>(b)].load(
        std::memory_order_relaxed);
  }
  if (timing != nullptr) {
    timing->panel_bytes = stage_panel.load(std::memory_order_relaxed);
    timing->read_us =
        static_cast<double>(read_ns.load(std::memory_order_relaxed)) * 1e-3;
    timing->epilogue_us =
        static_cast<double>(epilogue_ns.load(std::memory_order_relaxed)) *
        1e-3;
  }
}

// The dense oracle, kept deliberately naive and independent of the
// runner's data structures: it gathers each receptive field with explicit
// im2col arithmetic (no tap table), drives every row at every position
// through the plus and minus arrays' own allocating reads, and maps
// logical columns to physical ones with physical_column() — never through
// the packed panel. Each array read accumulates v * g over ascending rows
// with zero rows skipped, the same double sequence the runner's kernels
// produce from the panel copy of those conductances, so the two agree
// bit for bit exactly when the panel is in sync with the arrays. Runs
// serially and streams no panel bytes.
void SncSystem::run_reference_stage(
    const Stage& stage, const Signals& inputs, Signals& outputs,
    const std::vector<SncStageStats*>& stats,
    std::vector<nn::Rng>& coding_rngs) {
  const int64_t T = window_slots(config_.signal_bits);
  const int64_t kmax = int64_t{1} << (config_.weight_bits - 1);
  const double step = static_cast<double>(stage.step);
  // Differential conductance of one grid level: converts column currents
  // (per unit read voltage) back to level units.
  const double dg = (g_max(config_.device) - g_min(config_.device)) /
                    static_cast<double>(kmax);
  const DifferentialCrossbar& xbar = *stage.xbar;
  const int64_t rows = xbar.rows();
  const int64_t cols = xbar.cols();
  const bool is_conv = stage.kind == Stage::Kind::kConv;
  const int64_t positions = is_conv ? stage.out_h * stage.out_w : 1;
  const bool slot_mode = config_.mode != IntegrationMode::kIdealIntegration ||
                         config_.stochastic_coding;
  // Logical column c's charge in weight units from per-array currents.
  auto charge = [&](const std::vector<double>& plus,
                    const std::vector<double>& minus, int64_t c) {
    const size_t pc = static_cast<size_t>(xbar.physical_column(c));
    return step * ((plus[pc] - minus[pc]) / dg);
  };

  for (size_t b = 0; b < inputs.size(); ++b) {
    const std::vector<int32_t>& input = inputs[b];
    std::vector<int32_t>& output = outputs[b];
    int64_t events = 0;
    int64_t occupied = 0;
    std::vector<double> volts(static_cast<size_t>(rows));
    for (int64_t pos = 0; pos < positions; ++pos) {
      // Gather the integer receptive field (im2col order: c, ky, kx).
      const int64_t oy = is_conv ? pos / stage.out_w : 0;
      const int64_t ox = is_conv ? pos % stage.out_w : 0;
      for (int64_t r = 0; r < rows; ++r) {
        int64_t v = 0;
        if (!is_conv) {
          v = input[static_cast<size_t>(r)];
        } else {
          const int64_t ic = r / (stage.kernel * stage.kernel);
          const int64_t ky = r / stage.kernel % stage.kernel;
          const int64_t kx = r % stage.kernel;
          const int64_t iy = oy * stage.stride - stage.pad + ky;
          const int64_t ix = ox * stage.stride - stage.pad + kx;
          if (iy >= 0 && iy < stage.in_h && ix >= 0 && ix < stage.in_w) {
            v = input[static_cast<size_t>((ic * stage.in_h + iy) *
                                              stage.in_w +
                                          ix)];
          }
        }
        volts[static_cast<size_t>(r)] = static_cast<double>(v);
        if (v != 0) ++events;
      }

      // Collapsed ideal read: linear synapses let the whole window
      // collapse into one value-weighted read.
      const std::vector<double> plus = xbar.plus().read_columns(volts);
      const std::vector<double> minus = xbar.minus().read_columns(volts);
      std::vector<int64_t> counts(static_cast<size_t>(cols));
      for (int64_t c = 0; c < cols; ++c) {
        const double y =
            charge(plus, minus, c) +
            static_cast<double>(stage.bias[static_cast<size_t>(c)]);
        // Rectified counts saturate at the counter ceiling, raw ones at
        // the int32 signal range.
        counts[static_cast<size_t>(c)] = std::clamp<int64_t>(
            core::round_half_up(y), stage.rectify ? 0 : INT32_MIN,
            stage.rectify ? T : INT32_MAX);
        if (stage.final_readout) readout_[b][static_cast<size_t>(c)] = y;
      }

      if (slot_mode) {
        // Slot-by-slot spiking execution with physical IFC semantics. IFCs
        // work in output-level units (threshold = charge of one output
        // level); the bias plus the 0.5 rounding offset preloads each
        // membrane, and spikes fired by the preload count toward the
        // window total. Non-rectified stages keep the collapsed read's
        // wide digital count.
        std::vector<std::vector<uint8_t>> trains(static_cast<size_t>(rows));
        for (int64_t r = 0; r < rows; ++r) {
          const int64_t v =
              static_cast<int64_t>(volts[static_cast<size_t>(r)]);
          trains[static_cast<size_t>(r)] =
              config_.stochastic_coding
                  ? rate_encode_stochastic(v, config_.signal_bits,
                                           coding_rngs[b])
                  : rate_encode(v, config_.signal_bits);
        }
        std::vector<IntegrateFire> units(static_cast<size_t>(cols),
                                         IntegrateFire(1.0));
        std::vector<SpikeCounter> counters(
            static_cast<size_t>(cols), SpikeCounter(config_.signal_bits));
        for (int64_t c = 0; c < cols; ++c) {
          counters[static_cast<size_t>(c)].count(
              units[static_cast<size_t>(c)].integrate(
                  static_cast<double>(stage.bias[static_cast<size_t>(c)]) +
                  0.5));
        }
        std::vector<uint8_t> spikes(static_cast<size_t>(rows));
        for (int64_t t = 0; t < T; ++t) {
          bool any_spike = false;
          for (int64_t r = 0; r < rows; ++r) {
            spikes[static_cast<size_t>(r)] =
                trains[static_cast<size_t>(r)][static_cast<size_t>(t)];
            any_spike = any_spike || spikes[static_cast<size_t>(r)] != 0;
          }
          if (!any_spike) continue;  // zero charge everywhere
          ++occupied;
          const std::vector<double> splus =
              xbar.plus().read_columns_spiking(spikes, 1.0);
          const std::vector<double> sminus =
              xbar.minus().read_columns_spiking(spikes, 1.0);
          for (int64_t c = 0; c < cols; ++c) {
            counters[static_cast<size_t>(c)].count(
                units[static_cast<size_t>(c)].integrate(
                    charge(splus, sminus, c)));
          }
        }
        if (stage.rectify) {
          for (int64_t c = 0; c < cols; ++c) {
            counts[static_cast<size_t>(c)] =
                counters[static_cast<size_t>(c)].value();
          }
        }
      }
      for (int64_t c = 0; c < cols; ++c) {
        output[static_cast<size_t>(c * positions + pos)] =
            static_cast<int32_t>(counts[static_cast<size_t>(c)]);
      }
    }
    if (stats[b] != nullptr) {
      stats[b]->input_events = events;
      stats[b]->occupied_slots = occupied;
    }
  }
}

void SncSystem::run_pool_stage(const Stage& stage,
                               const std::vector<int32_t>& signal,
                               std::vector<int32_t>& out) const {
  out.resize(static_cast<size_t>(stage.out_c * stage.out_h * stage.out_w));
  switch (stage.kind) {
    case Stage::Kind::kMaxPool: {
      // Counts are never negative, so the walk starts at the 0 floor.
      nn::max_pool_planes(signal.data(), stage.in_c, stage.in_h, stage.in_w,
                          stage.kernel, stage.stride, stage.out_h,
                          stage.out_w, int32_t{0}, out.data());
      return;
    }
    case Stage::Kind::kGlobalAvgPool: {
      const int64_t hw = stage.in_h * stage.in_w;
      for (int64_t ch = 0; ch < stage.in_c; ++ch) {
        int64_t acc = 0;
        for (int64_t i = 0; i < hw; ++i) {
          acc += signal[static_cast<size_t>(ch * hw + i)];
        }
        out[static_cast<size_t>(ch)] =
            static_cast<int32_t>((acc + hw / 2) / hw);
      }
      return;
    }
    default:
      throw std::logic_error("SncSystem::run_pool_stage: not a pool stage");
  }
}

// Digital skip add (pad-identity shortcut): subsample spatially, zero-pad
// new channels, then rectify to the counter ceiling.
int64_t SncSystem::apply_skip_add(const Stage& stage,
                                  std::vector<int32_t>& signal,
                                  const std::vector<int32_t>& skip) const {
  const int64_t T = window_slots(config_.signal_bits);
  const int64_t in_h = stage.out_h * stage.skip_stride;
  const int64_t in_w = stage.out_w * stage.skip_stride;
  int64_t post_add_spikes = 0;
  for (int64_t oc = 0; oc < stage.out_c; ++oc) {
    for (int64_t y = 0; y < stage.out_h; ++y) {
      for (int64_t x = 0; x < stage.out_w; ++x) {
        int64_t v = signal[static_cast<size_t>(
            (oc * stage.out_h + y) * stage.out_w + x)];
        if (oc < stage.skip_in_c) {
          v += skip[static_cast<size_t>(
              (oc * in_h + y * stage.skip_stride) * in_w +
              x * stage.skip_stride)];
        }
        v = std::clamp<int64_t>(v, 0, T);
        signal[static_cast<size_t>(
            (oc * stage.out_h + y) * stage.out_w + x)] =
            static_cast<int32_t>(v);
        post_add_spikes += v;
      }
    }
  }
  return post_add_spikes;
}

std::vector<int64_t> SncSystem::run_network(const float* pixels,
                                            int64_t count,
                                            std::vector<SncStats>* stats,
                                            StageRunner run_stage) {
  const size_t B = static_cast<size_t>(count);
  const int64_t T = window_slots(config_.signal_bits);
  // Buffers are resized, never released, so a steady-state call reuses
  // the previous call's storage.
  last_batch_logits_.resize(B);
  if (stats != nullptr) {
    stats->assign(B, SncStats{});
    for (SncStats& s : *stats) {
      s.window_slots = T;
      s.stage.assign(crossbar_stage_count_, SncStageStats{});
    }
    timing_.assign(crossbar_stage_count_, SncStageTiming{});
  } else {
    timing_.clear();
  }
  std::vector<int64_t> preds;
  if (B == 0) return preds;

  // One coding stream per image, issued in image order — the streams do
  // not depend on how images are grouped into calls.
  // Only stochastic coding draws from them; other modes just advance the
  // stream count, which keeps later stochastic calls on the same numbering
  // without seeding an mt19937_64 per image.
  coding_rngs_.clear();
  for (size_t b = 0; b < B; ++b) {
    if (config_.stochastic_coding) {
      coding_rngs_.push_back(next_coding_rng());
    } else {
      ++coding_streams_issued_;
    }
  }

  const int64_t chw = input_chw_[0] * input_chw_[1] * input_chw_[2];
  signals_.resize(B);
  next_.resize(B);
  for (size_t b = 0; b < B; ++b) {
    std::vector<int32_t>& signal = signals_[b];
    signal.resize(static_cast<size_t>(chw));
    const float* px = pixels + static_cast<int64_t>(b) * chw;
    for (int64_t i = 0; i < chw; ++i) {
      signal[static_cast<size_t>(i)] =
          encode_pixel(px[i], config_.input_scale, T);
    }
    if (stats != nullptr) {
      for (const int32_t v : signal) (*stats)[b].total_spikes += v;
    }
  }

  size_t xbar_idx = 0;
  bool has_readout = false;
  SncStageTiming* timing = nullptr;  // the last crossbar stage's entry
  for (const auto& stage : stages_) {
    if (stage->kind != Stage::Kind::kConv &&
        stage->kind != Stage::Kind::kDense) {
      const auto t0 = timing != nullptr ? Clock::now() : Clock::time_point{};
      for (size_t b = 0; b < B; ++b) {
        run_pool_stage(*stage, signals_[b], next_[b]);
      }
      signals_.swap(next_);
      if (timing != nullptr) timing->pool_us += micros_since(t0);
      continue;
    }
    const int64_t positions =
        stage->kind == Stage::Kind::kConv ? stage->out_h * stage->out_w : 1;
    stage_stats_.assign(B, nullptr);
    for (size_t b = 0; b < B && stats != nullptr; ++b) {
      stage_stats_[b] = &(*stats)[b].stage[xbar_idx];
      fill_stage_header(stage->fault, stage->xbar->rows(),
                        stage->xbar->cols(), positions, stage_stats_[b]);
    }
    timing = stats != nullptr ? &timing_[xbar_idx] : nullptr;
    ++xbar_idx;
    if (stage->save_skip) {
      const auto t0 = timing != nullptr ? Clock::now() : Clock::time_point{};
      skips_ = signals_;
      if (timing != nullptr) timing->skip_us += micros_since(t0);
    }
    if (stage->final_readout) {
      has_readout = true;
      readout_.resize(B);
      for (std::vector<double>& r : readout_) {
        r.assign(static_cast<size_t>(stage->xbar->cols()), 0.0);
      }
    }
    // Every runner writes every output element.
    for (std::vector<int32_t>& out : next_) {
      out.resize(static_cast<size_t>(stage->out_c * positions));
    }
    const auto t0 = timing != nullptr ? Clock::now() : Clock::time_point{};
    stage_timing_ = timing;
    (this->*run_stage)(*stage, signals_, next_, stage_stats_, coding_rngs_);
    stage_timing_ = nullptr;
    if (timing != nullptr) timing->stage_us = micros_since(t0);
    signals_.swap(next_);
    const auto skip_t0 =
        timing != nullptr && stage->add_skip ? Clock::now()
                                             : Clock::time_point{};
    for (size_t b = 0; b < B; ++b) {
      // add_skip stages report spikes after the digital skip add: raw
      // pre-add counts are not what crosses the boundary.
      int64_t spikes = 0;
      if (stage->add_skip) {
        spikes = apply_skip_add(*stage, signals_[b], skips_[b]);
      } else if (stats != nullptr) {
        for (const int32_t v : signals_[b]) spikes += std::max(v, 0);
      }
      if (stats != nullptr) {
        stage_stats_[b]->spikes = spikes;
        ++(*stats)[b].layers;
        (*stats)[b].total_spikes += spikes;
      }
    }
    if (timing != nullptr && stage->add_skip) {
      timing->skip_us += micros_since(skip_t0);
    }
  }

  preds.assign(B, 0);
  for (size_t b = 0; b < B; ++b) {
    std::vector<double>& logits = last_batch_logits_[b];
    if (has_readout) {
      logits.assign(readout_[b].begin(), readout_[b].end());
    } else {
      logits.assign(signals_[b].begin(), signals_[b].end());
    }
    int64_t best = 0;
    for (size_t j = 1; j < logits.size(); ++j) {
      if (logits[j] > logits[static_cast<size_t>(best)]) {
        best = static_cast<int64_t>(j);
      }
    }
    preds[b] = best;
  }
  last_logits_ = last_batch_logits_.back();
  return preds;
}

int64_t SncSystem::run_one(const nn::Tensor& image, SncStats* stats,
                           StageRunner run_stage) {
  if (image.rank() != 3 || image.dim(0) != input_chw_[0] ||
      image.dim(1) != input_chw_[1] || image.dim(2) != input_chw_[2]) {
    throw std::invalid_argument("SncSystem::infer: image shape mismatch");
  }
  std::vector<SncStats> batch_stats;
  const int64_t pred = run_network(
      image.data(), 1, stats != nullptr ? &batch_stats : nullptr,
      run_stage)[0];
  if (stats != nullptr) *stats = std::move(batch_stats[0]);
  return pred;
}

int64_t SncSystem::infer(const nn::Tensor& image, SncStats* stats) {
  return run_one(image, stats, &SncSystem::run_crossbar_stage);
}

std::vector<int64_t> SncSystem::infer_batch(const nn::Tensor& batch,
                                            std::vector<SncStats>* stats) {
  if (batch.rank() != 4 || batch.dim(1) != input_chw_[0] ||
      batch.dim(2) != input_chw_[1] || batch.dim(3) != input_chw_[2]) {
    throw std::invalid_argument(
        "SncSystem::infer_batch: batch shape must be [B, C, H, W]");
  }
  return run_network(batch.data(), batch.dim(0), stats,
                     &SncSystem::run_crossbar_stage);
}

int64_t SncSystem::infer_reference(const nn::Tensor& image,
                                   SncStats* stats) {
  return run_one(image, stats, &SncSystem::run_reference_stage);
}

float SncSystem::read_back_weight(size_t layer, int64_t row,
                                  int64_t col) const {
  size_t idx = 0;
  for (const auto& stage : stages_) {
    if (stage->kind != Stage::Kind::kConv &&
        stage->kind != Stage::Kind::kDense) {
      continue;
    }
    if (idx == layer) {
      const int64_t kmax = int64_t{1} << (config_.weight_bits - 1);
      return static_cast<float>(stage->xbar->read_level(row, col, kmax)) *
             stage->step;
    }
    ++idx;
  }
  throw std::out_of_range("SncSystem::read_back_weight: no such layer");
}

FaultReport SncSystem::fault_report() const {
  FaultReport total;
  for (const auto& stage : stages_) {
    if (stage->xbar) total.add(stage->fault);
  }
  return total;
}

}  // namespace qsnc::snc
