// Kernel-level micro-benchmarks (google-benchmark): GEMM, im2col,
// convolution forward, the integer conv kernel, crossbar reads, the SNC
// conv read and batched row drive, quantizers, spike coding.
//
// In addition to the google-benchmark suite, main() runs three sweeps and
// writes them to BENCH_kernels.json (override the path with
// QSNC_BENCH_OUT):
//  * a kernel-dispatch sweep over the model-zoo GEMM shapes comparing the
//    scalar reference, AVX2, and integer (igemm) paths at one thread, with
//    speedup-vs-matching-scalar per row, plus the quant backend's integer
//    engine on dyadic lenet-mini at B=1 and B=8 (int_engine_lenet_b*);
//  * a read sweep: the SNC conv read, the integer conv read and the SNC
//    row drive at lenet-mini's shapes on every kernel tier the CPU runs
//    (snc_conv_read_*, igemm_conv_*, snc_row_drive_*);
//  * a thread-scaling sweep over {1, 2, 4, hw_max} threads for the GEMM
//    and conv hot paths, with speedup-vs-1-thread per row.
// QSNC_REQUIRE_SIMD=1 makes the binary exit nonzero when the AVX2 kernels
// are not active, or when /proc/cpuinfo reports AVX-512 F, VL, DQ and BW
// but the dispatch tier is not avx512 (CI uses this to catch a silent
// fallback to a narrower tier).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/dynamic_fixed_point.h"
#include "core/fixed_point.h"
#include "core/int_quant_engine.h"
#include "core/weight_clustering.h"
#include "data/synthetic_mnist.h"
#include "models/model_zoo.h"
#include "nn/gemm.h"
#include "nn/gemm_kernels.h"
#include "nn/igemm.h"
#include "nn/im2col.h"
#include "nn/layers/conv2d.h"
#include "nn/rng.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "snc/crossbar.h"
#include "snc/spike.h"
#include "util/thread_pool.h"

using namespace qsnc;

namespace {

std::vector<float> random_vec(int64_t n, uint64_t seed) {
  nn::Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  const auto a = random_vec(n * n, 1);
  const auto b = random_vec(n * n, 2);
  std::vector<float> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    nn::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// Thread-count-parameterized GEMM: range(0) = matrix extent, range(1) =
// pool size. Compare against the threads:1 row for scaling.
void BM_GemmThreads(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  const int prev = util::num_threads();
  util::set_num_threads(threads);
  const auto a = random_vec(n * n, 1);
  const auto b = random_vec(n * n, 2);
  std::vector<float> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    nn::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel("threads:" + std::to_string(threads));
  util::set_num_threads(prev);
}
BENCHMARK(BM_GemmThreads)
    ->ArgsProduct({{256}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

void BM_Im2Col(benchmark::State& state) {
  const int64_t c = 16, h = 32, w = 32, k = 3;
  const auto img = random_vec(c * h * w, 3);
  std::vector<float> cols(static_cast<size_t>(c * k * k * h * w));
  for (auto _ : state) {
    nn::im2col(img.data(), c, h, w, k, k, 1, 1, cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2Col);

void BM_ConvForward(benchmark::State& state) {
  nn::Rng rng(4);
  nn::Conv2d conv(16, 32, 3, 1, 1, rng);
  nn::Tensor x({1, 16, 32, 32});
  for (int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(0.0f, 1.0f);
  for (auto _ : state) {
    nn::Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvForward);

// Batched conv forward across pool sizes (parallel over images).
void BM_ConvForwardThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int prev = util::num_threads();
  util::set_num_threads(threads);
  nn::Rng rng(4);
  nn::Conv2d conv(16, 32, 3, 1, 1, rng);
  nn::Tensor x({8, 16, 32, 32});
  for (int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(0.0f, 1.0f);
  for (auto _ : state) {
    nn::Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel("threads:" + std::to_string(threads));
  util::set_num_threads(prev);
}
BENCHMARK(BM_ConvForwardThreads)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_CrossbarRead(benchmark::State& state) {
  snc::MemristorConfig cfg;
  snc::Crossbar xb(32, 32, cfg);
  nn::Rng rng(5);
  for (int64_t r = 0; r < 32; ++r) {
    for (int64_t c = 0; c < 32; ++c) {
      xb.program_cell(r, c, rng.uniform_int(0, 8), 8);
    }
  }
  std::vector<double> volts(32, 0.5);
  for (auto _ : state) {
    auto currents = xb.read_columns(volts);
    benchmark::DoNotOptimize(currents.data());
  }
}
BENCHMARK(BM_CrossbarRead);

void BM_SignalQuantizer(benchmark::State& state) {
  core::IntegerSignalQuantizer q(4);
  const auto values = random_vec(4096, 6);
  std::vector<float> out(values.size());
  for (auto _ : state) {
    for (size_t i = 0; i < values.size(); ++i) {
      out[i] = q.apply(values[i] * 20.0f);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SignalQuantizer);

void BM_WeightClustering(benchmark::State& state) {
  const int64_t n = state.range(0);
  const auto base = random_vec(n, 7);
  for (auto _ : state) {
    std::vector<float> w = base;
    core::WeightClusterConfig cfg;
    cfg.bits = 4;
    auto r = core::cluster_weight_set({w.data()}, {n}, cfg);
    benchmark::DoNotOptimize(r.scale);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WeightClustering)->Arg(1 << 12)->Arg(1 << 16);

void BM_RateEncode(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int64_t v = 0; v <= snc::window_slots(bits); ++v) {
      auto train = snc::rate_encode(v, bits);
      benchmark::DoNotOptimize(train.data());
    }
  }
}
BENCHMARK(BM_RateEncode)->Arg(4)->Arg(8);

// ---- SNC read kernels, called per tier through nn/gemm_kernels.h ----

// Tier index 0 scalar, 1 AVX2, 2 AVX-512.
const char* const kTierNames[] = {"scalar", "avx2", "avx512"};

bool snc_tier_available(int64_t tier) {
  return tier == 0 ||
         (tier == 1 && nn::simd::cpu_has_avx2() && nn::simd::cpu_has_fma()) ||
         (tier == 2 && nn::simd::cpu_has_avx512());
}

// The integer conv read's AVX2 tier needs no FMA3.
bool int_tier_available(int64_t tier) {
  return tier == 0 || (tier == 1 && nn::simd::cpu_has_avx2()) ||
         (tier == 2 && nn::simd::cpu_has_avx512());
}

// The tier nn::igemm_conv dispatches to under the current overrides.
int64_t int_dispatch_tier() {
  return nn::simd::use_avx512() ? 2 : nn::simd::use_avx2() ? 1 : 0;
}

// The SNC collapsed read's row drive at lenet-mini's crossbar shapes:
// panel width 12 (conv1, 6 columns over 25 taps) or 24 (conv2, 12 columns
// over 150 taps). About 60% of the taps are live, as in a lenet stage, and
// every live tap is one event.
struct RowDriveCase {
  int64_t width, batch;
  std::vector<double> panel, drives, acc;
  std::vector<int32_t> event_rows, event_slots;

  RowDriveCase(int64_t w, int64_t b) : width(w), batch(b) {
    const int64_t rows = width == 12 ? 25 : 150;
    nn::Rng rng(11);
    panel.resize(static_cast<size_t>(rows * width));
    for (double& g : panel) g = rng.uniform(0.0f, 1.0f) * 1e-4;
    drives.assign(static_cast<size_t>((rows + 1) * batch), 0.0);
    for (int32_t r = 0; r < rows; ++r) {
      if (rng.uniform(0.0f, 1.0f) < 0.4f) continue;
      event_rows.push_back(r);
      event_slots.push_back(r + 1);
      for (int64_t i = 0; i < batch; ++i) {
        drives[static_cast<size_t>((r + 1) * batch + i)] =
            static_cast<double>(rng.uniform_int(0, 16));
      }
    }
    acc.resize(static_cast<size_t>(batch * width));
  }
  int64_t events() const { return static_cast<int64_t>(event_rows.size()); }
  // Multiply-adds per call.
  double macs() const {
    return static_cast<double>(events() * batch * width);
  }
  void run(int64_t tier) {
    using Kernel = void (*)(const int32_t*, const int32_t*, int64_t,
                            const double*, int64_t, const double*, int64_t,
                            double*);
    const Kernel kernels[] = {&nn::kernels::scalar_accumulate_rows_batch,
                              &nn::kernels::avx2_accumulate_rows_batch,
                              &nn::kernels::avx512_accumulate_rows_batch};
    kernels[tier](event_rows.data(), event_slots.data(), events(),
                  drives.data(), batch, panel.data(), width, acc.data());
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
};

// The SNC conv read (nn::conv_read, output positions in the lanes) at one
// of lenet-mini's conv stages for one image: stage 1 = conv1 (6 columns
// over a 5x5 window of a 28x28 plane padded by 2, 784 positions), 2 =
// conv2 (12 columns over 6 x 5x5 windows of 14x14, 100 positions). The
// plane is filled once, outside any timed loop; about 60% of the inputs
// are zero, as in a lenet stage.
struct ConvReadCase {
  nn::ConvReadPlan plan;
  int64_t cols;
  std::vector<double> plane, panel;
  std::vector<float> bias;
  std::vector<int32_t> counts;
  nn::ReadEpilogue ep;

  explicit ConvReadCase(int64_t stage)
      : plan(stage == 1 ? nn::make_conv_read_plan(1, 28, 28, 5, 1, 2)
                        : nn::make_conv_read_plan(6, 14, 14, 5, 1, 0)),
        cols(stage == 1 ? 6 : 12) {
    nn::Rng rng(12);
    std::vector<int32_t> input(
        static_cast<size_t>(plan.in_c * plan.in_h * plan.in_w), 0);
    for (int32_t& v : input) {
      if (rng.uniform(0.0f, 1.0f) < 0.4f) {
        v = static_cast<int32_t>(rng.uniform_int(1, 15));
      }
    }
    plane.resize(static_cast<size_t>(plan.plane_doubles()));
    nn::fill_conv_plane(plan, input.data(), plane.data());
    panel.resize(static_cast<size_t>(plan.rows() * 2 * cols));
    for (double& g : panel) g = rng.uniform(0.0f, 1.0f) * 1e-4;
    bias.assign(static_cast<size_t>(cols), 0.5f);
    ep.cols = cols;
    ep.dg = 1.9e-5 / 8.0;
    ep.step = 1.0 / 16.0;
    ep.bias = bias.data();
    ep.rectify = true;
    ep.ceiling = 15;
    counts.resize(static_cast<size_t>(cols * plan.positions));
  }
  // Crossbar cells read per call (every row at every position).
  double macs() const {
    return static_cast<double>(plan.positions * plan.rows() * 2 * cols);
  }
  void run(int64_t tier) {
    using Read = void (*)(const nn::ConvReadPlan&, const double*,
                          const double*, const nn::ReadEpilogue&, int64_t,
                          int64_t, int32_t*, double*);
    const Read reads[] = {&nn::kernels::scalar_conv_read,
                          &nn::kernels::avx2_conv_read,
                          &nn::kernels::avx512_conv_read};
    reads[tier](plan, plane.data(), panel.data(), ep, 0,
                static_cast<int64_t>(plan.groups.size()), counts.data(),
                nullptr);
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
};

// range(0) = panel width (12 or 24), range(1) = batch, range(2) = tier; a
// tier the CPU lacks reports an error row.
void BM_AccumulateRowsBatch(benchmark::State& state) {
  const int64_t tier = state.range(2);
  if (!snc_tier_available(tier)) {
    state.SkipWithError("tier not supported on this CPU");
    return;
  }
  RowDriveCase c(state.range(0), state.range(1));
  for (auto _ : state) c.run(tier);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(c.macs()));
  state.SetLabel(kTierNames[tier]);
}
BENCHMARK(BM_AccumulateRowsBatch)
    ->ArgsProduct({{12, 24}, {1, 8}, {0, 1, 2}})
    ->ArgNames({"width", "batch", "tier"});

// range(0) = lenet conv stage (1 or 2), range(1) = tier; B=1.
void BM_ConvRead(benchmark::State& state) {
  const int64_t tier = state.range(1);
  if (!snc_tier_available(tier)) {
    state.SkipWithError("tier not supported on this CPU");
    return;
  }
  ConvReadCase c(state.range(0));
  for (auto _ : state) c.run(tier);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(c.macs()));
  state.SetLabel(kTierNames[tier]);
}
BENCHMARK(BM_ConvRead)
    ->ArgsProduct({{1, 2}, {0, 1, 2}})
    ->ArgNames({"conv", "tier"});

// The quant serving backend's integer engine on dyadic lenet-mini: every
// weight on its 8-bit dynamic-fixed-point grid, 4-bit signals, synthetic
// digits encoded the way QuantBackend::infer_batch encodes them.
constexpr int kEngineBits = 4;
// Multiply-accumulates per lenet image: conv1 6x25 by 784 positions,
// conv2 12x150 by 100, fc 300x16, fc 16x10.
constexpr double kLenetMacs =
    6 * 25 * 784 + 12 * 150 * 100 + 300 * 16 + 16 * 10;

std::unique_ptr<core::IntQuantEngine> dyadic_lenet_engine() {
  nn::Rng rng(9);
  nn::Network net = models::make_lenet_mini(rng);
  for (nn::Param* p : net.params()) {
    if (p->value.rank() < 2) continue;
    const int fl = core::choose_fraction_bits(p->value.abs_max(), 8);
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      p->value[i] = core::dfp_quantize(p->value[i], 8, fl);
    }
  }
  return core::IntQuantEngine::build(net, {1, 28, 28}, kEngineBits);
}

nn::Tensor encoded_digits(int64_t batch) {
  nn::Rng rng(10);
  const data::SyntheticMnistConfig config;
  const float scale =
      std::min(16.0f, static_cast<float>(core::signal_max(kEngineBits)));
  nn::Tensor x({batch, 1, 28, 28});
  for (int64_t b = 0; b < batch; ++b) {
    const nn::Tensor digit = data::render_digit(b % 10, rng, config);
    for (int64_t i = 0; i < digit.numel(); ++i) {
      x[b * digit.numel() + i] =
          core::quantize_input_signal(digit[i] * scale, kEngineBits);
    }
  }
  return x;
}

// range(0) = batch, range(1) = tier; one thread. The engine runs the tier
// its dispatch picks: tier 0 forces the scalar path, and a SIMD tier
// other than the CPU's dispatch tier reports an error row.
void BM_IntQuantEngine(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const int64_t tier = state.range(1);
  const bool prev_force = nn::simd::set_force_scalar(tier == 0);
  if (int_dispatch_tier() != tier) {
    nn::simd::set_force_scalar(prev_force);
    state.SkipWithError("tier not dispatched on this CPU");
    return;
  }
  const int prev_threads = util::num_threads();
  util::set_num_threads(1);
  const std::unique_ptr<core::IntQuantEngine> engine = dyadic_lenet_engine();
  const nn::Tensor x = encoded_digits(batch);
  for (auto _ : state) {
    nn::Tensor logits = engine->forward(x);
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.SetLabel(kTierNames[int_dispatch_tier()]);
  util::set_num_threads(prev_threads);
  nn::simd::set_force_scalar(prev_force);
}
BENCHMARK(BM_IntQuantEngine)
    ->ArgsProduct({{1, 8}, {0, 1, 2}})
    ->ArgNames({"batch", "tier"});

// One lenet-mini convolution through the integer conv read (the integer
// engine's conv kernel), one tier called directly: stage 1 = conv1
// (1x28x28, 6 maps of 5x5, pad 2), 2 = conv2 (6x14x14, 12 maps of 5x5).
// Weights are 8-bit, the image 4-bit signals with half of them zero; the
// padded plane is filled once, outside any timed loop.
struct IGemmConvCase {
  nn::ConvReadPlan plan;
  nn::IConvWeights w;
  util::aligned_vector<int16_t> plane;
  std::vector<int32_t> c;

  explicit IGemmConvCase(int64_t stage)
      : plan(stage == 1 ? nn::make_conv_read_plan(1, 28, 28, 5, 1, 2)
                        : nn::make_conv_read_plan(6, 14, 14, 5, 1, 0)) {
    const int64_t maps = stage == 1 ? 6 : 12;
    nn::Rng rng(11);
    std::vector<int16_t> wq(static_cast<size_t>(maps * plan.rows()));
    for (int16_t& x : wq) {
      x = static_cast<int16_t>(rng.uniform_int(-127, 127));
    }
    w = nn::IConvWeights(wq.data(), maps, plan.rows());
    std::vector<int16_t> image(
        static_cast<size_t>(plan.in_c * plan.in_h * plan.in_w));
    for (int16_t& x : image) {
      x = static_cast<int16_t>(rng.uniform_int(0, 1) * rng.uniform_int(0, 15));
    }
    plane.resize(static_cast<size_t>(nn::iconv_plane_int16s(plan)));
    nn::fill_iconv_plane(plan, image.data(), plane.data());
    c.resize(static_cast<size_t>(maps * plan.positions));
  }
  // Multiply-accumulates per call.
  double macs() const {
    return static_cast<double>(w.m() * plan.rows() * plan.positions);
  }
  void run(int64_t tier) {
    using Read = void (*)(const nn::ConvReadPlan&, const int32_t*, int64_t,
                          const int16_t*, int32_t*);
    const Read reads[] = {&nn::kernels::scalar_igemm_conv,
                          &nn::kernels::avx2_igemm_conv,
                          &nn::kernels::avx512_igemm_conv};
    reads[tier](plan, w.pairs(), w.m(), plane.data(), c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
};

// range(0) = lenet conv stage (1 or 2), range(1) = tier; a tier the CPU
// lacks reports an error row.
void BM_IGemmConv(benchmark::State& state) {
  const int64_t tier = state.range(1);
  if (!int_tier_available(tier)) {
    state.SkipWithError("tier not supported on this CPU");
    return;
  }
  IGemmConvCase c(state.range(0));
  for (auto _ : state) c.run(tier);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(c.macs()));
  state.SetLabel(kTierNames[tier]);
}
BENCHMARK(BM_IGemmConv)
    ->ArgsProduct({{1, 2}, {0, 1, 2}})
    ->ArgNames({"conv", "tier"});

// ---------------------------------------------------------------------------
// Thread-scaling sweep -> BENCH_kernels.json
// ---------------------------------------------------------------------------

struct SweepRow {
  std::string kernel;
  int threads;
  double seconds;   // best of reps
  double gflops;    // flops / seconds / 1e9
  double speedup;   // vs the 1-thread row of the same kernel
};

// Times `fn` (one full kernel invocation) and returns best-of-reps seconds.
template <typename Fn>
double time_best(Fn&& fn, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

// QSNC_BENCH_SMOKE=1 shrinks the sweep to tiny shapes and two thread
// counts so CI can exercise the code path in seconds; reported numbers
// are then meaningless as benchmarks.
bool smoke_mode() {
  const char* v = std::getenv("QSNC_BENCH_SMOKE");
  return v != nullptr && v[0] == '1';
}

std::vector<int> sweep_thread_counts() {
  if (smoke_mode()) return {1, 2};
  std::vector<int> counts = {1, 2, 4, util::default_threads()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

// Kernel-dispatch sweep at one thread: fp32 scalar vs AVX2 vs integer
// GEMM over the model-zoo shapes (conv im2col matrices and dense heads).
// speedup is vs the matching scalar row, so the fp32 SIMD rows carry the
// headline ">= 3x" acceptance number and the igemm rows the integer-path
// gain.
void run_dispatch_sweep(std::vector<SweepRow>& rows) {
  struct GemmShape {
    int64_t m, k, n;
    const char* tag;
  };
  const std::vector<GemmShape> shapes =
      smoke_mode()
          ? std::vector<GemmShape>{{6, 25, 784, "lenet_conv1"},
                                   {64, 300, 16, "dense_head"}}
          : std::vector<GemmShape>{{6, 25, 784, "lenet_conv1"},
                                   {12, 150, 100, "lenet_conv2"},
                                   {64, 288, 64, "alexnet_conv3"},
                                   {64, 300, 16, "dense_head"},
                                   {128, 96, 64, "wide_batch"},
                                   {256, 256, 256, "square_256"}};
  const int prev = util::num_threads();
  util::set_num_threads(1);  // isolate ISA dispatch from threading
  const int reps = smoke_mode() ? 2 : 5;

  for (const GemmShape& s : shapes) {
    const auto a = random_vec(s.m * s.k, 1);
    const auto b = random_vec(s.k * s.n, 2);
    std::vector<float> c(static_cast<size_t>(s.m * s.n));
    std::vector<int16_t> ia(a.size()), ib(b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ia[i] = static_cast<int16_t>(std::lround(a[i] * 15.0f));
    }
    for (size_t i = 0; i < b.size(); ++i) {
      ib[i] = static_cast<int16_t>(std::lround(b[i] * 7.0f));
    }
    std::vector<int32_t> ic(static_cast<size_t>(s.m * s.n));
    const double flops = 2.0 * static_cast<double>(s.m) * s.k * s.n;

    auto timed = [&](bool force_scalar, auto&& run) {
      const bool prev_force = nn::simd::set_force_scalar(force_scalar);
      run();  // warm-up
      const double seconds = time_best(run, reps);
      nn::simd::set_force_scalar(prev_force);
      return seconds;
    };
    auto fp32 = [&] { nn::gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n); };
    auto integer = [&] {
      nn::igemm(ia.data(), ib.data(), ic.data(), s.m, s.k, s.n);
    };
    const double fp32_scalar = timed(true, fp32);
    const double fp32_simd = timed(false, fp32);
    const double int_scalar = timed(true, integer);
    const double int_simd = timed(false, integer);

    const std::string tag = s.tag;
    rows.push_back({"gemm_fp32_scalar_" + tag, 1, fp32_scalar,
                    flops / fp32_scalar / 1e9, 1.0});
    rows.push_back({"gemm_fp32_simd_" + tag, 1, fp32_simd,
                    flops / fp32_simd / 1e9, fp32_scalar / fp32_simd});
    rows.push_back({"igemm_scalar_" + tag, 1, int_scalar,
                    flops / int_scalar / 1e9, 1.0});
    rows.push_back({"igemm_simd_" + tag, 1, int_simd,
                    flops / int_simd / 1e9, int_scalar / int_simd});
  }

  // The whole integer engine, input to logits, on dyadic lenet-mini.
  const std::unique_ptr<core::IntQuantEngine> engine = dyadic_lenet_engine();
  for (int64_t batch : {int64_t{1}, int64_t{8}}) {
    const nn::Tensor x = encoded_digits(batch);
    const double flops = 2.0 * kLenetMacs * static_cast<double>(batch);
    double seconds[2];
    for (bool force_scalar : {true, false}) {
      const bool prev_force = nn::simd::set_force_scalar(force_scalar);
      auto run = [&] {
        nn::Tensor logits = engine->forward(x);
        benchmark::DoNotOptimize(logits.data());
      };
      run();  // warm-up
      seconds[force_scalar ? 0 : 1] = time_best(run, reps * 4);
      nn::simd::set_force_scalar(prev_force);
    }
    const std::string tag = "int_engine_lenet_b" + std::to_string(batch);
    rows.push_back({tag + "_scalar", 1, seconds[0], flops / seconds[0] / 1e9,
                    1.0});
    rows.push_back({tag + "_simd", 1, seconds[1], flops / seconds[1] / 1e9,
                    seconds[0] / seconds[1]});
  }
  util::set_num_threads(prev);
}

// Read sweep at one thread: the SNC conv read and the integer conv read at
// lenet's conv1/conv2 (B=1), and the SNC row drive at widths 12/24 and B
// 1/8, every tier this CPU runs, called directly. gflops counts 2 flops per
// crossbar cell read or multiply-accumulate (the conv reads' dense count,
// though both skip all-zero drive vectors); speedup is vs the scalar row of
// the same shape.
void run_read_sweep(std::vector<SweepRow>& rows) {
  const int reps = smoke_mode() ? 2 : 200;
  // `calls` calls per timing, so a sub-microsecond kernel is not timed by
  // the clock read.
  auto add = [&](const std::string& tag, double macs, int calls,
                 auto&& available, auto&& run) {
    double scalar_seconds = 0.0;
    for (int64_t tier = 0; tier < 3; ++tier) {
      if (!available(tier)) continue;
      run(tier);  // warm-up
      const double seconds = time_best(
                                 [&] {
                                   for (int i = 0; i < calls; ++i) run(tier);
                                 },
                                 reps) /
                             calls;
      if (tier == 0) scalar_seconds = seconds;
      rows.push_back({tag + "_" + kTierNames[tier], 1, seconds,
                      2.0 * macs / seconds / 1e9, scalar_seconds / seconds});
    }
  };
  for (const int64_t stage : {1, 2}) {
    ConvReadCase c(stage);
    add("snc_conv_read_lenet_conv" + std::to_string(stage), c.macs(), 1,
        snc_tier_available, [&](int64_t tier) { c.run(tier); });
  }
  for (const int64_t stage : {1, 2}) {
    IGemmConvCase c(stage);
    add("igemm_conv_lenet_conv" + std::to_string(stage), c.macs(), 10,
        int_tier_available, [&](int64_t tier) { c.run(tier); });
  }
  for (const int64_t width : {12, 24}) {
    for (const int64_t batch : {1, 8}) {
      RowDriveCase c(width, batch);
      add("snc_row_drive_w" + std::to_string(width) + "_b" +
              std::to_string(batch),
          c.macs(), 100, snc_tier_available,
          [&](int64_t tier) { c.run(tier); });
    }
  }
}

void run_thread_sweep(std::vector<SweepRow>& rows) {
  const int prev = util::num_threads();
  const std::vector<int> counts = sweep_thread_counts();

  auto sweep = [&](const std::string& kernel, double flops, auto&& run) {
    double base_seconds = 0.0;
    for (int threads : counts) {
      util::set_num_threads(threads);
      run();  // warm-up: populates thread-local scratch, faults pages
      const double seconds = time_best(run, 3);
      if (threads == 1) base_seconds = seconds;
      rows.push_back({kernel, threads, seconds, flops / seconds / 1e9,
                      base_seconds > 0.0 ? base_seconds / seconds : 1.0});
    }
  };

  const std::vector<int64_t> gemm_sizes =
      smoke_mode() ? std::vector<int64_t>{64} : std::vector<int64_t>{256, 384};
  for (int64_t n : gemm_sizes) {
    const auto a = random_vec(n * n, 1);
    const auto b = random_vec(n * n, 2);
    std::vector<float> c(static_cast<size_t>(n * n));
    sweep("gemm_" + std::to_string(n),
          2.0 * static_cast<double>(n) * n * n,
          [&] { nn::gemm(a.data(), b.data(), c.data(), n, n, n); });
  }

  {
    const int64_t batch = smoke_mode() ? 1 : 8, ic = 16, oc = 32,
                  hw = smoke_mode() ? 8 : 32, k = 3;
    nn::Rng rng(4);
    nn::Conv2d conv(ic, oc, k, 1, 1, rng);
    nn::Tensor x({batch, ic, hw, hw});
    for (int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(0.0f, 1.0f);
    const double flops =
        2.0 * batch * oc * ic * k * k * hw * hw;  // stride 1, same padding
    sweep("conv_fwd_b8_16x32x32", flops, [&] {
      nn::Tensor y = conv.forward(x, false);
      benchmark::DoNotOptimize(y.data());
    });
  }

  util::set_num_threads(prev);
}

void emit_rows(const std::vector<SweepRow>& rows) {
  std::string path;
  std::FILE* f =
      bench::open_json("BENCH_kernels.json", util::num_threads(), &path);
  if (f == nullptr) return;
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"threads\": %d, "
                 "\"seconds\": %.6g, \"gflops\": %.4g, \"speedup\": %.3g}%s\n",
                 r.kernel.c_str(), r.threads, r.seconds, r.gflops, r.speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  std::printf("\n== kernel sweeps (dispatch %s) ==\n",
              nn::simd::dispatch_tier());
  std::printf("%-30s %8s %12s %10s %9s\n", "kernel", "threads", "seconds",
              "GFLOP/s", "speedup");
  for (const SweepRow& r : rows) {
    std::printf("%-30s %8d %12.6f %10.2f %8.2fx\n", r.kernel.c_str(),
                r.threads, r.seconds, r.gflops, r.speedup);
  }
  std::printf("wrote %s\n", path.c_str());
}

// True when the first "flags" line of /proc/cpuinfo lists every AVX-512
// subset the avx512 tier needs (false where the file is unreadable).
bool cpuinfo_reports_avx512() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::set<std::string> flags;
    for (std::string w; words >> w;) flags.insert(w);
    return flags.count("avx512f") && flags.count("avx512vl") &&
           flags.count("avx512dq") && flags.count("avx512bw");
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const char* require_simd = std::getenv("QSNC_REQUIRE_SIMD");
  if (require_simd != nullptr && require_simd[0] == '1') {
    if (!nn::simd::use_avx2()) {
      std::fprintf(stderr,
                   "QSNC_REQUIRE_SIMD=1 but the AVX2 kernels are inactive "
                   "(cpu_has_avx2=%d, env_forced_scalar=%d)\n",
                   nn::simd::cpu_has_avx2() ? 1 : 0,
                   nn::simd::env_forced_scalar() ? 1 : 0);
      return 1;
    }
    if (cpuinfo_reports_avx512() &&
        std::strcmp(nn::simd::dispatch_tier(), "avx512") != 0) {
      std::fprintf(stderr,
                   "QSNC_REQUIRE_SIMD=1 and /proc/cpuinfo reports AVX-512 "
                   "F/VL/DQ/BW, but the dispatch tier is %s\n",
                   nn::simd::dispatch_tier());
      return 1;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::vector<SweepRow> rows;
  run_dispatch_sweep(rows);
  run_read_sweep(rows);
  run_thread_sweep(rows);
  emit_rows(rows);
  return 0;
}
