// Bit-equivalence of the threaded hot paths across thread counts.
//
// Every parallel kernel in qsnc schedules work by problem shape, never by
// thread count, so results must be *exactly* equal — not merely close — at
// 1, 2, and 8 threads. These tests pin that contract for the GEMM variants,
// conv2d forward/backward, the timing-simulator batch API and the
// prefetching batcher.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "data/batcher.h"
#include "data/dataset.h"
#include "nn/gemm.h"
#include "nn/igemm.h"
#include "nn/layers/conv2d.h"
#include "nn/rng.h"
#include "nn/tensor.h"
#include "snc/timing_sim.h"
#include "util/thread_pool.h"

namespace qsnc {
namespace {

using nn::Rng;
using nn::Tensor;

const std::vector<int> kThreadCounts = {1, 2, 8};

std::vector<float> random_vec(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

template <typename VecA, typename VecB>
void expect_bitwise_equal(const VecA& a, const VecB& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(float)), 0)
        << what << " diverges at element " << i << ": " << a[i] << " vs "
        << b[i];
  }
}

class ParallelEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override { original_ = util::num_threads(); }
  void TearDown() override { util::set_num_threads(original_); }

  // Runs `kernel` (which writes its result into a fresh vector) at every
  // thread count and asserts all outputs are bit-identical to 1 thread.
  template <typename Kernel>
  void check_invariant(Kernel&& kernel, const char* what) {
    util::set_num_threads(1);
    const auto reference = kernel();
    for (int threads : kThreadCounts) {
      util::set_num_threads(threads);
      const auto got = kernel();
      expect_bitwise_equal(reference, got, what);
    }
  }

  int original_ = 1;
};

TEST_F(ParallelEquivalenceTest, Gemm) {
  Rng rng(11);
  const int64_t m = 96, k = 160, n = 130;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  check_invariant(
      [&] {
        std::vector<float> c(static_cast<size_t>(m * n), 7.0f);  // overwritten
        nn::gemm(a.data(), b.data(), c.data(), m, k, n);
        return c;
      },
      "gemm");
}

TEST_F(ParallelEquivalenceTest, GemmAcc) {
  Rng rng(12);
  const int64_t m = 96, k = 160, n = 130;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  const auto c0 = random_vec(m * n, rng);
  check_invariant(
      [&] {
        std::vector<float> c = c0;
        nn::gemm_acc(a.data(), b.data(), c.data(), m, k, n);
        return c;
      },
      "gemm_acc");
}

TEST_F(ParallelEquivalenceTest, GemmAtBAccWideM) {
  // m >= 32 takes the row-partitioned path.
  Rng rng(13);
  const int64_t m = 128, k = 96, n = 64;
  const auto a = random_vec(k * m, rng);  // A stored [k x m]
  const auto b = random_vec(k * n, rng);
  const auto c0 = random_vec(m * n, rng);
  check_invariant(
      [&] {
        std::vector<float> c = c0;
        nn::gemm_at_b_acc(a.data(), b.data(), c.data(), m, k, n);
        return c;
      },
      "gemm_at_b_acc (wide m)");
}

TEST_F(ParallelEquivalenceTest, GemmAtBAccSplitK) {
  // Small m with deep k takes the split-k tree-reduction path.
  Rng rng(14);
  const int64_t m = 8, k = 512, n = 33;
  const auto a = random_vec(k * m, rng);
  const auto b = random_vec(k * n, rng);
  const auto c0 = random_vec(m * n, rng);
  check_invariant(
      [&] {
        std::vector<float> c = c0;
        nn::gemm_at_b_acc(a.data(), b.data(), c.data(), m, k, n);
        return c;
      },
      "gemm_at_b_acc (split k)");
}

TEST_F(ParallelEquivalenceTest, GemmABtAcc) {
  Rng rng(15);
  const int64_t m = 96, k = 160, n = 72;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(n * k, rng);  // B stored [n x k]
  const auto c0 = random_vec(m * n, rng);
  check_invariant(
      [&] {
        std::vector<float> c = c0;
        nn::gemm_a_bt_acc(a.data(), b.data(), c.data(), m, k, n);
        return c;
      },
      "gemm_a_bt_acc");
}

TEST_F(ParallelEquivalenceTest, IGemm) {
  // Integer accumulation is associative, so this holds by construction —
  // pinned anyway so a future fixed-width blocking change can't break it.
  Rng rng(16);
  const int64_t m = 96, k = 160, n = 130;
  std::vector<int16_t> a(static_cast<size_t>(m * k));
  std::vector<int16_t> b(static_cast<size_t>(k * n));
  for (auto& x : a) {
    x = static_cast<int16_t>(std::lround(rng.uniform(-64.0f, 64.0f)));
  }
  for (auto& x : b) {
    x = static_cast<int16_t>(std::lround(rng.uniform(-64.0f, 64.0f)));
  }
  util::set_num_threads(1);
  std::vector<int32_t> reference(static_cast<size_t>(m * n));
  nn::igemm(a.data(), b.data(), reference.data(), m, k, n);
  for (int threads : kThreadCounts) {
    util::set_num_threads(threads);
    std::vector<int32_t> c(static_cast<size_t>(m * n), -7);
    nn::igemm(a.data(), b.data(), c.data(), m, k, n);
    EXPECT_EQ(c, reference) << threads << " threads";

    nn::IGemmPackedB packed(b.data(), k, n);
    std::vector<int32_t> pre(static_cast<size_t>(m * n), -7);
    nn::igemm_prepacked(a.data(), packed, pre.data(), m);
    EXPECT_EQ(pre, reference) << threads << " threads (prepacked)";
  }
}

TEST_F(ParallelEquivalenceTest, Conv2dForwardAndBackward) {
  const int64_t batch = 6, ic = 3, oc = 8, hw = 14;
  Rng data_rng(21);
  Tensor input({batch, ic, hw, hw}, random_vec(batch * ic * hw * hw, data_rng));
  Tensor grad_out;  // shaped after the first forward

  struct Result {
    nn::FloatBuffer output, grad_input, wgrad, bgrad;
  };
  auto run = [&](int threads) {
    util::set_num_threads(threads);
    Rng init_rng(22);  // fresh identical weights per run
    nn::Conv2d conv(ic, oc, 3, 1, 1, init_rng);
    Tensor out = conv.forward(input, /*train=*/true);
    if (grad_out.empty()) {
      Rng grad_rng(23);
      grad_out = Tensor(out.shape(), random_vec(out.numel(), grad_rng));
    }
    conv.weight().zero_grad();
    conv.bias().zero_grad();
    Tensor gin = conv.backward(grad_out);
    return Result{out.vec(), gin.vec(), conv.weight().grad.vec(),
                  conv.bias().grad.vec()};
  };

  const Result reference = run(1);
  for (int threads : kThreadCounts) {
    const Result got = run(threads);
    expect_bitwise_equal(reference.output, got.output, "conv2d output");
    expect_bitwise_equal(reference.grad_input, got.grad_input,
                         "conv2d grad_input");
    expect_bitwise_equal(reference.wgrad, got.wgrad, "conv2d weight grad");
    expect_bitwise_equal(reference.bgrad, got.bgrad, "conv2d bias grad");
  }
}

TEST_F(ParallelEquivalenceTest, SimulateWindowsMatchesSerial) {
  std::vector<snc::WindowSpec> specs;
  for (int64_t layers : {2, 5, 7}) {
    for (int64_t slots : {1, 16, 255}) {
      snc::WindowSpec spec;
      spec.layers = layers;
      spec.window_slots = slots;
      specs.push_back(spec);
      spec.config.discipline = snc::PipelineDiscipline::kSlotPipelined;
      specs.push_back(spec);
    }
  }

  util::set_num_threads(1);
  std::vector<snc::TimingResult> serial;
  serial.reserve(specs.size());
  for (const auto& spec : specs) {
    serial.push_back(
        snc::simulate_window(spec.layers, spec.window_slots, spec.config));
  }

  for (int threads : kThreadCounts) {
    util::set_num_threads(threads);
    const auto batch = snc::simulate_windows(specs);
    ASSERT_EQ(batch.size(), serial.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(batch[i].period_ns, serial[i].period_ns) << "spec " << i;
      EXPECT_EQ(batch[i].speed_mhz, serial[i].speed_mhz) << "spec " << i;
      EXPECT_EQ(batch[i].events, serial[i].events) << "spec " << i;
      EXPECT_EQ(batch[i].utilization, serial[i].utilization) << "spec " << i;
      ASSERT_EQ(batch[i].stage_busy_ns, serial[i].stage_busy_ns)
          << "spec " << i;
    }
  }
}

TEST_F(ParallelEquivalenceTest, BatcherPrefetchMatchesSynchronous) {
  const int64_t n = 23, batch_size = 5;
  Rng data_rng(41);
  Tensor images({n, 1, 4, 4}, random_vec(n * 16, data_rng));
  std::vector<int64_t> labels(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) labels[static_cast<size_t>(i)] = i % 7;
  auto dataset = std::make_shared<data::InMemoryDataset>(
      "toy", images, labels, /*num_classes=*/7);

  auto drain = [&](bool prefetch) {
    data::Batcher batcher(dataset, batch_size, /*seed=*/5, prefetch);
    EXPECT_EQ(batcher.prefetching(), prefetch);
    std::vector<float> pixels;
    std::vector<int64_t> seen_labels;
    std::vector<int64_t> epochs;
    const int64_t steps = batcher.batches_per_epoch() * 3 + 2;
    for (int64_t s = 0; s < steps; ++s) {
      data::Batch batch = batcher.next();
      pixels.insert(pixels.end(), batch.images.vec().begin(),
                    batch.images.vec().end());
      seen_labels.insert(seen_labels.end(), batch.labels.begin(),
                         batch.labels.end());
      epochs.push_back(batcher.epoch());
    }
    return std::make_tuple(pixels, seen_labels, epochs);
  };

  const auto sync = drain(false);
  const auto pre = drain(true);
  expect_bitwise_equal(std::get<0>(sync), std::get<0>(pre), "batch pixels");
  EXPECT_EQ(std::get<1>(sync), std::get<1>(pre));
  EXPECT_EQ(std::get<2>(sync), std::get<2>(pre));
}

}  // namespace
}  // namespace qsnc
