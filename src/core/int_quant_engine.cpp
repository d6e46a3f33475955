#include "core/int_quant_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/dynamic_fixed_point.h"
#include "core/fixed_point.h"
#include "core/int_epilogue.h"
#include "nn/im2col.h"
#include "nn/layers/batchnorm.h"
#include "nn/layers/conv2d.h"
#include "nn/layers/dense.h"
#include "nn/layers/flatten.h"
#include "nn/layers/pool.h"
#include "nn/layers/relu.h"
#include "nn/max_pool_walk.h"
#include "nn/simd.h"
#include "util/thread_pool.h"

namespace qsnc::core {

namespace {

// Per-thread int32 accumulators of the conv hot loop (never allocates
// inside the batch loop after warm-up).
thread_local util::aligned_vector<int32_t> tl_iacc;

// Recovers the integer representation w = w_int * 2^-fl of a weight tensor,
// choosing fl with the dynamic-fixed-point rule (choose_fraction_bits) at
// the smallest total width whose grid reproduces every weight *exactly*
// (checked per element: w_int * step == w in fp32). Returns false when no
// width up to 16 bits is exact — i.e. the weights are not on a dyadic grid
// and the integer engine cannot be bit-faithful.
bool quantize_weights_exact(const float* w, int64_t count, int16_t* wq,
                            float* step_out, int32_t* abs_max_int_out) {
  float abs_max = 0.0f;
  for (int64_t i = 0; i < count; ++i) {
    abs_max = std::max(abs_max, std::fabs(w[i]));
  }
  if (abs_max == 0.0f) {
    std::fill(wq, wq + count, int16_t{0});
    *step_out = 1.0f;
    *abs_max_int_out = 0;
    return true;
  }
  for (int total_bits = 2; total_bits <= 16; ++total_bits) {
    const int fl = choose_fraction_bits(abs_max, total_bits);
    const float step = std::ldexp(1.0f, -fl);
    bool exact = true;
    int32_t max_int = 0;
    for (int64_t i = 0; i < count; ++i) {
      // Division and multiplication by a power of two are exact in fp32,
      // so `r * step == w[i]` holds iff w[i] sits on the 2^-fl grid.
      const float r = std::round(w[i] / step);
      if (!(std::fabs(r) <= 32767.0f) || r * step != w[i]) {
        exact = false;
        break;
      }
      wq[i] = static_cast<int16_t>(r);
      max_int = std::max(max_int, std::abs(static_cast<int32_t>(r)));
    }
    if (exact) {
      *step_out = step;
      *abs_max_int_out = max_int;
      return true;
    }
  }
  return false;
}

// The fp32-exactness budget: every partial sum of the float GEMM must stay
// an exactly representable integer multiple of the weight grid step.
bool dot_product_exact(int64_t signal_peak, int32_t abs_max_int,
                       int64_t k_dim) {
  return signal_peak * int64_t{abs_max_int} * k_dim < (int64_t{1} << 24);
}

// One epilogue call, on the AVX2 instantiation when `avx2`.
template <typename Bias, typename Out>
void epilogue(bool avx2, const int32_t* acc, int64_t count, float step,
              Bias bias, float peak, Out* out) {
  if (avx2) {
    avx2_epilogue(acc, count, step, bias, peak, out);
  } else {
    epilogue_loop(acc, count, step, bias, peak, out);
  }
}

}  // namespace

IntQuantEngine::IntQuantEngine(int signal_bits, nn::Shape input_chw,
                               nn::Shape output, std::vector<Op> ops,
                               size_t crossbars)
    : signal_bits_(signal_bits),
      signal_peak_(static_cast<float>(signal_max(signal_bits))),
      input_chw_(std::move(input_chw)),
      output_(std::move(output)),
      ops_(std::move(ops)),
      crossbar_layers_(crossbars) {}

std::unique_ptr<IntQuantEngine> IntQuantEngine::build(
    nn::Network& net, const nn::Shape& input_chw, int signal_bits) {
  if (signal_bits < 1 || signal_bits > 15) return nullptr;  // int16 signals
  if (input_chw.size() != 3) return nullptr;
  const int64_t signal_peak = signal_max(signal_bits);

  // Signals are integer-valued at the network input and after every
  // quantized ReLU; between a crossbar layer and the next ReLU they are
  // arbitrary floats. Crossbar layers are only compilable on the integer
  // side of that boundary.
  enum class Domain { kInt, kFloat };
  Domain domain = Domain::kInt;
  nn::Shape shape = input_chw;  // per-image activation shape

  std::vector<Op> ops;
  size_t crossbars = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    nn::Layer& layer = net.layer(i);
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      if (domain != Domain::kInt || shape.size() != 3 ||
          shape[0] != conv->in_channels()) {
        return nullptr;
      }
      Op op;
      op.kind = OpKind::kConv;
      op.in_c = shape[0];
      op.in_h = shape[1];
      op.in_w = shape[2];
      op.kernel = conv->kernel();
      op.stride = conv->stride();
      op.pad = conv->pad();
      op.out_c = conv->out_channels();
      op.out_h = nn::conv_out_extent(op.in_h, op.kernel, op.stride, op.pad);
      op.out_w = nn::conv_out_extent(op.in_w, op.kernel, op.stride, op.pad);
      if (op.out_h <= 0 || op.out_w <= 0) return nullptr;
      op.out_numel = op.out_c * op.out_h * op.out_w;
      const int64_t patch = op.in_c * op.kernel * op.kernel;
      const nn::Tensor& w = conv->weight().value;  // OIHW == [out_c x patch]
      op.wq.resize(static_cast<size_t>(w.numel()));
      int32_t max_int = 0;
      if (!quantize_weights_exact(w.data(), w.numel(), op.wq.data(), &op.step,
                                  &max_int) ||
          !dot_product_exact(signal_peak, max_int, patch)) {
        return nullptr;
      }
      op.bias.assign(static_cast<size_t>(op.out_c), 0.0f);
      if (conv->uses_bias()) {
        const nn::Tensor& b = conv->bias().value;
        op.bias.assign(b.data(), b.data() + b.numel());
      }
      shape = {op.out_c, op.out_h, op.out_w};
      domain = Domain::kFloat;
      ops.push_back(std::move(op));
      ++crossbars;
    } else if (auto* dense = dynamic_cast<nn::Dense*>(&layer)) {
      if (domain != Domain::kInt || shape.size() != 1 ||
          shape[0] != dense->in_features()) {
        return nullptr;
      }
      Op op;
      op.kind = OpKind::kDense;
      const int64_t in = dense->in_features();
      const int64_t out = dense->out_features();
      op.out_numel = out;
      const nn::Tensor& w = dense->weight().value;  // [out x in]
      util::aligned_vector<int16_t> wq(static_cast<size_t>(w.numel()));
      int32_t max_int = 0;
      if (!quantize_weights_exact(w.data(), w.numel(), wq.data(), &op.step,
                                  &max_int) ||
          !dot_product_exact(signal_peak, max_int, in)) {
        return nullptr;
      }
      // igemm_prepacked computes x * B, so pack B = W^T [in x out].
      util::aligned_vector<int16_t> wt(static_cast<size_t>(in * out));
      for (int64_t kk = 0; kk < in; ++kk) {
        for (int64_t j = 0; j < out; ++j) {
          wt[static_cast<size_t>(kk * out + j)] =
              wq[static_cast<size_t>(j * in + kk)];
        }
      }
      op.wq_packed = nn::IGemmPackedB(wt.data(), in, out);
      op.bias.assign(static_cast<size_t>(out), 0.0f);
      if (dense->params().size() == 2) {  // bias listed iff enabled
        const nn::Tensor& b = dense->bias().value;
        op.bias.assign(b.data(), b.data() + b.numel());
      }
      shape = {out};
      domain = Domain::kFloat;
      ops.push_back(std::move(op));
      ++crossbars;
    } else if (dynamic_cast<nn::ReLU*>(&layer) != nullptr) {
      // ReLU + M-bit rounding restores integers; on signals it is the
      // identity. Right after a crossbar layer (only shape-only layers
      // between) it folds into that layer's epilogue.
      if (domain == Domain::kFloat) {
        Op& last = ops.back();  // the float domain starts at a crossbar
        if (last.kind == OpKind::kConv || last.kind == OpKind::kDense) {
          last.int_out = true;
        } else {
          Op op;
          op.kind = OpKind::kReLU;
          op.out_numel = last.out_numel;
          op.int_out = true;
          ops.push_back(std::move(op));
        }
      }
      domain = Domain::kInt;
    } else if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&layer)) {
      if (shape.size() != 3) return nullptr;
      Op op;
      op.kind = OpKind::kMaxPool;
      op.in_c = shape[0];
      op.in_h = shape[1];
      op.in_w = shape[2];
      op.kernel = pool->kernel();
      op.stride = pool->stride();
      op.out_h = nn::conv_out_extent(op.in_h, op.kernel, op.stride, 0);
      op.out_w = nn::conv_out_extent(op.in_w, op.kernel, op.stride, 0);
      if (op.out_h <= 0 || op.out_w <= 0) return nullptr;
      op.out_numel = op.in_c * op.out_h * op.out_w;
      op.int_out = domain == Domain::kInt;
      shape = {op.in_c, op.out_h, op.out_w};
      ops.push_back(std::move(op));
    } else if (dynamic_cast<nn::Flatten*>(&layer) != nullptr) {
      // Activations are flat per image already; only the shape changes.
      if (shape.size() != 3) return nullptr;
      shape = {shape[0] * shape[1] * shape[2]};
    } else if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&layer)) {
      // Only the exact inference identity (scale 1, shift 0 bitwise, e.g.
      // after BN folding's reset_to_identity) is bit-transparent.
      if (shape.size() != 3 || shape[0] != bn->channels()) return nullptr;
      for (int64_t c = 0; c < bn->channels(); ++c) {
        float scale = 0.0f, shift = 0.0f;
        bn->inference_affine(c, &scale, &shift);
        if (scale != 1.0f || shift != 0.0f) return nullptr;
      }
    } else {
      return nullptr;  // unsupported layer type
    }
  }
  if (crossbars == 0) return nullptr;  // nothing to accelerate
  return std::unique_ptr<IntQuantEngine>(new IntQuantEngine(
      signal_bits, input_chw, std::move(shape), std::move(ops), crossbars));
}

nn::Tensor IntQuantEngine::forward(const nn::Tensor& encoded) const {
  if (encoded.rank() != 4 || encoded.dim(1) != input_chw_[0] ||
      encoded.dim(2) != input_chw_[1] || encoded.dim(3) != input_chw_[2]) {
    throw std::invalid_argument(
        "IntQuantEngine::forward: expected [N, " +
        std::to_string(input_chw_[0]) + ", " + std::to_string(input_chw_[1]) +
        ", " + std::to_string(input_chw_[2]) + "], got " +
        nn::shape_to_string(encoded.shape()));
  }
  const int64_t n = encoded.dim(0);
  // The activations are int16 signals or floats, [n x per-image numel]
  // either way; each op reads one and writes a fresh one.
  util::aligned_vector<int16_t> signals(static_cast<size_t>(encoded.numel()));
  const float* e = encoded.data();
  for (size_t i = 0; i < signals.size(); ++i) {
    signals[i] = static_cast<int16_t>(e[i]);
  }
  std::vector<float> floats;
  util::aligned_vector<int16_t> signals_out;
  std::vector<float> floats_out;
  const bool avx2 = nn::simd::use_avx2();

  for (const Op& op : ops_) {
    const size_t out_size = static_cast<size_t>(n * op.out_numel);
    if (op.int_out) {
      signals_out.resize(out_size);
    } else {
      floats_out.resize(out_size);
    }
    switch (op.kind) {
      case OpKind::kConv: {
        const int64_t in_numel = op.in_c * op.in_h * op.in_w;
        const int64_t out_hw = op.out_h * op.out_w;
        util::parallel_for(0, n, 1, [&](int64_t n0, int64_t n1) {
          util::aligned_vector<int32_t>& acc = tl_iacc;
          acc.resize(static_cast<size_t>(op.out_numel));
          for (int64_t img = n0; img < n1; ++img) {
            nn::igemm_conv(op.wq.data(), signals.data() + img * in_numel,
                           op.in_c, op.in_h, op.in_w, op.kernel, op.stride,
                           op.pad, op.out_c, acc.data());
            for (int64_t oc = 0; oc < op.out_c; ++oc) {
              const int64_t at = img * op.out_numel + oc * out_hw;
              const int32_t* row = acc.data() + oc * out_hw;
              const float b = op.bias[static_cast<size_t>(oc)];
              if (op.int_out) {
                epilogue(avx2, row, out_hw, op.step, b, signal_peak_,
                         signals_out.data() + at);
              } else {
                epilogue(avx2, row, out_hw, op.step, b, signal_peak_,
                         floats_out.data() + at);
              }
            }
          }
        });
        break;
      }
      case OpKind::kDense: {
        util::aligned_vector<int32_t> acc(out_size);
        nn::igemm_prepacked(signals.data(), op.wq_packed, acc.data(), n);
        for (int64_t row = 0; row < n; ++row) {
          const int64_t at = row * op.out_numel;
          if (op.int_out) {
            epilogue(avx2, acc.data() + at, op.out_numel, op.step,
                     op.bias.data(), signal_peak_, signals_out.data() + at);
          } else {
            epilogue(avx2, acc.data() + at, op.out_numel, op.step,
                     op.bias.data(), signal_peak_, floats_out.data() + at);
          }
        }
        break;
      }
      case OpKind::kReLU: {
        for (size_t i = 0; i < out_size; ++i) {
          signals_out[i] = static_cast<int16_t>(
              relu_quantize_signal(floats[i], signal_peak_));
        }
        break;
      }
      case OpKind::kMaxPool: {
        const int64_t planes = n * op.in_c;
        // Signals are exact in float, so their maxima match the float
        // path's; floats start at -inf like MaxPool2d::forward.
        if (op.int_out) {
          nn::max_pool_planes(signals.data(), planes, op.in_h, op.in_w,
                              op.kernel, op.stride, op.out_h, op.out_w,
                              std::numeric_limits<int16_t>::lowest(),
                              signals_out.data());
        } else {
          nn::max_pool_planes(floats.data(), planes, op.in_h, op.in_w,
                              op.kernel, op.stride, op.out_h, op.out_w,
                              -std::numeric_limits<float>::infinity(),
                              floats_out.data());
        }
        break;
      }
    }
    if (op.int_out) {
      signals.swap(signals_out);
    } else {
      floats.swap(floats_out);
    }
  }

  nn::Shape shape = output_;
  shape.insert(shape.begin(), n);
  nn::Tensor out(shape);
  float* o = out.data();
  if (ops_.back().int_out) {
    for (size_t i = 0; i < signals.size(); ++i) {
      o[i] = static_cast<float>(signals[i]);
    }
  } else {
    std::copy(floats.begin(), floats.end(), o);
  }
  return out;
}

std::vector<int64_t> IntQuantEngine::predict(const nn::Tensor& encoded) const {
  const nn::Tensor logits = forward(encoded);
  const int64_t n = logits.dim(0);
  const int64_t k = logits.dim(1);
  std::vector<int64_t> labels(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    int64_t best = 0;
    for (int64_t j = 1; j < k; ++j) {
      if (row[j] > row[best]) best = j;
    }
    labels[static_cast<size_t>(i)] = best;
  }
  return labels;
}

}  // namespace qsnc::core
