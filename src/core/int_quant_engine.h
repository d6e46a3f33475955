// True-integer inference engine for the quantized serving path.
//
// The fake-quant path (QuantBackend / evaluate_accuracy) runs fp32 GEMMs
// over values that are all exact fixed-point numbers: M-bit integer signals
// and N-bit weights on a dyadic grid k * 2^-fl. When (a) every weight of a
// crossbar layer is *bitwise* representable as w_int * 2^-fl with w_int in
// int16, and (b) the worst-case dot product satisfies
//
//     signal_max(M) * max|w_int| * k_dim < 2^24,
//
// every fp32 partial sum in the float GEMM is an integer multiple of 2^-fl
// with magnitude below 2^24 grid units — i.e. exactly representable — so
// the float result equals the exact sum regardless of summation order. The
// integer engine computes that exact sum directly in int32 (nn/igemm.h),
// converts once at the end (float(acc) * 2^-fl, both steps exact), and then
// replays the identical float epilogue (bias add, ReLU, M-bit rounding).
// Under those two conditions the engine is therefore provably bit-identical
// to the fake-quant float path while eliminating every fp32 multiply from
// the hot loop.
//
// Signals stay int16 from the encoded input to the last crossbar layer:
// each conv copies its int16 image into a zero-padded plane and reads it
// with output positions in the SIMD lanes (nn::igemm_conv), a crossbar
// layer followed by ReLU rounds its float epilogue to the next layer's
// int16 signals in the same pass (relu_quantize_signal), and max-pool and
// dense read int16. Float
// activations exist only between a crossbar layer and a later ReLU (e.g.
// conv -> max-pool -> ReLU) and for the float logits.
//
// build() checks the conditions per layer and returns nullptr when any
// layer fails them (e.g. unclustered He-normal float weights) or uses an
// unsupported layer type; callers then keep the float path unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/igemm.h"
#include "nn/network.h"
#include "nn/tensor.h"
#include "util/aligned.h"

namespace qsnc::core {

class IntQuantEngine {
 public:
  /// Attempts to compile `net` for integer execution at M = `signal_bits`.
  /// Returns nullptr unless every layer is supported (Conv2d, Dense, ReLU,
  /// MaxPool2d, Flatten, exact-identity BatchNorm2d) and every
  /// crossbar layer passes the dyadic-representability and 2^24 exactness
  /// checks above. Weights are snapshotted at build time; rebuild after
  /// mutating the network.
  static std::unique_ptr<IntQuantEngine> build(nn::Network& net,
                                               const nn::Shape& input_chw,
                                               int signal_bits);

  /// Float logits for a batch of *encoded* inputs: [N, C, H, W] whose
  /// elements are integers in [0, 2^M - 1] (the output of
  /// quantize_input_signal). Bit-identical to Network::forward with an
  /// attached IntegerSignalQuantizer on the same inputs.
  nn::Tensor forward(const nn::Tensor& encoded) const;

  /// Per-sample argmax over forward(), first index winning ties —
  /// bit-compatible with Network::predict.
  std::vector<int64_t> predict(const nn::Tensor& encoded) const;

  int signal_bits() const { return signal_bits_; }

  /// Number of integer crossbar (Conv2d / Dense) layers compiled in.
  size_t crossbar_layers() const { return crossbar_layers_; }

 private:
  enum class OpKind { kConv, kDense, kReLU, kMaxPool };

  struct Op {
    OpKind kind;
    // Conv / pool geometry (per image).
    int64_t in_c = 0, in_h = 0, in_w = 0;
    int64_t out_c = 0, out_h = 0, out_w = 0;
    int64_t kernel = 0, stride = 0, pad = 0;
    int64_t out_numel = 0;  // per-image output elements
    // The op writes int16 signals rather than floats. Always for ReLU; for
    // a crossbar layer when the ReLU after it is folded into its epilogue;
    // for max-pool when its input is signals. An op reads signals iff the
    // op before it wrote them (the encoded input counts as signals).
    bool int_out = false;
    // Integer weights: conv reads its weight pairs over its read plan,
    // dense a prepacked W^T [in x out] panel.
    nn::ConvReadPlan plan;
    nn::IConvWeights wconv;
    nn::IGemmPackedB wq_packed;
    std::vector<float> bias;  // all +0.0 when the layer has no bias
    float step = 1.0f;        // 2^-fl of this layer's weight grid
  };

  IntQuantEngine(int signal_bits, nn::Shape input_chw, nn::Shape output,
                 std::vector<Op> ops, size_t crossbars);

  int signal_bits_;
  float signal_peak_;     // 2^M - 1
  nn::Shape input_chw_;   // per-image input shape
  nn::Shape output_;      // per-image output shape
  std::vector<Op> ops_;
  size_t crossbar_layers_;
};

}  // namespace qsnc::core
