// The AVX2 instantiation of the integer engine's epilogue (see
// int_epilogue.h). Built with -mavx2 -mno-fma -ffp-contract=off when the
// compiler supports it; nn::simd::use_avx2() is false otherwise, so the
// generic build of this file is never called.
#include "core/int_epilogue.h"

namespace qsnc::core {

template <typename Bias, typename Out>
void avx2_epilogue(const int32_t* acc, int64_t count, float step, Bias bias,
                   float peak, Out* out) {
  epilogue_loop(acc, count, step, bias, peak, out);
}

template void avx2_epilogue(const int32_t*, int64_t, float, float, float,
                            float*);
template void avx2_epilogue(const int32_t*, int64_t, float, float, float,
                            int16_t*);
template void avx2_epilogue(const int32_t*, int64_t, float, const float*,
                            float, float*);
template void avx2_epilogue(const int32_t*, int64_t, float, const float*,
                            float, int16_t*);

}  // namespace qsnc::core
