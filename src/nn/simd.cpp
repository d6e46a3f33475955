#include "nn/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace qsnc::nn::simd {

namespace {

bool detect_env_forced_scalar() {
  const char* v = std::getenv("QSNC_FORCE_SCALAR");
  return v != nullptr && std::strcmp(v, "0") != 0 && v[0] != '\0';
}

bool detect_avx2() {
#if defined(QSNC_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool detect_fma() {
#if defined(QSNC_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool detect_avx512() {
#if defined(QSNC_HAVE_AVX512) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

std::atomic<bool> g_force_scalar{false};

}  // namespace

bool cpu_has_avx2() {
  static const bool has = detect_avx2();
  return has;
}

bool cpu_has_fma() {
  static const bool has = detect_fma();
  return has;
}

bool cpu_has_avx512() {
  static const bool has = detect_avx512();
  return has;
}

bool env_forced_scalar() {
  static const bool forced = detect_env_forced_scalar();
  return forced;
}

bool use_avx2() {
  return cpu_has_avx2() && !env_forced_scalar() &&
         !g_force_scalar.load(std::memory_order_relaxed);
}

bool use_avx2_fma() { return cpu_has_fma() && use_avx2(); }

bool use_avx512() { return cpu_has_avx512() && use_avx2(); }

const char* dispatch_tier() {
  return use_avx512() ? "avx512" : use_avx2_fma() ? "avx2" : "scalar";
}

bool set_force_scalar(bool force) {
  return g_force_scalar.exchange(force, std::memory_order_relaxed);
}

}  // namespace qsnc::nn::simd
