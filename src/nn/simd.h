// Runtime ISA dispatch for the kernel layer.
//
// The SIMD micro-kernels live in their own translation units, each
// compiled for one instruction set and selected here at runtime via CPUID,
// so the library still runs (on the scalar reference path) on any x86-64.
// There are three tiers:
//   * scalar — the reference loops in gemm.cpp / igemm.cpp, generic x86-64;
//   * avx2   — gemm_avx2.cpp / igemm_avx2.cpp (-mavx2 -mno-fma): every
//              fp32 and integer GEMM; snc_read_avx2.cpp (-mavx2 -mfma):
//              the SNC read on CPUs without AVX-512 that report FMA3;
//   * avx512 — gemm_avx512.cpp (-mavx512f -mavx512vl -mavx512dq -mfma):
//              the SNC read only (conv lanes read, row drive, epilogue);
//              everything else stays on the AVX2 kernels.
// Two overrides force the scalar path for every kernel:
//   * QSNC_FORCE_SCALAR=1 in the environment (read once, at first dispatch);
//   * set_force_scalar(true), the programmatic knob the equivalence tests
//     flip to compare both paths inside one process.
// The scalar loops are the semantic reference: a SIMD kernel must produce
// bit-identical results (same per-element accumulation order, same
// zero-skip tests; no FMA in the GEMMs, exactly one fused multiply-add per
// term in the SNC read, std::fma in its scalar loops), so dispatch never
// changes bits — only speed. Tests reach every compiled tier directly through
// nn/gemm_kernels.h, independent of what this dispatch picks.
#pragma once

namespace qsnc::nn::simd {

/// True when the CPU supports AVX2 *and* the AVX2 kernels were compiled in.
bool cpu_has_avx2();

/// True when the CPU reports FMA3 *and* the AVX2 kernels were compiled in
/// (the SNC read's AVX2 tier needs both).
bool cpu_has_fma();

/// True when the CPU supports AVX-512 F, VL and DQ *and* the AVX-512
/// kernels were compiled in.
bool cpu_has_avx512();

/// True when kernels should take the AVX2 path: cpu_has_avx2() and neither
/// override is active.
bool use_avx2();

/// True when the SNC read should take the AVX2 path: use_avx2() and
/// cpu_has_fma().
bool use_avx2_fma();

/// True when the SNC read should take the AVX-512 path: cpu_has_avx512()
/// and neither override is active.
bool use_avx512();

/// The tier the SNC read currently dispatches to: "avx512", "avx2" or
/// "scalar" (bench headers record it).
const char* dispatch_tier();

/// Programmatic scalar override (test hook); returns the previous value.
/// Layered on top of the environment knob: clearing it does not undo
/// QSNC_FORCE_SCALAR=1.
bool set_force_scalar(bool force);

/// True when QSNC_FORCE_SCALAR=1 was set in the environment at first use.
bool env_forced_scalar();

}  // namespace qsnc::nn::simd
