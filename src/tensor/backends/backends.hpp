// Factories for the built-in compute-backend tiers. Each factory returns
// the tier's registry instance; a factory only exists when its kernels are
// compiled into this binary (HPNN_SIMD + x86-64 for the SIMD tiers), and
// ops::backend() registers whatever is compiled in on first use. CPU
// capability is a separate, runtime question answered by supported().
#pragma once

#include <memory>

#include "core/compute_backend.hpp"

namespace hpnn::ops {

/// The reference tier: portable scalar kernels, priority 0, always
/// supported. Every contract in the conformance kit is stated relative to
/// this backend.
std::unique_ptr<core::ComputeBackend> make_scalar_backend();

#if defined(HPNN_SIMD_AVX2) && defined(__x86_64__)
/// AVX2/FMA tier: 6x16 float microtile, 8-lane elementwise ops, vpmaddwd
/// int8 MMU path. Supported when CPUID reports avx2+fma.
std::unique_ptr<core::ComputeBackend> make_avx2_backend();
#endif

#if defined(HPNN_SIMD_AVX512) && defined(__x86_64__)
/// AVX-512/VNNI tier: 8x32 float microtile, 16-lane elementwise ops, and a
/// vpdpwssd int8 MMU path. Supported when CPUID reports
/// avx512f+avx512bw+avx512vl+avx512vnni.
std::unique_ptr<core::ComputeBackend> make_avx512_backend();
#endif

}  // namespace hpnn::ops
