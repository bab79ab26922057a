// The AVX2/FMA tier: the packed microkernel and vector primitives that
// were the kernel layer's only SIMD path before the backend split. Every
// function carries a per-function target attribute so this translation
// unit compiles into any x86-64 binary; supported() gates execution on
// the CPUID probe at selection time.
#include <algorithm>

#include "tensor/backends/backends.hpp"
#include "tensor/backends/micro_common.hpp"

#if defined(HPNN_SIMD_AVX2) && defined(__x86_64__)

#include <immintrin.h>

namespace hpnn::ops {

namespace {

constexpr std::int64_t kAvx2MR = 6;
constexpr std::int64_t kAvx2NR = 16;

/// AVX2/FMA microkernel: 6 x 16 tile in 12 ymm accumulators, two aligned
/// B-vector loads and six A broadcasts per k step. No data-dependent
/// branches — the instruction stream is a pure function of k/mr/nr/beta.
__attribute__((target("avx2,fma"))) void micro_avx2(
    const float* ap, const float* bp, std::int64_t k, float* c,
    std::int64_t ldc, std::int64_t mr, std::int64_t nr, float beta) {
  __m256 acc[kAvx2MR][2];
  for (std::int64_t r = 0; r < kAvx2MR; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (std::int64_t p = 0; p < k; ++p) {
    // Panel rows are 64-byte aligned (kAvx2NR floats per k step from a
    // 64-byte-aligned arena block), so aligned loads are safe.
    const __m256 b0 = _mm256_load_ps(bp + p * kAvx2NR);
    const __m256 b1 = _mm256_load_ps(bp + p * kAvx2NR + 8);
    const float* arow = ap + p * kAvx2MR;
    for (std::int64_t r = 0; r < kAvx2MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(arow + r);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  if (mr == kAvx2MR && nr == kAvx2NR) {
    if (beta == 0.0f) {
      for (std::int64_t r = 0; r < kAvx2MR; ++r) {
        _mm256_storeu_ps(c + r * ldc, acc[r][0]);
        _mm256_storeu_ps(c + r * ldc + 8, acc[r][1]);
      }
    } else if (beta == 1.0f) {
      for (std::int64_t r = 0; r < kAvx2MR; ++r) {
        float* crow = c + r * ldc;
        _mm256_storeu_ps(crow,
                         _mm256_add_ps(_mm256_loadu_ps(crow), acc[r][0]));
        _mm256_storeu_ps(
            crow + 8, _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[r][1]));
      }
    } else {
      const __m256 bv = _mm256_set1_ps(beta);
      for (std::int64_t r = 0; r < kAvx2MR; ++r) {
        float* crow = c + r * ldc;
        _mm256_storeu_ps(
            crow, _mm256_fmadd_ps(bv, _mm256_loadu_ps(crow), acc[r][0]));
        _mm256_storeu_ps(crow + 8, _mm256_fmadd_ps(
                                       bv, _mm256_loadu_ps(crow + 8),
                                       acc[r][1]));
      }
    }
    return;
  }
  alignas(32) float tile[kAvx2MR * kAvx2NR];
  for (std::int64_t r = 0; r < kAvx2MR; ++r) {
    _mm256_store_ps(tile + r * kAvx2NR, acc[r][0]);
    _mm256_store_ps(tile + r * kAvx2NR + 8, acc[r][1]);
  }
  backends::merge_tile(tile, kAvx2NR, c, ldc, mr, nr, beta);
}

__attribute__((target("avx2,fma"))) void relu_avx2(const float* x, float* y,
                                                   std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) {
    y[i] = std::max(x[i], 0.0f);
  }
}

__attribute__((target("avx2,fma"))) void relu_mask_avx2(const float* x,
                                                        float* g,
                                                        std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 keep =
        _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_GT_OQ);
    _mm256_storeu_ps(g + i, _mm256_and_ps(_mm256_loadu_ps(g + i), keep));
  }
  for (; i < n; ++i) {
    g[i] = x[i] > 0.0f ? g[i] : 0.0f;
  }
}

__attribute__((target("avx2,fma"))) void mul_avx2(const float* a,
                                                  const float* b, float* y,
                                                  std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) {
    y[i] = a[i] * b[i];
  }
}

__attribute__((target("avx2,fma"))) void axpy_avx2(float s, const float* x,
                                                   float* y, std::int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(sv, _mm256_loadu_ps(x + i),
                                            _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) {
    y[i] += s * x[i];
  }
}

__attribute__((target("avx2,fma"))) void add_scalar_avx2(float s, float* y,
                                                         std::int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), sv));
  }
  for (; i < n; ++i) {
    y[i] += s;
  }
}

__attribute__((target("avx2,fma"))) float dot_avx2(const float* a,
                                                   const float* b,
                                                   std::int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  }
  // Fixed pairwise lane reduction: (lo+hi) -> 4 lanes -> 2 -> 1.
  __m128 lo = _mm256_castps256_ps128(acc);
  __m128 hi = _mm256_extractf128_ps(acc, 1);
  __m128 s4 = _mm_add_ps(lo, hi);
  __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  __m128 s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x1));
  float sum = _mm_cvtss_f32(s1);
  for (; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

__attribute__((target("avx2,fma"))) void lock_relu_grad_avx2(
    const float* g, const float* z, const float* lock, float* gx,
    std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 keep =
        _mm256_cmp_ps(_mm256_loadu_ps(z + i), zero, _CMP_GT_OQ);
    const __m256 gl =
        _mm256_mul_ps(_mm256_loadu_ps(g + i), _mm256_loadu_ps(lock + i));
    _mm256_storeu_ps(gx + i, _mm256_and_ps(gl, keep));
  }
  for (; i < n; ++i) {
    gx[i] = z[i] > 0.0f ? g[i] * lock[i] : 0.0f;
  }
}

// ---- prepared-weights int8 path ----------------------------------------
// Weights arrive as int16 pairs along k (backends::pack_i16_pairs), so one
// vpmaddwd multiplies two k steps and adds them into int32 lanes. The
// products of int8 operands are at most 2^14 in magnitude, so the pairwise
// sum never saturates and the int32 adds wrap exactly like the scalar
// uint32 accumulation: the results are bit-identical to the scalar
// reference (backends::matmul_i8_reference).

constexpr std::int64_t kAvx2FilterBlock = 4;

/// 8 int8 values of rows a and b (in the low 8 bytes) interleaved into 8
/// int16 pairs, the vector operand of vpmaddwd.
__attribute__((target("avx2"))) inline __m256i pairs8(__m128i a, __m128i b) {
  return _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(a, b));
}

/// How 8 consecutive window columns are read from one window row: one
/// 8-byte load at the row's base + `shift` when their bytes are
/// contiguous (`contiguous`: inside one run, or across runs `pitch` ==
/// `width` apart), else one byte per column at base + lane[c].
struct Window8 {
  bool contiguous = false;
  std::int64_t shift = 0;
  std::int64_t lane[8] = {};
};

/// Plans the 8 columns from `at`.
inline void plan_window8(const core::I8Window& x, backends::WindowCursor at,
                         Window8& v) {
  for (std::int64_t c = 0; c < 8; ++c) {
    v.lane[c] = at.rel(x);
    at.advance(x, 1);
  }
  v.shift = v.lane[0];
  v.contiguous = v.lane[7] - v.lane[0] == 7;
}

/// The 8 bytes of one window row at the columns `v` plans, in the low
/// half; CONTIGUOUS tells the caller's plan at compile time.
template <bool CONTIGUOUS>
__attribute__((target("avx2"))) inline __m128i load_window8(
    const std::int8_t* row, const Window8& v) {
  if constexpr (CONTIGUOUS) {
    return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row + v.shift));
  } else {
    std::uint64_t word = 0;
    for (int c = 0; c < 8; ++c) {
      word |= static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(row[v.lane[c]]))
              << (8 * c);
    }
    return _mm_cvtsi64_si128(static_cast<long long>(word));
  }
}

/// Stores 8 accumulators, two's-complement negating the lanes whose
/// negate byte is non-zero: (v ^ m) - m with m = -1.
__attribute__((target("avx2"))) inline void store8(__m256i acc,
                                                   const std::uint8_t* negate,
                                                   std::int32_t* out) {
  if (negate != nullptr) {
    const __m256i m = _mm256_cmpgt_epi32(
        _mm256_cvtepu8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(negate))),
        _mm256_setzero_si256());
    acc = _mm256_sub_epi32(_mm256_xor_si256(acc, m), m);
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), acc);
}

/// FB filters x (8 * NV) columns of out = W @ X starting at column j, X
/// read through the window with the vectors `vec` plans.
template <int FB, int NV, bool CONTIGUOUS>
__attribute__((target("avx2"))) void left_tile_avx2(
    const std::int32_t* wp, std::int64_t kp, const core::I8Window& x,
    std::int64_t k, const Window8* vec, std::int64_t j,
    const std::uint8_t* negate, std::int32_t* out) {
  const std::int64_t n = x.extent;
  __m256i acc[FB][NV];
  for (int r = 0; r < FB; ++r) {
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = _mm256_setzero_si256();
    }
  }
  for (std::int64_t q = 0; q < kp; ++q) {
    const std::int8_t* r0 = x.data + x.offsets[2 * q];
    const bool pair = 2 * q + 1 < k;
    const std::int8_t* r1 = pair ? x.data + x.offsets[2 * q + 1] : nullptr;
    __m256i b[NV];
    for (int v = 0; v < NV; ++v) {
      b[v] = pairs8(load_window8<CONTIGUOUS>(r0, vec[v]),
                    pair ? load_window8<CONTIGUOUS>(r1, vec[v])
                         : _mm_setzero_si128());
    }
    for (int r = 0; r < FB; ++r) {
      const __m256i w = _mm256_set1_epi32(wp[r * kp + q]);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_add_epi32(acc[r][v], _mm256_madd_epi16(b[v], w));
      }
    }
  }
  for (int r = 0; r < FB; ++r) {
    for (int v = 0; v < NV; ++v) {
      store8(acc[r][v],
             negate != nullptr ? negate + r * n + j + 8 * v : nullptr,
             out + r * n + j + 8 * v);
    }
  }
}

/// Plans NV vectors from column j (at `at`, which it advances past them)
/// and runs the tile specialized for whether they are all contiguous.
template <int FB, int NV>
__attribute__((target("avx2"))) void left_window_tile_avx2(
    const std::int32_t* wp, std::int64_t kp, const core::I8Window& x,
    std::int64_t k, std::int64_t j, backends::WindowCursor& at,
    const std::uint8_t* negate, std::int32_t* out) {
  Window8 vec[NV];
  bool contiguous = true;
  for (int v = 0; v < NV; ++v) {
    plan_window8(x, at, vec[v]);
    at.advance(x, 8);
    contiguous = contiguous && vec[v].contiguous;
  }
  if (contiguous) {
    left_tile_avx2<FB, NV, true>(wp, kp, x, k, vec, j, negate, out);
  } else {
    left_tile_avx2<FB, NV, false>(wp, kp, x, k, vec, j, negate, out);
  }
}

/// FB filter rows starting at f0: 16-column tiles, one 8-column tile, then
/// the scalar datapath for the last n % 8 columns.
template <int FB>
__attribute__((target("avx2"))) void left_rows_avx2(
    const core::PreparedI8& w, std::int64_t f0, const core::I8Window& x,
    const std::uint8_t* negate, std::int32_t* out) {
  const std::int64_t k = w.cols;
  const std::int64_t n = x.extent;
  const std::int64_t kp = (k + 1) / 2;
  const std::int32_t* wp = w.packed.data() + f0 * kp;
  const std::uint8_t* neg = negate != nullptr ? negate + f0 * n : nullptr;
  std::int32_t* o = out + f0 * n;
  backends::WindowCursor at;
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    left_window_tile_avx2<FB, 2>(wp, kp, x, k, j, at, neg, o);
  }
  if (j + 8 <= n) {
    left_window_tile_avx2<FB, 1>(wp, kp, x, k, j, at, neg, o);
    j += 8;
  }
  for (std::int64_t r = f0; r < f0 + FB && j < n; ++r) {
    backends::window_cols_scalar(w, r, x, j, n, out);
    backends::negate_cols(negate, r, n, j, n, out);
  }
}

/// out[i, :] = X[i, :] @ W over 8-column blocks of pre-interleaved weight
/// pairs, with the activation pair broadcast; tail columns run scalar.
__attribute__((target("avx2"))) void right_avx2(const core::PreparedI8& w,
                                                const std::int8_t* x,
                                                std::int64_t m,
                                                const std::uint8_t* negate,
                                                std::int32_t* out) {
  const std::int64_t k = w.rows;
  const std::int64_t n = w.cols;
  const std::int64_t kp = (k + 1) / 2;
  const std::int64_t blocks = n / 8;
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int8_t* xr = x + i * k;
    for (std::int64_t b = 0; b < blocks; ++b) {
      const std::int32_t* wp = w.packed.data() + b * kp * 8;
      __m256i acc = _mm256_setzero_si256();
      for (std::int64_t q = 0; q < kp; ++q) {
        const std::int64_t p = 2 * q;
        const __m256i xv = _mm256_set1_epi32(
            backends::i16_pair(xr[p], p + 1 < k ? xr[p + 1] : 0));
        const __m256i wv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(wp + q * 8));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wv, xv));
      }
      store8(acc, negate != nullptr ? negate + i * n + b * 8 : nullptr,
             out + i * n + b * 8);
    }
    backends::matmul_i8_row_scalar(x, i, k, w.values.data(), n, blocks * 8, n,
                                   out);
    backends::negate_cols(negate, i, n, blocks * 8, n, out);
  }
}

__attribute__((target("avx2"))) void matmul_i8_prepared_avx2(
    const core::PreparedI8& w, const core::I8Window& x,
    const std::uint8_t* negate, std::int32_t* out) {
  if (w.side == core::PreparedI8::Side::kRight) {
    right_avx2(w, x.data, x.extent, negate, out);
    return;
  }
  std::int64_t f0 = 0;
  for (; f0 + kAvx2FilterBlock <= w.rows; f0 += kAvx2FilterBlock) {
    left_rows_avx2<kAvx2FilterBlock>(w, f0, x, negate, out);
  }
  switch (w.rows - f0) {
    case 3:
      left_rows_avx2<3>(w, f0, x, negate, out);
      break;
    case 2:
      left_rows_avx2<2>(w, f0, x, negate, out);
      break;
    case 1:
      left_rows_avx2<1>(w, f0, x, negate, out);
      break;
    default:
      break;
  }
}

/// 8 lanes of the reference quantizer's rounding of v = x * inv_scale:
/// NaN -> 0, clamp to [lo, 127], round half to even.
__attribute__((target("avx2"))) inline __m256i quantize8(__m256 v,
                                                         __m256 lo) {
  v = _mm256_and_ps(v, _mm256_cmp_ps(v, v, _CMP_ORD_Q));
  v = _mm256_min_ps(_mm256_max_ps(v, lo), _mm256_set1_ps(127.0f));
  return _mm256_cvtps_epi32(
      _mm256_round_ps(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

/// Returns the number of leading elements quantized; the caller finishes
/// the tail on the scalar reference.
__attribute__((target("avx2"))) std::int64_t quantize_i8_avx2(
    const float* x, std::int64_t n, float inv_scale, std::int8_t* q) {
  const __m256 inv = _mm256_set1_ps(inv_scale);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // packs interleaves 128-bit lanes; the permute restores element order.
    const __m256i w16 = _mm256_permute4x64_epi64(
        _mm256_packs_epi32(
            quantize8(_mm256_mul_ps(_mm256_loadu_ps(x + i), inv), lo),
            quantize8(_mm256_mul_ps(_mm256_loadu_ps(x + i + 8), inv), lo)),
        0xD8);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                     _mm_packs_epi16(_mm256_castsi256_si128(w16),
                                     _mm256_extracti128_si256(w16, 1)));
  }
  return i;
}

/// 8 lanes of the requantizing drain: drain_i32's multiply then add (this
/// target has no FMA to fuse them into), then quantize8 with the ReLU as
/// the clamp's lower bound `lo`.
__attribute__((target("avx2"))) inline __m256i drain8(
    const std::int32_t* acc, const float* sign_bias, __m256 scale,
    __m256 inv, __m256 lo) {
  __m256 v = _mm256_cvtepi32_ps(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc)));
  v = _mm256_add_ps(_mm256_mul_ps(v, scale), _mm256_loadu_ps(sign_bias));
  return quantize8(_mm256_mul_ps(v, inv), lo);
}

/// Returns the number of leading elements drained; the caller finishes
/// the tail on the scalar reference.
__attribute__((target("avx2"))) std::int64_t drain_i8_avx2(
    const std::int32_t* acc, std::int64_t n, float scale,
    const float* sign_bias, bool relu, float inv_scale, std::int8_t* q) {
  const __m256 sv = _mm256_set1_ps(scale);
  const __m256 inv = _mm256_set1_ps(inv_scale);
  const __m256 lo = _mm256_set1_ps(relu ? 0.0f : -127.0f);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i w16 = _mm256_permute4x64_epi64(
        _mm256_packs_epi32(drain8(acc + i, sign_bias + i, sv, inv, lo),
                           drain8(acc + i + 8, sign_bias + i + 8, sv, inv, lo)),
        0xD8);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                     _mm_packs_epi16(_mm256_castsi256_si128(w16),
                                     _mm256_extracti128_si256(w16, 1)));
  }
  return i;
}

class Avx2Backend final : public core::ComputeBackend {
 public:
  std::string name() const override { return "avx2"; }
  std::string description() const override {
    return "AVX2/FMA kernels: 6x16 GEMM microtile, 8-lane elementwise, "
           "vpmaddwd int8 MMU path";
  }
  bool supported() const override {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
  int priority() const override { return 10; }

  std::int64_t gemm_mr() const override { return kAvx2MR; }
  std::int64_t gemm_nr() const override { return kAvx2NR; }

  void gemm_micro(const float* ap, const float* bp, std::int64_t k, float* c,
                  std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                  float beta) const override {
    micro_avx2(ap, bp, k, c, ldc, mr, nr, beta);
  }

  void relu(const float* x, float* y, std::int64_t n) const override {
    relu_avx2(x, y, n);
  }
  void relu_mask(const float* x, float* g, std::int64_t n) const override {
    relu_mask_avx2(x, g, n);
  }
  void mul(const float* a, const float* b, float* y,
           std::int64_t n) const override {
    mul_avx2(a, b, y, n);
  }
  void axpy(float s, const float* x, float* y, std::int64_t n) const override {
    axpy_avx2(s, x, y, n);
  }
  void add_scalar(float s, float* y, std::int64_t n) const override {
    add_scalar_avx2(s, y, n);
  }
  float dot(const float* a, const float* b, std::int64_t n) const override {
    return dot_avx2(a, b, n);
  }
  void lock_relu_grad(const float* g, const float* z, const float* lock,
                      float* gx, std::int64_t n) const override {
    lock_relu_grad_avx2(g, z, lock, gx, n);
  }

  void matmul_i8_prepared(const core::PreparedI8& w, const core::I8Window& x,
                          const std::uint8_t* negate,
                          std::int32_t* out) const override {
    matmul_i8_prepared_avx2(w, x, negate, out);
  }

  void quantize_i8(const float* x, std::int64_t n, float inv_scale,
                   std::int8_t* q) const override {
    const std::int64_t done = quantize_i8_avx2(x, n, inv_scale, q);
    ComputeBackend::quantize_i8(x + done, n - done, inv_scale, q + done);
  }

  void drain_i8(const std::int32_t* acc, std::int64_t n, float scale,
                const float* sign_bias, bool relu, float inv_scale,
                std::int8_t* q) const override {
    const std::int64_t done =
        drain_i8_avx2(acc, n, scale, sign_bias, relu, inv_scale, q);
    ComputeBackend::drain_i8(acc + done, n - done, scale, sign_bias + done,
                             relu, inv_scale, q + done);
  }

 protected:
  void pack_i8(core::PreparedI8& w) const override {
    backends::pack_i16_pairs(w, 8);
  }
};

}  // namespace

std::unique_ptr<core::ComputeBackend> make_avx2_backend() {
  return std::make_unique<Avx2Backend>();
}

}  // namespace hpnn::ops

#endif  // HPNN_SIMD_AVX2 && __x86_64__
