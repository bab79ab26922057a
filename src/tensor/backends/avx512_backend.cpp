// The AVX-512/VNNI tier: an 8 x 32 float microtile (16 zmm accumulators),
// 16-lane elementwise ops, and a vpdpwssd int8 MMU datapath over prepared
// weights. Everything is compiled behind per-function target attributes so
// one binary carries this tier alongside the AVX2 and scalar ones;
// supported() gates execution on the CPUID probes.
#include <algorithm>

#include "tensor/backends/backends.hpp"
#include "tensor/backends/micro_common.hpp"

#if defined(HPNN_SIMD_AVX512) && defined(__x86_64__)

// GCC's AVX-512 intrinsic headers seed "undefined" vectors with
// `__Y = __Y`, which trips spurious -Wuninitialized through casts and
// broadcasts (GCC PR105593). Clang does not have the pattern.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#define HPNN_AVX512_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni")))

namespace hpnn::ops {

namespace {

constexpr std::int64_t kAvx512MR = 8;
constexpr std::int64_t kAvx512NR = 32;

/// AVX-512 microkernel: 8 x 32 tile in 16 zmm accumulators, two aligned
/// B-vector loads and eight A broadcasts per k step. No data-dependent
/// branches — the instruction stream is a pure function of k/mr/nr/beta.
HPNN_AVX512_TARGET void micro_avx512(const float* ap, const float* bp,
                                     std::int64_t k, float* c,
                                     std::int64_t ldc, std::int64_t mr,
                                     std::int64_t nr, float beta) {
  __m512 acc[kAvx512MR][2];
  for (std::int64_t r = 0; r < kAvx512MR; ++r) {
    acc[r][0] = _mm512_setzero_ps();
    acc[r][1] = _mm512_setzero_ps();
  }
  for (std::int64_t p = 0; p < k; ++p) {
    // B panel rows are kAvx512NR floats (128 bytes) from a 64-byte-aligned
    // arena block, so aligned loads are safe.
    const __m512 b0 = _mm512_load_ps(bp + p * kAvx512NR);
    const __m512 b1 = _mm512_load_ps(bp + p * kAvx512NR + 16);
    const float* arow = ap + p * kAvx512MR;
    for (std::int64_t r = 0; r < kAvx512MR; ++r) {
      const __m512 av = _mm512_set1_ps(arow[r]);
      acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  if (mr == kAvx512MR && nr == kAvx512NR) {
    if (beta == 0.0f) {
      for (std::int64_t r = 0; r < kAvx512MR; ++r) {
        _mm512_storeu_ps(c + r * ldc, acc[r][0]);
        _mm512_storeu_ps(c + r * ldc + 16, acc[r][1]);
      }
    } else if (beta == 1.0f) {
      for (std::int64_t r = 0; r < kAvx512MR; ++r) {
        float* crow = c + r * ldc;
        _mm512_storeu_ps(crow,
                         _mm512_add_ps(_mm512_loadu_ps(crow), acc[r][0]));
        _mm512_storeu_ps(
            crow + 16, _mm512_add_ps(_mm512_loadu_ps(crow + 16), acc[r][1]));
      }
    } else {
      const __m512 bv = _mm512_set1_ps(beta);
      for (std::int64_t r = 0; r < kAvx512MR; ++r) {
        float* crow = c + r * ldc;
        _mm512_storeu_ps(
            crow, _mm512_fmadd_ps(bv, _mm512_loadu_ps(crow), acc[r][0]));
        _mm512_storeu_ps(
            crow + 16,
            _mm512_fmadd_ps(bv, _mm512_loadu_ps(crow + 16), acc[r][1]));
      }
    }
    return;
  }
  alignas(64) float tile[kAvx512MR * kAvx512NR];
  for (std::int64_t r = 0; r < kAvx512MR; ++r) {
    _mm512_store_ps(tile + r * kAvx512NR, acc[r][0]);
    _mm512_store_ps(tile + r * kAvx512NR + 16, acc[r][1]);
  }
  backends::merge_tile(tile, kAvx512NR, c, ldc, mr, nr, beta);
}

HPNN_AVX512_TARGET void relu_avx512(const float* x, float* y,
                                    std::int64_t n) {
  const __m512 zero = _mm512_setzero_ps();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_max_ps(_mm512_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) {
    y[i] = std::max(x[i], 0.0f);
  }
}

HPNN_AVX512_TARGET void relu_mask_avx512(const float* x, float* g,
                                         std::int64_t n) {
  const __m512 zero = _mm512_setzero_ps();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __mmask16 keep =
        _mm512_cmp_ps_mask(_mm512_loadu_ps(x + i), zero, _CMP_GT_OQ);
    _mm512_storeu_ps(g + i, _mm512_maskz_mov_ps(keep, _mm512_loadu_ps(g + i)));
  }
  for (; i < n; ++i) {
    g[i] = x[i] > 0.0f ? g[i] : 0.0f;
  }
}

HPNN_AVX512_TARGET void mul_avx512(const float* a, const float* b, float* y,
                                   std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        y + i, _mm512_mul_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) {
    y[i] = a[i] * b[i];
  }
}

HPNN_AVX512_TARGET void axpy_avx512(float s, const float* x, float* y,
                                    std::int64_t n) {
  const __m512 sv = _mm512_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(sv, _mm512_loadu_ps(x + i),
                                            _mm512_loadu_ps(y + i)));
  }
  for (; i < n; ++i) {
    y[i] += s * x[i];
  }
}

HPNN_AVX512_TARGET void add_scalar_avx512(float s, float* y, std::int64_t n) {
  const __m512 sv = _mm512_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_add_ps(_mm512_loadu_ps(y + i), sv));
  }
  for (; i < n; ++i) {
    y[i] += s;
  }
}

HPNN_AVX512_TARGET float dot_avx512(const float* a, const float* b,
                                    std::int64_t n) {
  __m512 acc = _mm512_setzero_ps();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i), acc);
  }
  // Fixed pairwise lane reduction: 16 -> 8 -> 4 -> 2 -> 1 (explicit, so the
  // reduction order is a property of this backend, not of the compiler's
  // reduce intrinsic lowering). The upper half is brought down with an
  // f32x4 shuffle + cast: the 256-bit extract needs avx512dq, which is not
  // in this tier's target set, and GCC's 128-bit extract trips a spurious
  // -Wuninitialized through _mm_undefined_ps.
  const __m256 half = _mm256_add_ps(
      _mm512_castps512_ps256(acc),
      _mm512_castps512_ps256(_mm512_shuffle_f32x4(acc, acc, 0xEE)));
  const __m128 lo = _mm256_castps256_ps128(half);
  const __m128 hi = _mm256_extractf128_ps(half, 1);
  const __m128 s4 = _mm_add_ps(lo, hi);
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  const __m128 s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x1));
  float sum = _mm_cvtss_f32(s1);
  for (; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

HPNN_AVX512_TARGET void lock_relu_grad_avx512(const float* g, const float* z,
                                              const float* lock, float* gx,
                                              std::int64_t n) {
  const __m512 zero = _mm512_setzero_ps();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __mmask16 keep =
        _mm512_cmp_ps_mask(_mm512_loadu_ps(z + i), zero, _CMP_GT_OQ);
    const __m512 gl =
        _mm512_mul_ps(_mm512_loadu_ps(g + i), _mm512_loadu_ps(lock + i));
    _mm512_storeu_ps(gx + i, _mm512_maskz_mov_ps(keep, gl));
  }
  for (; i < n; ++i) {
    gx[i] = z[i] > 0.0f ? g[i] * lock[i] : 0.0f;
  }
}

// ---- prepared-weights int8 path ----------------------------------------
// The AVX2 tier's layout and loop structure (int16 weight pairs along k,
// see backends::pack_i16_pairs) at 16 int32 lanes, with VNNI's vpdpwssd
// fusing the pairwise multiply and the accumulate. vpdpwssd does not
// saturate and int8 products cannot overflow a pair sum, so the int32
// accumulation wraps exactly like the scalar datapath.

constexpr std::int64_t kAvx512FilterBlock = 8;

/// 16 int8 values of rows a and b interleaved into 16 int16 pairs.
HPNN_AVX512_TARGET inline __m512i pairs16(__m128i a, __m128i b) {
  const __m256i ab = _mm256_inserti128_si256(
      _mm256_castsi128_si256(_mm_unpacklo_epi8(a, b)),
      _mm_unpackhi_epi8(a, b), 1);
  return _mm512_cvtepi8_epi16(ab);
}

/// Stores 16 accumulators, negating the lanes whose negate byte is set.
HPNN_AVX512_TARGET inline void store16(__m512i acc,
                                       const std::uint8_t* negate,
                                       std::int32_t* out) {
  if (negate != nullptr) {
    const __m512i nv = _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(negate)));
    acc = _mm512_mask_sub_epi32(acc, _mm512_test_epi32_mask(nv, nv),
                                _mm512_setzero_si512(), acc);
  }
  _mm512_storeu_si512(reinterpret_cast<void*>(out), acc);
}

/// How 16 consecutive window columns are read from one window row: as
/// `runs` pieces, piece s a masked byte load at the row's base + shift[s]
/// whose lanes `mask[s]` it fills. A vector inside one run is a single
/// full load. Every shift is >= 0, and the masked lanes are never
/// touched, so no byte outside the window is read.
struct Window16 {
  int runs = 0;
  std::int64_t shift[16] = {};
  __mmask16 mask[16] = {};
};

/// Plans the 16 columns from `at`; returns their run count.
inline int plan_window16(const core::I8Window& x, backends::WindowCursor at,
                         Window16& v) {
  v.runs = 0;
  for (std::int64_t c = 0; c < 16;) {
    const std::int64_t len = std::min(x.width - at.col, 16 - c);
    v.shift[v.runs] = at.rel(x) - c;
    v.mask[v.runs] = static_cast<__mmask16>(((1u << len) - 1u) << c);
    ++v.runs;
    c += len;
    at.advance(x, len);
  }
  return v.runs;
}

/// The 16 bytes of one window row at the columns `v` plans; RUNS is the
/// run count when the caller knows it (1 or 2), else 0.
template <int RUNS>
HPNN_AVX512_TARGET inline __m128i load_window16(const std::int8_t* row,
                                                const Window16& v) {
  if constexpr (RUNS == 1) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + v.shift[0]));
  } else {
    const int runs = RUNS > 0 ? RUNS : v.runs;
    __m128i out = _mm_setzero_si128();
    for (int s = 0; s < runs; ++s) {
      out = _mm_mask_loadu_epi8(out, v.mask[s], row + v.shift[s]);
    }
    return out;
  }
}

/// FB filters x (16 * NV) columns of out = W @ X starting at column j, X
/// read through the window with the vectors `vec` plans.
template <int FB, int NV, int RUNS>
HPNN_AVX512_TARGET void left_tile_avx512(const std::int32_t* wp,
                                         std::int64_t kp,
                                         const core::I8Window& x,
                                         std::int64_t k, const Window16* vec,
                                         std::int64_t j,
                                         const std::uint8_t* negate,
                                         std::int32_t* out) {
  const std::int64_t n = x.extent;
  __m512i acc[FB][NV];
  for (int r = 0; r < FB; ++r) {
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = _mm512_setzero_si512();
    }
  }
  for (std::int64_t q = 0; q < kp; ++q) {
    const std::int8_t* r0 = x.data + x.offsets[2 * q];
    const bool pair = 2 * q + 1 < k;
    const std::int8_t* r1 = pair ? x.data + x.offsets[2 * q + 1] : nullptr;
    __m512i b[NV];
    for (int v = 0; v < NV; ++v) {
      b[v] = pairs16(load_window16<RUNS>(r0, vec[v]),
                     pair ? load_window16<RUNS>(r1, vec[v])
                          : _mm_setzero_si128());
    }
    for (int r = 0; r < FB; ++r) {
      const __m512i w = _mm512_set1_epi32(wp[r * kp + q]);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm512_dpwssd_epi32(acc[r][v], b[v], w);
      }
    }
  }
  for (int r = 0; r < FB; ++r) {
    for (int v = 0; v < NV; ++v) {
      store16(acc[r][v],
              negate != nullptr ? negate + r * n + j + 16 * v : nullptr,
              out + r * n + j + 16 * v);
    }
  }
}

/// Plans NV vectors from column j (at `at`, which it advances past them)
/// and runs the tile specialized for their common run count: 1 (inside
/// one run), 2 (out_w 8), or any.
template <int FB, int NV>
HPNN_AVX512_TARGET void left_window_tile_avx512(
    const std::int32_t* wp, std::int64_t kp, const core::I8Window& x,
    std::int64_t k, std::int64_t j, backends::WindowCursor& at,
    const std::uint8_t* negate, std::int32_t* out) {
  Window16 vec[NV];
  int runs = plan_window16(x, at, vec[0]);
  at.advance(x, 16);
  for (int v = 1; v < NV; ++v) {
    runs = plan_window16(x, at, vec[v]) == runs ? runs : 0;
    at.advance(x, 16);
  }
  if (runs == 1) {
    left_tile_avx512<FB, NV, 1>(wp, kp, x, k, vec, j, negate, out);
  } else if (runs == 2) {
    left_tile_avx512<FB, NV, 2>(wp, kp, x, k, vec, j, negate, out);
  } else {
    left_tile_avx512<FB, NV, 0>(wp, kp, x, k, vec, j, negate, out);
  }
}

/// FB filter rows starting at f0: 32-column tiles, one 16-column tile,
/// then the scalar datapath for the last n % 16 columns.
template <int FB>
HPNN_AVX512_TARGET void left_rows_avx512(const core::PreparedI8& w,
                                         std::int64_t f0,
                                         const core::I8Window& x,
                                         const std::uint8_t* negate,
                                         std::int32_t* out) {
  const std::int64_t k = w.cols;
  const std::int64_t n = x.extent;
  const std::int64_t kp = (k + 1) / 2;
  const std::int32_t* wp = w.packed.data() + f0 * kp;
  const std::uint8_t* neg = negate != nullptr ? negate + f0 * n : nullptr;
  std::int32_t* o = out + f0 * n;
  backends::WindowCursor at;
  std::int64_t j = 0;
  for (; j + 32 <= n; j += 32) {
    left_window_tile_avx512<FB, 2>(wp, kp, x, k, j, at, neg, o);
  }
  if (j + 16 <= n) {
    left_window_tile_avx512<FB, 1>(wp, kp, x, k, j, at, neg, o);
    j += 16;
  }
  for (std::int64_t r = f0; r < f0 + FB && j < n; ++r) {
    backends::window_cols_scalar(w, r, x, j, n, out);
    backends::negate_cols(negate, r, n, j, n, out);
  }
}

/// out[i, :] = X[i, :] @ W over blocks of 16 pre-interleaved weight
/// columns, four blocks per pass (pack_i16_pairs zero-pads the blocks to a
/// multiple of four): four independent vpdpwssd chains, so each
/// multiply-add's latency hides behind the others. Columns from n on are
/// padding, neither read from `negate` nor stored.
HPNN_AVX512_TARGET void right_avx512(const core::PreparedI8& w,
                                     const std::int8_t* x, std::int64_t m,
                                     const std::uint8_t* negate,
                                     std::int32_t* out) {
  const std::int64_t k = w.rows;
  const std::int64_t n = w.cols;
  const std::int64_t kp = (k + 1) / 2;
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int8_t* xr = x + i * k;
    for (std::int64_t j0 = 0; j0 < n; j0 += 64) {
      const std::int32_t* wp = w.packed.data() + j0 * kp;
      __m512i acc[4];
      for (int c = 0; c < 4; ++c) {
        acc[c] = _mm512_setzero_si512();
      }
      for (std::int64_t q = 0; q < kp; ++q) {
        const std::int64_t p = 2 * q;
        const __m512i xv = _mm512_set1_epi32(
            backends::i16_pair(xr[p], p + 1 < k ? xr[p + 1] : 0));
        for (int c = 0; c < 4; ++c) {
          acc[c] = _mm512_dpwssd_epi32(
              acc[c], _mm512_loadu_si512(wp + (c * kp + q) * 16), xv);
        }
      }
      for (int c = 0; c < 4; ++c) {
        const std::int64_t j = j0 + 16 * c;
        const std::int64_t left = std::max<std::int64_t>(n - j, 0);
        const auto mask = static_cast<__mmask16>(
            left >= 16 ? 0xFFFFu : (1u << left) - 1u);
        __m512i v = acc[c];
        if (negate != nullptr) {
          const __m512i nv = _mm512_cvtepu8_epi32(
              _mm_maskz_loadu_epi8(mask, negate + i * n + j));
          v = _mm512_mask_sub_epi32(v, _mm512_test_epi32_mask(nv, nv),
                                    _mm512_setzero_si512(), v);
        }
        _mm512_mask_storeu_epi32(out + i * n + j, mask, v);
      }
    }
  }
}

HPNN_AVX512_TARGET void matmul_i8_prepared_avx512(const core::PreparedI8& w,
                                                  const core::I8Window& x,
                                                  const std::uint8_t* negate,
                                                  std::int32_t* out) {
  if (w.side == core::PreparedI8::Side::kRight) {
    right_avx512(w, x.data, x.extent, negate, out);
    return;
  }
  std::int64_t f0 = 0;
  for (; f0 + kAvx512FilterBlock <= w.rows; f0 += kAvx512FilterBlock) {
    left_rows_avx512<kAvx512FilterBlock>(w, f0, x, negate, out);
  }
  switch (w.rows - f0) {
    case 7:
      left_rows_avx512<7>(w, f0, x, negate, out);
      break;
    case 6:
      left_rows_avx512<6>(w, f0, x, negate, out);
      break;
    case 5:
      left_rows_avx512<5>(w, f0, x, negate, out);
      break;
    case 4:
      left_rows_avx512<4>(w, f0, x, negate, out);
      break;
    case 3:
      left_rows_avx512<3>(w, f0, x, negate, out);
      break;
    case 2:
      left_rows_avx512<2>(w, f0, x, negate, out);
      break;
    case 1:
      left_rows_avx512<1>(w, f0, x, negate, out);
      break;
    default:
      break;
  }
}

/// 16 lanes of the reference quantizer's rounding of v = x * inv_scale,
/// as int32: NaN -> 0, clamp to [lo, 127], round half to even.
HPNN_AVX512_TARGET inline __m512i quantize16(__m512 v, __m512 lo) {
  v = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(v, v, _CMP_ORD_Q), v);
  v = _mm512_min_ps(_mm512_max_ps(v, lo), _mm512_set1_ps(127.0f));
  return _mm512_cvt_roundps_epi32(
      v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}

/// Returns the number of leading elements quantized; the caller finishes
/// the tail on the scalar reference.
HPNN_AVX512_TARGET std::int64_t quantize_i8_avx512(const float* x,
                                                   std::int64_t n,
                                                   float inv_scale,
                                                   std::int8_t* q) {
  const __m512 inv = _mm512_set1_ps(inv_scale);
  const __m512 lo = _mm512_set1_ps(-127.0f);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i iv =
        quantize16(_mm512_mul_ps(_mm512_loadu_ps(x + i), inv), lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                     _mm512_cvtsepi32_epi8(iv));
  }
  return i;
}

/// 16 lanes of the requantizing drain as int32: drain_i32's multiply then
/// add, then quantize16 with the ReLU as the clamp's lower bound `lo`.
/// GCC contracts a plain vector multiply and add into an FMA under this
/// target; the rounding-mode multiply (current mode, so the same bits) is
/// a builtin it cannot fuse.
HPNN_AVX512_TARGET inline __m512i drain16(__m512i acc, __m512 sign_bias,
                                          __m512 scale, __m512 inv,
                                          __m512 lo) {
  const __m512 v = _mm512_add_ps(
      _mm512_mul_round_ps(_mm512_cvtepi32_ps(acc), scale,
                          _MM_FROUND_CUR_DIRECTION),
      sign_bias);
  return quantize16(_mm512_mul_ps(v, inv), lo);
}

/// The requantizing drain: 64 lanes per pass packed to bytes with two
/// saturating packs (the values are already in [-127, 127]) and one dword
/// permute, then 16-lane masked vectors for the rest.
HPNN_AVX512_TARGET void drain_i8_avx512(const std::int32_t* acc,
                                        std::int64_t n, float scale,
                                        const float* sign_bias, bool relu,
                                        float inv_scale, std::int8_t* q) {
  const __m512 sv = _mm512_set1_ps(scale);
  const __m512 inv = _mm512_set1_ps(inv_scale);
  const __m512 lo = _mm512_set1_ps(relu ? 0.0f : -127.0f);
  // After the packs, 128-bit lane l holds elements 4l..4l+3 of each of the
  // four vectors in turn; dword j of the result comes from dword
  // (j % 4) * 4 + j / 4.
  const __m512i order = _mm512_set_epi32(15, 11, 7, 3, 14, 10, 6, 2, 13, 9,
                                         5, 1, 12, 8, 4, 0);
  std::int64_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m512i d[4];
    for (int v = 0; v < 4; ++v) {
      d[v] = drain16(_mm512_loadu_si512(acc + i + 16 * v),
                     _mm512_loadu_ps(sign_bias + i + 16 * v), sv, inv, lo);
    }
    const __m512i bytes = _mm512_packs_epi16(_mm512_packs_epi32(d[0], d[1]),
                                             _mm512_packs_epi32(d[2], d[3]));
    _mm512_storeu_si512(q + i, _mm512_permutexvar_epi32(order, bytes));
  }
  for (; i < n; i += 16) {
    const __mmask16 m = n - i >= 16
                            ? static_cast<__mmask16>(0xFFFF)
                            : static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512i d =
        drain16(_mm512_maskz_loadu_epi32(m, acc + i),
                _mm512_maskz_loadu_ps(m, sign_bias + i), sv, inv, lo);
    _mm512_mask_cvtsepi32_storeu_epi8(q + i, m, d);
  }
}

class Avx512Backend final : public core::ComputeBackend {
 public:
  std::string name() const override { return "avx512"; }
  std::string description() const override {
    return "AVX-512/VNNI kernels: 8x32 GEMM microtile, 16-lane elementwise, "
           "vpdpwssd int8 MMU path";
  }
  bool supported() const override {
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vl") &&
           __builtin_cpu_supports("avx512vnni");
  }
  int priority() const override { return 20; }

  std::int64_t gemm_mr() const override { return kAvx512MR; }
  std::int64_t gemm_nr() const override { return kAvx512NR; }

  void gemm_micro(const float* ap, const float* bp, std::int64_t k, float* c,
                  std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                  float beta) const override {
    micro_avx512(ap, bp, k, c, ldc, mr, nr, beta);
  }

  void relu(const float* x, float* y, std::int64_t n) const override {
    relu_avx512(x, y, n);
  }
  void relu_mask(const float* x, float* g, std::int64_t n) const override {
    relu_mask_avx512(x, g, n);
  }
  void mul(const float* a, const float* b, float* y,
           std::int64_t n) const override {
    mul_avx512(a, b, y, n);
  }
  void axpy(float s, const float* x, float* y, std::int64_t n) const override {
    axpy_avx512(s, x, y, n);
  }
  void add_scalar(float s, float* y, std::int64_t n) const override {
    add_scalar_avx512(s, y, n);
  }
  float dot(const float* a, const float* b, std::int64_t n) const override {
    return dot_avx512(a, b, n);
  }
  void lock_relu_grad(const float* g, const float* z, const float* lock,
                      float* gx, std::int64_t n) const override {
    lock_relu_grad_avx512(g, z, lock, gx, n);
  }

  void matmul_i8_prepared(const core::PreparedI8& w, const core::I8Window& x,
                          const std::uint8_t* negate,
                          std::int32_t* out) const override {
    matmul_i8_prepared_avx512(w, x, negate, out);
  }

  void quantize_i8(const float* x, std::int64_t n, float inv_scale,
                   std::int8_t* q) const override {
    const std::int64_t done = quantize_i8_avx512(x, n, inv_scale, q);
    ComputeBackend::quantize_i8(x + done, n - done, inv_scale, q + done);
  }

  void drain_i8(const std::int32_t* acc, std::int64_t n, float scale,
                const float* sign_bias, bool relu, float inv_scale,
                std::int8_t* q) const override {
    drain_i8_avx512(acc, n, scale, sign_bias, relu, inv_scale, q);
  }

 protected:
  void pack_i8(core::PreparedI8& w) const override {
    backends::pack_i16_pairs(w, 16);
  }
};

}  // namespace

std::unique_ptr<core::ComputeBackend> make_avx512_backend() {
  return std::make_unique<Avx512Backend>();
}

}  // namespace hpnn::ops

#endif  // HPNN_SIMD_AVX512 && __x86_64__
