// The AVX-512/VNNI tier: an 8 x 32 float microtile (16 zmm accumulators),
// 16-lane elementwise ops, and an int8 MMU datapath over prepared weights
// (vpdpbusd for convolutions, vpdpwssd for linear layers). Everything is
// compiled behind per-function target attributes so one binary carries
// this tier alongside the AVX2 and scalar ones; supported() gates
// execution on the CPUID probes.
#include <algorithm>
#include <array>
#include <utility>

#include "core/aligned_buffer.hpp"
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
// The int8 kernels' building blocks, inlined even into large callers.
#define HPNN_AVX512_INLINE \
  HPNN_AVX512_TARGET inline __attribute__((always_inline))

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
// kLeft (the trusted device's convolutions): u8 x s8 vpdpbusd, four k rows
// per instruction. An activation byte a XORed with 0x80 is a + 128 as u8,
// so every product over-counts by 128 * w; pack_u8_quads stores that
// excess per filter and the store subtracts it before the keyed negation.
// vpdpbusd does not saturate, so the int32 accumulation wraps exactly like
// the scalar datapath. kRight keeps the AVX2 tier's int16 pairs along k
// (backends::pack_i16_pairs) with vpdpwssd.

constexpr std::int64_t kQuadPanelCols = 32;  // two vectors of 16 lanes
constexpr int kMaxFilterBlock = 12;          // 24 accumulators

/// The kLeft layout: k zero-padded to a multiple of four, kq = k / 4 quads.
/// Word [q * rows + r] holds w[r][4q .. 4q + 3], row 4q in byte 0, so a
/// filter block broadcasts consecutive words. Word [kq * rows + r] is the
/// correction 128 * Σ_p w[r][p] mod 2^32. A padded row's zero weight
/// cancels whatever byte the activation quad holds there.
void pack_u8_quads(core::PreparedI8& w) {
  const std::int64_t rows = w.rows;
  const std::int64_t k = w.cols;
  const std::int64_t kq = (k + 3) / 4;
  w.packed.assign(static_cast<std::size_t>((kq + 1) * rows), 0);
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int8_t* wr = w.values.data() + r * k;
    std::uint32_t sum = 0;
    for (std::int64_t p = 0; p < k; ++p) {
      const auto byte = static_cast<std::uint32_t>(
          static_cast<std::uint8_t>(wr[p]));
      auto& word = w.packed[static_cast<std::size_t>((p / 4) * rows + r)];
      word = static_cast<std::int32_t>(static_cast<std::uint32_t>(word) |
                                       (byte << (8 * (p % 4))));
      sum += static_cast<std::uint32_t>(static_cast<std::int32_t>(wr[p]));
    }
    w.packed[static_cast<std::size_t>(kq * rows + r)] =
        static_cast<std::int32_t>(sum * 128u);
  }
}

/// How 16 consecutive window columns are read from one window row: as
/// `runs` pieces, piece s a masked byte load at the row's base + shift[s]
/// whose lanes `mask[s]` it fills. A full vector inside one run is a
/// single full load. Every shift is >= 0, and the masked lanes are never
/// touched, so no byte outside the window is read.
struct Window16 {
  int runs = 0;
  std::int64_t shift[16] = {};
  __mmask16 mask[16] = {};
};

/// Plans the first `cols` (0-16) of the 16 columns from `at`, leaving the
/// rest unread, and advances `at` past them. Returns the run count, or 0
/// when the vector is partial (then only the masked loads may read it).
inline int plan_window16(const core::I8Window& x, backends::WindowCursor& at,
                         std::int64_t cols, Window16& v) {
  v.runs = 0;
  for (std::int64_t c = 0; c < cols;) {
    const std::int64_t len = std::min(x.width - at.col, cols - c);
    v.shift[v.runs] = at.rel(x) - c;
    v.mask[v.runs] = static_cast<__mmask16>(((1u << len) - 1u) << c);
    ++v.runs;
    c += len;
    at.advance(x, len);
  }
  return cols == 16 ? v.runs : 0;
}

/// The 16 bytes of one window row at the columns `v` plans; RUNS is the
/// run count when the caller knows it (1 or 2), else 0.
template <int RUNS>
HPNN_AVX512_INLINE __m128i load_window16(const std::int8_t* row,
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

/// Quad row l of window rows p, p + 1, ... (`offsets` from p): the 16
/// bytes at the columns `v` plans, or zero bytes for a row past k.
template <int RUNS>
HPNN_AVX512_INLINE __m128i quad_row(const std::int8_t* data,
                                    const std::int64_t* offsets, int l,
                                    int live, const Window16& v) {
  return l < live ? load_window16<RUNS>(data + offsets[l], v)
                  : _mm_setzero_si128();
}

/// Window rows p .. p + live - 1 (zero bytes for the rest of the quad) at
/// the columns `v` plans, as the vpdpbusd u8 operand: lane c holds the four
/// rows' bytes of column c, row p first, each XORed with 0x80. The rows
/// are inserted one per 128-bit lane, a dword permute gathers each lane's
/// four columns, and a byte shuffle transposes each 4 x 4 block.
template <int RUNS>
HPNN_AVX512_INLINE __m512i quad16(const std::int8_t* data,
                                  const std::int64_t* offsets, int live,
                                  const Window16& v) {
  __m512i z =
      _mm512_castsi128_si512(quad_row<RUNS>(data, offsets, 0, live, v));
  z = _mm512_inserti32x4(z, quad_row<RUNS>(data, offsets, 1, live, v), 1);
  z = _mm512_inserti32x4(z, quad_row<RUNS>(data, offsets, 2, live, v), 2);
  z = _mm512_inserti32x4(z, quad_row<RUNS>(data, offsets, 3, live, v), 3);
  // Dword 4m + l <- dword 4l + m: lane m gets columns 4m .. 4m + 3 of each
  // row. Then byte 4c + l <- byte 4l + c within each lane.
  const __m512i lanes = _mm512_set_epi32(15, 11, 7, 3, 14, 10, 6, 2, 13, 9,
                                         5, 1, 12, 8, 4, 0);
  const __m512i bytes = _mm512_broadcast_i32x4(
      _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15));
  z = _mm512_shuffle_epi8(_mm512_permutexvar_epi32(lanes, z), bytes);
  return _mm512_xor_si512(z, _mm512_set1_epi8(static_cast<char>(0x80)));
}

/// Builds the panel's operand once for every filter block: quad q's two
/// vectors at quads + 128q and + 128q + 64 (64-byte aligned).
template <int RUNS>
HPNN_AVX512_TARGET void build_panel(const core::I8Window& x, std::int64_t k,
                                    const Window16 (&vec)[2],
                                    std::uint8_t* quads) {
  // Locals: the stores below may alias the window's fields.
  const std::int8_t* data = x.data;
  const std::int64_t* offsets = x.offsets;
  const Window16 v0 = vec[0];
  const Window16 v1 = vec[1];
  std::int64_t p = 0;
  for (; p + 4 <= k; p += 4, quads += 128) {
    _mm512_store_si512(quads, quad16<RUNS>(data, offsets + p, 4, v0));
    _mm512_store_si512(quads + 64, quad16<RUNS>(data, offsets + p, 4, v1));
  }
  if (p < k) {
    const int live = static_cast<int>(k - p);
    _mm512_store_si512(quads, quad16<RUNS>(data, offsets + p, live, v0));
    _mm512_store_si512(quads + 64, quad16<RUNS>(data, offsets + p, live, v1));
  }
}

/// The first clamp(cols, 0, 16) lanes of a vector.
inline __mmask16 column_mask(std::int64_t cols) {
  const auto live =
      static_cast<unsigned>(std::clamp<std::int64_t>(cols, 0, 16));
  return static_cast<__mmask16>((1u << live) - 1u);
}

/// Stores the `mask` lanes of y, negating those whose negate byte is set.
HPNN_AVX512_TARGET inline void store_keyed(__m512i y, __mmask16 mask,
                                           const std::uint8_t* negate,
                                           std::int32_t* out) {
  if (negate != nullptr) {
    const __m128i nb = _mm_maskz_loadu_epi8(mask, negate);
    y = _mm512_mask_sub_epi32(y, _mm_test_epi8_mask(nb, nb),
                              _mm512_setzero_si512(), y);
  }
  _mm512_mask_storeu_epi32(out, mask, y);
}

/// acc += Σ4 (u8 quads b) x (s8 weights w), one vpdpbusd. Written as
/// assembly with the accumulator tied to one register: GCC 12 compiles
/// the intrinsic inside a loop as a copy in, the multiply-add on the copy
/// and a copy out (plus a spill once the copies run out of registers).
HPNN_AVX512_TARGET inline void dpbusd(__m512i& acc, __m512i b, __m512i w) {
  asm("vpdpbusd %2, %1, %0" : "+v"(acc) : "v"(b), "v"(w));
}

/// One filter's 32 panel columns: the correction subtracted, then keyed.
HPNN_AVX512_TARGET inline void store_filter(__m512i lo, __m512i hi,
                                            std::int32_t correction,
                                            __mmask16 mask0, __mmask16 mask1,
                                            const std::uint8_t* negate,
                                            std::int32_t* out) {
  const __m512i c = _mm512_set1_epi32(correction);
  store_keyed(_mm512_sub_epi32(lo, c), mask0, negate, out);
  store_keyed(_mm512_sub_epi32(hi, c), mask1,
              negate != nullptr ? negate + 16 : nullptr, out + 16);
}

/// FB filters x the panel's `cols` columns from j: 2 * FB accumulators
/// over the kq quads, the filters' weight words broadcast from `wq`
/// (stride `rows` per quad). The k loop holds nothing but the two operand
/// loads, the broadcasts and the multiply-adds.
template <int FB>
HPNN_AVX512_TARGET void left_tile_avx512(
    const std::int32_t* wq, std::int64_t rows, std::int64_t kq,
    const std::uint8_t* quads, const std::int32_t* correction, std::int64_t n,
    std::int64_t j, std::int64_t cols, const std::uint8_t* negate,
    std::int32_t* out) {
  static_assert(FB >= 1 && FB <= kMaxFilterBlock);
  // One named pair of accumulators per filter (columns 0-15 and 16-31),
  // so none of them lives in memory; pairs past FB are never touched.
  const __m512i zero = _mm512_setzero_si512();
  [[maybe_unused]] __m512i lo0 = zero, hi0 = zero, lo1 = zero, hi1 = zero,
                           lo2 = zero, hi2 = zero, lo3 = zero, hi3 = zero,
                           lo4 = zero, hi4 = zero, lo5 = zero, hi5 = zero,
                           lo6 = zero, hi6 = zero, lo7 = zero, hi7 = zero,
                           lo8 = zero, hi8 = zero, lo9 = zero, hi9 = zero,
                           lo10 = zero, hi10 = zero, lo11 = zero,
                           hi11 = zero;
#define HPNN_QUAD_STEP(r)                       \
  if constexpr ((r) < FB) {                     \
    const __m512i w = _mm512_set1_epi32(wq[r]); \
    dpbusd(lo##r, b0, w);                       \
    dpbusd(hi##r, b1, w);                       \
  }
  for (std::int64_t q = 0; q < kq; ++q, wq += rows, quads += 128) {
    const __m512i b0 = _mm512_load_si512(quads);
    const __m512i b1 = _mm512_load_si512(quads + 64);
    HPNN_QUAD_STEP(0) HPNN_QUAD_STEP(1) HPNN_QUAD_STEP(2)
    HPNN_QUAD_STEP(3) HPNN_QUAD_STEP(4) HPNN_QUAD_STEP(5)
    HPNN_QUAD_STEP(6) HPNN_QUAD_STEP(7) HPNN_QUAD_STEP(8)
    HPNN_QUAD_STEP(9) HPNN_QUAD_STEP(10) HPNN_QUAD_STEP(11)
  }
#undef HPNN_QUAD_STEP
  const __mmask16 mask0 = column_mask(cols);
  const __mmask16 mask1 = column_mask(cols - 16);
#define HPNN_QUAD_STORE(r)                                          \
  if constexpr ((r) < FB) {                                         \
    store_filter(lo##r, hi##r, correction[r], mask0, mask1,         \
                 negate != nullptr ? negate + (r) * n + j : nullptr, \
                 out + (r) * n + j);                                \
  }
  HPNN_QUAD_STORE(0) HPNN_QUAD_STORE(1) HPNN_QUAD_STORE(2)
  HPNN_QUAD_STORE(3) HPNN_QUAD_STORE(4) HPNN_QUAD_STORE(5)
  HPNN_QUAD_STORE(6) HPNN_QUAD_STORE(7) HPNN_QUAD_STORE(8)
  HPNN_QUAD_STORE(9) HPNN_QUAD_STORE(10) HPNN_QUAD_STORE(11)
#undef HPNN_QUAD_STORE
}

using LeftTile = void (*)(const std::int32_t*, std::int64_t, std::int64_t,
                          const std::uint8_t*, const std::int32_t*,
                          std::int64_t, std::int64_t, std::int64_t,
                          const std::uint8_t*, std::int32_t*);

template <std::size_t... FB>
constexpr std::array<LeftTile, sizeof...(FB)> left_tiles(
    std::index_sequence<FB...>) {
  return {&left_tile_avx512<static_cast<int>(FB) + 1>...};
}

/// out = W @ X over 32-column panels: each panel's quads are built once
/// into scratch, then the filters run in ceil(rows / 12) blocks of as even
/// a size as possible. A partial panel loads its missing columns as zero
/// bytes and stores only its own, so no column falls to a scalar tail.
HPNN_AVX512_TARGET void left_avx512(const core::PreparedI8& w,
                                    const core::I8Window& x,
                                    const std::uint8_t* negate,
                                    std::int32_t* out) {
  static constexpr auto kTiles =
      left_tiles(std::make_index_sequence<kMaxFilterBlock>{});
  const std::int64_t rows = w.rows;
  const std::int64_t k = w.cols;
  const std::int64_t n = x.extent;
  const std::int64_t kq = (k + 3) / 4;
  const std::int64_t blocks = (rows + kMaxFilterBlock - 1) / kMaxFilterBlock;
  const std::int32_t* correction = w.packed.data() + kq * rows;
  core::ScratchArena::Scope scope;
  auto* quads = reinterpret_cast<std::uint8_t*>(
      scope.bytes(static_cast<std::size_t>(kq) * 128));
  backends::WindowCursor at;
  for (std::int64_t j = 0; j < n; j += kQuadPanelCols) {
    const std::int64_t cols = std::min(kQuadPanelCols, n - j);
    Window16 vec[2];
    const int r0 = plan_window16(x, at, std::min<std::int64_t>(cols, 16),
                                 vec[0]);
    const int r1 = plan_window16(
        x, at, std::max<std::int64_t>(cols - 16, 0), vec[1]);
    const int runs = r0 == r1 ? r0 : 0;
    if (runs == 1) {
      build_panel<1>(x, k, vec, quads);
    } else if (runs == 2) {
      build_panel<2>(x, k, vec, quads);
    } else {
      build_panel<0>(x, k, vec, quads);
    }
    for (std::int64_t b = 0, f0 = 0; b < blocks; ++b) {
      const std::int64_t fb = (rows - f0 + blocks - b - 1) / (blocks - b);
      kTiles[static_cast<std::size_t>(fb - 1)](
          w.packed.data() + f0, rows, kq, quads, correction + f0, n, j, cols,
          negate != nullptr ? negate + f0 * n : nullptr, out + f0 * n);
      f0 += fb;
    }
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
           "int8 MMU path (conv: u8 x s8 vpdpbusd over k quads; linear: "
           "vpdpwssd over k pairs)";
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
    if (w.side == core::PreparedI8::Side::kRight) {
      right_avx512(w, x.data, x.extent, negate, out);
    } else {
      left_avx512(w, x, negate, out);
    }
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
    if (w.side == core::PreparedI8::Side::kRight) {
      backends::pack_i16_pairs(w, 16);
    } else {
      pack_u8_quads(w);
    }
  }
};

}  // namespace

std::unique_ptr<core::ComputeBackend> make_avx512_backend() {
  return std::make_unique<Avx512Backend>();
}

}  // namespace hpnn::ops

#endif  // HPNN_SIMD_AVX512 && __x86_64__
