// Helpers shared by the backend microkernel implementations: the edge-tile
// merge (beta policy applied once at store time) and the scalar int8
// datapath, which the SIMD tiers reuse for remainder columns so every
// element follows the same modular-accumulation semantics, and which the
// conformance tests run whole as the int8 reference.
#pragma once

#include <cstdint>

#include "core/compute_backend.hpp"

namespace hpnn::ops::backends {

/// Writes one microkernel tile held in `tile` (row stride `tile_stride`)
/// into C with the beta policy: beta == 0 overwrites without reading
/// (NaN garbage in C must not propagate), beta == 1 accumulates, anything
/// else scales then adds.
inline void merge_tile(const float* tile, std::int64_t tile_stride, float* c,
                       std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                       float beta) {
  for (std::int64_t r = 0; r < mr; ++r) {
    const float* t = tile + r * tile_stride;
    float* crow = c + r * ldc;
    if (beta == 0.0f) {
      for (std::int64_t j = 0; j < nr; ++j) {
        crow[j] = t[j];
      }
    } else if (beta == 1.0f) {
      for (std::int64_t j = 0; j < nr; ++j) {
        crow[j] += t[j];
      }
    } else {
      for (std::int64_t j = 0; j < nr; ++j) {
        crow[j] = beta * crow[j] + t[j];
      }
    }
  }
}

/// Scalar fast-fidelity int8 datapath over columns [j0, j1) of row i.
/// 32-bit wrap-around accumulation is modular arithmetic, so any
/// evaluation order produces identical bits — this is the semantics every
/// SIMD variant must reproduce exactly.
inline void matmul_i8_row_scalar(const std::int8_t* a, std::int64_t i,
                                 std::int64_t k, const std::int8_t* w,
                                 std::int64_t n, std::int64_t j0,
                                 std::int64_t j1, std::int32_t* out) {
  for (std::int64_t j = j0; j < j1; ++j) {
    std::uint32_t acc = 0;
    for (std::int64_t p = 0; p < k; ++p) {
      const auto product = static_cast<std::int32_t>(a[i * k + p]) *
                           static_cast<std::int32_t>(w[p * n + j]);
      acc += static_cast<std::uint32_t>(product);
    }
    out[i * n + j] = static_cast<std::int32_t>(acc);
  }
}

/// Column j of a kLeft window as (run, col) = (j / width, j % width),
/// advanced incrementally, so the SIMD tiers plan their vectors without a
/// division per vector.
struct WindowCursor {
  std::int64_t run = 0;
  std::int64_t col = 0;

  /// The column's byte offset from a window row's base.
  std::int64_t rel(const core::I8Window& x) const {
    return run * x.pitch + col;
  }
  void advance(const core::I8Window& x, std::int64_t cols) {
    col += cols;
    while (col >= x.width) {
      col -= x.width;
      ++run;
    }
  }
};

/// The scalar datapath over columns [j0, j1) of filter row r of
/// out = W @ X, with X read through the kLeft window `x` (see
/// core::I8Window): the SIMD tiers' tail for columns they do not
/// vectorize.
inline void window_cols_scalar(const core::PreparedI8& w, std::int64_t r,
                               const core::I8Window& x, std::int64_t j0,
                               std::int64_t j1, std::int32_t* out) {
  const std::int64_t k = w.cols;
  const std::int8_t* wr = w.values.data() + r * k;
  for (std::int64_t j = j0; j < j1; ++j) {
    const std::int64_t rel = (j / x.width) * x.pitch + j % x.width;
    std::uint32_t acc = 0;
    for (std::int64_t p = 0; p < k; ++p) {
      const std::int8_t xv = x.data[x.offsets[p] + rel];
      const auto product =
          static_cast<std::int32_t>(wr[p]) * static_cast<std::int32_t>(xv);
      acc += static_cast<std::uint32_t>(product);
    }
    out[r * x.extent + j] = static_cast<std::int32_t>(acc);
  }
}

/// Keyed negation applied as a second pass over output columns [j0, j1)
/// of a finished row i: Σ(-p) == -(Σp) in two's complement, so the keyed
/// accumulator's per-product subtraction collapses to one negation here.
inline void negate_cols(const std::uint8_t* negate, std::int64_t i,
                        std::int64_t n, std::int64_t j0, std::int64_t j1,
                        std::int32_t* out) {
  if (negate == nullptr) {
    return;
  }
  for (std::int64_t j = j0; j < j1; ++j) {
    if (negate[i * n + j] != 0) {
      out[i * n + j] = static_cast<std::int32_t>(
          0u - static_cast<std::uint32_t>(out[i * n + j]));
    }
  }
}

/// The scalar int8 reference: out = A[m, k] @ W[k, n] with keyed negation
/// (`negate` null or m * n bytes). Every tier's prepared kernel is tested
/// bit for bit against this triple loop.
inline void matmul_i8_reference(const std::int8_t* a, std::int64_t m,
                                std::int64_t k, const std::int8_t* w,
                                std::int64_t n, const std::uint8_t* negate,
                                std::int32_t* out) {
  for (std::int64_t i = 0; i < m; ++i) {
    matmul_i8_row_scalar(a, i, k, w, n, 0, n, out);
    negate_cols(negate, i, n, 0, n, out);
  }
}

/// Two int8 values sign-extended into the int16 halves of one int32 word
/// (`lo` in bits 0-15): the operand shape of vpmaddwd / vpdpwssd.
inline std::int32_t i16_pair(std::int8_t lo, std::int8_t hi) {
  const auto l = static_cast<std::uint16_t>(static_cast<std::int16_t>(lo));
  const auto h = static_cast<std::uint16_t>(static_cast<std::int16_t>(hi));
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(l) |
                                   (static_cast<std::uint32_t>(h) << 16));
}

/// The prepared-weights int16-pair layout along the contraction
/// dimension k, zero-padded to an even k (a zero weight adds nothing, so
/// padding is exact); kp = ceil(k / 2). The AVX2 tier uses both sides, the
/// AVX-512 tier only kRight (its kLeft packs u8 x s8 quads).
///   kLeft  (k = cols): word [r * kp + q] = (w[r][2q], w[r][2q+1]), the
///          pair each filter broadcasts against interleaved activation rows.
///   kRight (k = rows): per block of `vw` columns, word
///          [(b * kp + q) * vw + c] = (w[2q][j], w[2q+1][j]) with
///          j = b * vw + c, loaded as one vector per pair. The columns
///          are zero-padded to a multiple of four blocks; a tier may run
///          four blocks per pass and store the valid columns masked, or
///          run a partial block on the scalar path over `values`.
/// The loops test no bound per word: full pairs, then the odd final row;
/// full column blocks, then the partial one.
inline void pack_i16_pairs(core::PreparedI8& w, std::int64_t vw) {
  const std::int8_t* v = w.values.data();
  const std::int64_t rows = w.rows;
  const std::int64_t cols = w.cols;
  if (w.side == core::PreparedI8::Side::kLeft) {
    const std::int64_t kp = (cols + 1) / 2;
    const std::int64_t pairs = cols / 2;
    w.packed.assign(static_cast<std::size_t>(rows * kp), 0);
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int8_t* wr = v + r * cols;
      std::int32_t* dst = w.packed.data() + r * kp;
      for (std::int64_t q = 0; q < pairs; ++q) {
        dst[q] = i16_pair(wr[2 * q], wr[2 * q + 1]);
      }
      if (pairs < kp) {
        dst[pairs] = i16_pair(wr[cols - 1], 0);
      }
    }
    return;
  }
  const std::int64_t kp = (rows + 1) / 2;
  const std::int64_t pairs = rows / 2;
  const std::int64_t blocks = (cols + 4 * vw - 1) / (4 * vw) * 4;
  w.packed.assign(static_cast<std::size_t>(blocks * kp * vw), 0);
  // The first `width` columns of block b; the padding blocks stay zero.
  const auto pack_block = [&](std::int64_t b, std::int64_t width) {
    const std::int8_t* col = v + b * vw;
    std::int32_t* dst = w.packed.data() + b * kp * vw;
    for (std::int64_t q = 0; q < pairs; ++q, dst += vw) {
      const std::int8_t* r0 = col + 2 * q * cols;
      const std::int8_t* r1 = r0 + cols;
      for (std::int64_t c = 0; c < width; ++c) {
        dst[c] = i16_pair(r0[c], r1[c]);
      }
    }
    if (pairs < kp) {
      const std::int8_t* r0 = col + (rows - 1) * cols;
      for (std::int64_t c = 0; c < width; ++c) {
        dst[c] = i16_pair(r0[c], 0);
      }
    }
  };
  const std::int64_t full = cols / vw;
  for (std::int64_t b = 0; b < full; ++b) {
    pack_block(b, vw);
  }
  if (full * vw < cols) {
    pack_block(full, cols - full * vw);
  }
}

}  // namespace hpnn::ops::backends
