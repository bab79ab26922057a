// Register-tiled, cache-blocked GEMM with operand packing, lowered onto
// the pluggable compute-backend layer (core/compute_backend.hpp).
//
// The kernel follows the classic panel-packing decomposition: op(A) is
// packed into MR-row panels (column-major within each panel), op(B) into
// NR-column panels (row-major within each panel), and an MR x NR register
// microkernel streams the two packed panels with unit stride. Transposition
// is a property of the *packing* stage — the microkernel never sees it — so
// the transposed GEMM variants cost exactly one extra strided read during
// packing instead of a materialized transposed copy.
//
// The blocking, packing and thread-pool fan-out here are shared by every
// backend; only the MR x NR microtile (and the vector primitives behind
// gemv) come from the active core::ComputeBackend. MR and NR are backend
// properties — 6x16 for scalar/AVX2, 8x32 for AVX-512 — so a packed panel
// is only meaningful to the backend that laid it out, and every function
// below takes the backend explicitly. Within one backend the instruction
// sequence is a pure function of the problem shape — no data-dependent
// branch (the old kernel skipped av == 0.0f terms, leaking operand values
// into the timing) — and chunk boundaries under parallel_for depend only
// on the shape, so results are bit-identical at any HPNN_THREADS setting.
//
// Pack buffers come from the calling thread's core::ScratchArena, so
// repeated GEMMs (conv over a batch, a training loop) reuse the same
// cache-hot scratch instead of reallocating. A-side panels that are reused
// across many GEMMs (conv weights over a batch, frozen weights in serving)
// can be packed once into a PackedA and replayed; the PackedA remembers
// which backend packed it, and replays always use that backend.
#pragma once

#include <cstdint>

#include "core/aligned_buffer.hpp"
#include "core/compute_backend.hpp"

namespace hpnn::ops {

namespace detail {

/// Packed sizes in floats for a given backend's microtile (panels are
/// zero-padded to full MR/NR).
inline std::int64_t packed_a_floats(const core::ComputeBackend& be,
                                    std::int64_t m, std::int64_t k) {
  const std::int64_t mr = be.gemm_mr();
  return (m + mr - 1) / mr * mr * k;
}
inline std::int64_t packed_b_floats(const core::ComputeBackend& be,
                                    std::int64_t k, std::int64_t n) {
  const std::int64_t nr = be.gemm_nr();
  return (n + nr - 1) / nr * nr * k;
}

/// Packs op(A) (m x k after the optional transpose) into MR-row panels,
/// folding alpha into the packed values. `a` is the stored matrix: m x k
/// when !trans, k x m when trans.
void pack_a(const core::ComputeBackend& be, const float* a, bool trans,
            std::int64_t m, std::int64_t k, float alpha, float* dst);

/// Packs op(B) (k x n after the optional transpose) into NR-column panels.
/// `b` is the stored matrix: k x n when !trans, n x k when trans.
void pack_b(const core::ComputeBackend& be, const float* b, bool trans,
            std::int64_t k, std::int64_t n, float* dst);

/// Packs the transpose of a convolution's im2col matrix, an "im2row",
/// straight from the input plane: B is k x n with k = out_h * out_w output
/// pixels and n = channels * kernel * kernel window offsets, so row p of B
/// is the receptive field of pixel p in (c, ky, kx) order. `plane` is one
/// [channels, plane_h, plane_w] sample with any zero padding already
/// applied. The panels are identical to pack_b(be, cols, true, k, n, dst)
/// of that sample's im2col `cols`, without materializing `cols` or
/// re-reading it with stride k: each panel row is written contiguously.
void pack_b_im2row(const core::ComputeBackend& be, const float* plane,
                   std::int64_t channels, std::int64_t plane_h,
                   std::int64_t plane_w, std::int64_t kernel,
                   std::int64_t stride, std::int64_t out_h,
                   std::int64_t out_w, float* dst);

/// Whether gemm_raw computes an m x n x k product (k > 0, alpha != 0) with
/// the packed microkernel. Otherwise m == 1 takes the backend's GEMV and
/// the rest the unpacked small-volume path. Callers that pack their own
/// operands ask this first, so every shape keeps gemm_raw's bits.
bool gemm_takes_packed_path(std::int64_t m, std::int64_t n, std::int64_t k);

/// C = (packed product) + beta * C over row panels [panel0, panel1) of the
/// m-row problem. C has row stride ldc. Used directly by the parallel_for
/// chunks. `be` must be the backend that packed pa/pb.
void gemm_packed_panels(const core::ComputeBackend& be, const float* pa,
                        const float* pb, std::int64_t m, std::int64_t panel0,
                        std::int64_t panel1, std::int64_t n, std::int64_t k,
                        float beta, float* c, std::int64_t ldc);

/// Full packed-operand GEMM: packs nothing, computes every row panel,
/// fanning out to the thread pool when the volume warrants it.
void gemm_packed(const core::ComputeBackend& be, const float* pa,
                 const float* pb, std::int64_t m, std::int64_t n,
                 std::int64_t k, float beta, float* c, std::int64_t ldc);

/// GEMM against an already-packed A panel image (raw pointer form of
/// gemm_prepacked): packs op(B) into thread-local scratch and computes.
/// `be` must be the backend that packed pa.
void gemm_with_packed_a(const core::ComputeBackend& be, const float* pa,
                        std::int64_t m, std::int64_t k, const float* b,
                        bool tb, std::int64_t n, float beta, float* c,
                        std::int64_t ldc);

}  // namespace detail

/// A reusable packed image of op(A) with alpha folded in. The backing
/// storage is an AlignedBuffer that is retained across pack() calls, so a
/// layer that packs its weights every step pays no allocations, and one
/// that serves frozen weights can skip repacking via matches().
///
/// The panel layout (MR, panel strides) belongs to the backend that packed
/// it, so PackedA records that backend: matches() fails when the active
/// backend has changed (callers repack), and gemm_prepacked computes with
/// the recorded backend, so a panel can never be replayed through another
/// backend's microkernel.
class PackedA {
 public:
  /// Packs with the active backend (ops::backend()).
  void pack(const float* a, bool trans, std::int64_t m, std::int64_t k,
            float alpha = 1.0f);

  /// True when the buffer already holds the packing of exactly this
  /// (pointer, shape, transpose, alpha) request *laid out by the currently
  /// active backend*. Callers are responsible for content freshness:
  /// matches() is a pointer identity check and cannot see in-place
  /// rewrites of the source (optimizer steps and same-shape tensor
  /// assignment both keep the data pointer), so callers must pair it with
  /// their own mutation signal — the nn layers use
  /// nn::Parameter::version().
  bool matches(const float* a, bool trans, std::int64_t m, std::int64_t k,
               float alpha = 1.0f) const;

  const float* data() const {
    return reinterpret_cast<const float*>(buf_.data());
  }
  std::int64_t m() const { return m_; }
  std::int64_t k() const { return k_; }
  bool empty() const { return m_ == 0; }
  /// The backend that laid out the panels; nullptr before the first pack.
  const core::ComputeBackend* packed_backend() const { return backend_; }

 private:
  core::AlignedBuffer buf_;
  const float* src_ = nullptr;
  const core::ComputeBackend* backend_ = nullptr;
  std::int64_t m_ = 0;
  std::int64_t k_ = 0;
  bool trans_ = false;
  float alpha_ = 1.0f;
};

/// Raw-pointer GEMM: C = alpha * op(A) @ op(B) + beta * C, where op(A) is
/// m x k, op(B) is k x n and C is m x n with row stride ldc. This is the
/// single entry point every tensor-level GEMM lowers to; small problems
/// take an unpacked scalar path, m == 1 the backend's GEMV path, and
/// everything else the packed microkernel of the active backend.
void gemm_raw(const float* a, bool ta, const float* b, bool tb, std::int64_t m,
              std::int64_t n, std::int64_t k, float alpha, float beta,
              float* c, std::int64_t ldc);

/// GEMM against a prepacked A operand (alpha was folded at pack time):
/// C = packed(A) @ op(B) + beta * C. B is packed into thread-local
/// scratch. Computes with the backend that packed `a`, which may lag the
/// active backend until the caller repacks.
void gemm_prepacked(const PackedA& a, const float* b, bool tb, std::int64_t n,
                    float beta, float* c, std::int64_t ldc);

}  // namespace hpnn::ops
