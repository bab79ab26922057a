#include "tensor/gemm_kernel.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "core/threadpool.hpp"
#include "tensor/backend.hpp"

namespace hpnn::ops {

namespace {

/// Same fan-out threshold as the rest of the kernel layer (ops.cpp): below
/// this arithmetic volume the pool dispatch overhead dominates.
constexpr std::int64_t kParallelWorkThreshold = 1 << 15;

/// Below this volume the packing traffic (m*k + k*n writes) is not repaid
/// by the microkernel, so an unpacked scalar loop wins. The small path is
/// shared by every backend (identical bits across backends by
/// construction).
constexpr std::int64_t kSmallGemmVolume = 4096;

/// C = beta * C for rows [0, m): the alpha == 0 / k == 0 degenerate case.
void scale_c(float beta, std::int64_t m, std::int64_t n, float* c,
             std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] *= beta;
      }
    }
  }
}

/// Unpacked scalar path for tiny problems where packing costs more than it
/// saves. Transposition is absorbed by index strides.
void gemm_small(const float* a, bool ta, const float* b, bool tb,
                std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                float beta, float* c, std::int64_t ldc) {
  const std::int64_t a_row = ta ? 1 : k;
  const std::int64_t a_col = ta ? m : 1;
  const std::int64_t b_row = tb ? 1 : n;
  const std::int64_t b_col = tb ? k : 1;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += a[i * a_row + p * a_col] * b[p * b_row + j * b_col];
      }
      float& cv = c[i * ldc + j];
      cv = alpha * acc + (beta == 0.0f ? 0.0f : beta * cv);
    }
  }
}

}  // namespace

namespace detail {

void pack_a(const core::ComputeBackend& be, const float* a, bool trans,
            std::int64_t m, std::int64_t k, float alpha, float* dst) {
  const std::int64_t mr = be.gemm_mr();
  const std::int64_t panels = (m + mr - 1) / mr;
  for (std::int64_t ip = 0; ip < panels; ++ip) {
    const std::int64_t i0 = ip * mr;
    const std::int64_t rows = std::min(mr, m - i0);
    float* pd = dst + ip * mr * k;
    if (!trans) {
      for (std::int64_t r = 0; r < rows; ++r) {
        const float* src = a + (i0 + r) * k;
        for (std::int64_t p = 0; p < k; ++p) {
          pd[p * mr + r] = alpha * src[p];
        }
      }
      for (std::int64_t r = rows; r < mr; ++r) {
        for (std::int64_t p = 0; p < k; ++p) {
          pd[p * mr + r] = 0.0f;
        }
      }
    } else {
      // A stored k x m: row p is contiguous in r.
      for (std::int64_t p = 0; p < k; ++p) {
        const float* src = a + p * m + i0;
        float* d = pd + p * mr;
        for (std::int64_t r = 0; r < rows; ++r) {
          d[r] = alpha * src[r];
        }
        for (std::int64_t r = rows; r < mr; ++r) {
          d[r] = 0.0f;
        }
      }
    }
  }
}

void pack_b(const core::ComputeBackend& be, const float* b, bool trans,
            std::int64_t k, std::int64_t n, float* dst) {
  const std::int64_t nr = be.gemm_nr();
  const std::int64_t panels = (n + nr - 1) / nr;
  for (std::int64_t jp = 0; jp < panels; ++jp) {
    const std::int64_t j0 = jp * nr;
    const std::int64_t cols = std::min(nr, n - j0);
    float* pd = dst + jp * nr * k;
    if (!trans) {
      for (std::int64_t p = 0; p < k; ++p) {
        const float* src = b + p * n + j0;
        float* d = pd + p * nr;
        for (std::int64_t c = 0; c < cols; ++c) {
          d[c] = src[c];
        }
        for (std::int64_t c = cols; c < nr; ++c) {
          d[c] = 0.0f;
        }
      }
    } else {
      // B stored n x k: column c of the panel is the contiguous row
      // (j0 + c) of the stored matrix.
      for (std::int64_t c = 0; c < cols; ++c) {
        const float* src = b + (j0 + c) * k;
        for (std::int64_t p = 0; p < k; ++p) {
          pd[p * nr + c] = src[p];
        }
      }
      for (std::int64_t c = cols; c < nr; ++c) {
        for (std::int64_t p = 0; p < k; ++p) {
          pd[p * nr + c] = 0.0f;
        }
      }
    }
  }
}

void pack_b_im2row(const core::ComputeBackend& be, const float* plane,
                   std::int64_t channels, std::int64_t plane_h,
                   std::int64_t plane_w, std::int64_t kernel,
                   std::int64_t stride, std::int64_t out_h,
                   std::int64_t out_w, float* dst) {
  const std::int64_t nr = be.gemm_nr();
  const std::int64_t n = channels * kernel * kernel;
  const std::int64_t k = out_h * out_w;
  // Plane offset of each B column's window element (c, ky, kx) for output
  // pixel (0, 0); pixel (y, x) adds y * stride * plane_w + x * stride.
  core::ScratchArena::Scope scope;
  auto* offset = reinterpret_cast<std::int64_t*>(
      scope.bytes(static_cast<std::size_t>(n) * sizeof(std::int64_t)));
  for (std::int64_t c = 0, j = 0; c < channels; ++c) {
    for (std::int64_t ky = 0; ky < kernel; ++ky) {
      for (std::int64_t kx = 0; kx < kernel; ++kx, ++j) {
        offset[j] = (c * plane_h + ky) * plane_w + kx;
      }
    }
  }
  const std::int64_t panels = (n + nr - 1) / nr;
  for (std::int64_t jp = 0; jp < panels; ++jp) {
    const std::int64_t j0 = jp * nr;
    const std::int64_t cols = std::min(nr, n - j0);
    const std::int64_t* off = offset + j0;
    float* d = dst + jp * nr * k;
    for (std::int64_t y = 0; y < out_h; ++y) {
      const float* row = plane + y * stride * plane_w;
      for (std::int64_t x = 0; x < out_w; ++x, d += nr) {
        const float* src = row + x * stride;
        for (std::int64_t c = 0; c < cols; ++c) {
          d[c] = src[off[c]];
        }
        for (std::int64_t c = cols; c < nr; ++c) {
          d[c] = 0.0f;
        }
      }
    }
  }
}

bool gemm_takes_packed_path(std::int64_t m, std::int64_t n, std::int64_t k) {
  return m > 1 && m * n * k > kSmallGemmVolume;
}

void gemm_packed_panels(const core::ComputeBackend& be, const float* pa,
                        const float* pb, std::int64_t m, std::int64_t panel0,
                        std::int64_t panel1, std::int64_t n, std::int64_t k,
                        float beta, float* c, std::int64_t ldc) {
  const std::int64_t mr_full = be.gemm_mr();
  const std::int64_t nr_full = be.gemm_nr();
  const std::int64_t npanels = (n + nr_full - 1) / nr_full;
  for (std::int64_t ip = panel0; ip < panel1; ++ip) {
    const std::int64_t i0 = ip * mr_full;
    const std::int64_t mr = std::min(mr_full, m - i0);
    const float* apanel = pa + ip * mr_full * k;
    float* crow = c + i0 * ldc;
    for (std::int64_t jp = 0; jp < npanels; ++jp) {
      const std::int64_t j0 = jp * nr_full;
      be.gemm_micro(apanel, pb + jp * nr_full * k, k, crow + j0, ldc, mr,
                    std::min(nr_full, n - j0), beta);
    }
  }
}

void gemm_packed(const core::ComputeBackend& be, const float* pa,
                 const float* pb, std::int64_t m, std::int64_t n,
                 std::int64_t k, float beta, float* c, std::int64_t ldc) {
  const std::int64_t mr = be.gemm_mr();
  const std::int64_t mpanels = (m + mr - 1) / mr;
  if (2 * m * n * k < kParallelWorkThreshold || mpanels == 1) {
    gemm_packed_panels(be, pa, pb, m, 0, mpanels, n, k, beta, c, ldc);
    return;
  }
  // Chunk over row panels: each C row is produced by one chunk with the
  // full-K accumulation order fixed inside the microkernel, so the
  // partition (a pure function of m) never changes result bits.
  const std::int64_t grain = std::max<std::int64_t>(1, mpanels / 64);
  core::parallel_for(0, mpanels, grain,
                     [&](std::int64_t p0, std::int64_t p1) {
                       gemm_packed_panels(be, pa, pb, m, p0, p1, n, k, beta,
                                          c, ldc);
                     });
}

void gemm_with_packed_a(const core::ComputeBackend& be, const float* pa,
                        std::int64_t m, std::int64_t k, const float* b,
                        bool tb, std::int64_t n, float beta, float* c,
                        std::int64_t ldc) {
  if (m <= 0 || n <= 0) {
    return;
  }
  core::ScratchArena::Scope scope;
  float* pb = scope.floats(packed_b_floats(be, k, n));
  {
    HPNN_METRIC_OP_SCOPE("tensor.gemm.pack");
    pack_b(be, b, tb, k, n, pb);
  }
  {
    HPNN_METRIC_OP_SCOPE("tensor.gemm.compute");
    gemm_packed(be, pa, pb, m, n, k, beta, c, ldc);
  }
}

}  // namespace detail

void PackedA::pack(const float* a, bool trans, std::int64_t m, std::int64_t k,
                   float alpha) {
  HPNN_METRIC_OP_SCOPE("tensor.gemm.pack");
  const core::ComputeBackend& be = backend();
  float* dst = buf_.float_slots(
      static_cast<std::size_t>(detail::packed_a_floats(be, m, k)));
  detail::pack_a(be, a, trans, m, k, alpha, dst);
  src_ = a;
  backend_ = &be;
  trans_ = trans;
  m_ = m;
  k_ = k;
  alpha_ = alpha;
}

bool PackedA::matches(const float* a, bool trans, std::int64_t m,
                      std::int64_t k, float alpha) const {
  // A panel laid out by another backend has a different geometry, so a
  // backend switch invalidates the packing even when the source matches.
  return src_ == a && backend_ == &backend() && trans_ == trans && m_ == m &&
         k_ == k && alpha_ == alpha;
}

void gemm_raw(const float* a, bool ta, const float* b, bool tb,
              std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              float beta, float* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) {
    return;
  }
  if (k <= 0 || alpha == 0.0f) {
    scale_c(beta, m, n, c, ldc);
    return;
  }
  const core::ComputeBackend& be = backend();
  if (!detail::gemm_takes_packed_path(m, n, k)) {
    if (m == 1) {
      // m == 1 never fans out (single C row), so thread-count independence
      // is trivial. Note op(A) is 1 x k, so the A element index is `p`
      // whether or not A is stored transposed; alpha folds into the scalar.
      be.gemv(a, b, tb, n, k, alpha, beta, c);
    } else {
      gemm_small(a, ta, b, tb, m, n, k, alpha, beta, c, ldc);
    }
    return;
  }
  core::ScratchArena::Scope scope;
  float* pa = scope.floats(detail::packed_a_floats(be, m, k));
  float* pb = scope.floats(detail::packed_b_floats(be, k, n));
  {
    HPNN_METRIC_OP_SCOPE("tensor.gemm.pack");
    detail::pack_a(be, a, ta, m, k, alpha, pa);
    detail::pack_b(be, b, tb, k, n, pb);
  }
  {
    HPNN_METRIC_OP_SCOPE("tensor.gemm.compute");
    detail::gemm_packed(be, pa, pb, m, n, k, beta, c, ldc);
  }
}

void gemm_prepacked(const PackedA& a, const float* b, bool tb, std::int64_t n,
                    float beta, float* c, std::int64_t ldc) {
  // Compute with the backend that packed the panels — they are
  // self-describing, so a stale PackedA still produces correct results
  // (through the old backend) until the caller repacks.
  HPNN_CHECK(a.packed_backend() != nullptr,
             "gemm_prepacked on an empty PackedA");
  detail::gemm_with_packed_a(*a.packed_backend(), a.data(), a.m(), a.k(), b,
                             tb, n, beta, c, ldc);
}

}  // namespace hpnn::ops
