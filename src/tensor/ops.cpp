#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/aligned_buffer.hpp"
#include "core/error.hpp"
#include "core/metrics.hpp"
#include "core/threadpool.hpp"
#include "tensor/backend.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/vec_ops.hpp"

namespace hpnn::ops {

namespace {

// Minimum arithmetic volume (rough op count) before a kernel fans out to
// the thread pool; below this the dispatch overhead dominates. For every
// kernel here except conv2d_backward the partitioning cannot affect the
// result bits (disjoint writes, per-element order unchanged), so this is a
// pure performance knob. conv2d_backward fixes its own partition
// independently of both this threshold and the thread count.
constexpr std::int64_t kParallelWorkThreshold = 1 << 15;

/// Copies a short contiguous run in fixed 8-byte words, which compile to
/// plain moves: im2col rows are a few dozen bytes, where a library call or
/// a generic loop costs more than the copy. A run of at least one word
/// ends with one overlapping word instead of a byte tail.
template <typename T>
void copy_run(const T* src, T* dst, std::int64_t n) {
  constexpr auto kWord = static_cast<std::int64_t>(sizeof(std::uint64_t));
  const std::int64_t bytes = n * static_cast<std::int64_t>(sizeof(T));
  const auto* s = reinterpret_cast<const unsigned char*>(src);
  auto* d = reinterpret_cast<unsigned char*>(dst);
  if (bytes < kWord) {
    std::memcpy(d, s, static_cast<std::size_t>(bytes));
    return;
  }
  std::uint64_t word;
  for (std::int64_t i = 0; i < bytes - kWord; i += kWord) {
    std::memcpy(&word, s + i, sizeof(word));
    std::memcpy(d + i, &word, sizeof(word));
  }
  std::memcpy(&word, s + bytes - kWord, sizeof(word));
  std::memcpy(d + bytes - kWord, &word, sizeof(word));
}

/// Elements of one sample's zero-padded [C, H + 2p, W + 2p] plane.
std::int64_t padded_plane_size(const Conv2dGeometry& g) {
  return g.in_channels * (g.in_h + 2 * g.padding) * (g.in_w + 2 * g.padding);
}

/// Copies one [C, H, W] sample into the interior of its padded plane; the
/// border is left as it is.
template <typename T>
void copy_to_padded(const T* sample, const Conv2dGeometry& g, T* padded) {
  const std::int64_t hp = g.in_h + 2 * g.padding;
  const std::int64_t wp = g.in_w + 2 * g.padding;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    for (std::int64_t y = 0; y < g.in_h; ++y) {
      copy_run(sample + (c * g.in_h + y) * g.in_w,
               padded + (c * hp + y + g.padding) * wp + g.padding, g.in_w);
    }
  }
}

/// The inverse of copy_to_padded: the padded plane's interior, out.
void copy_from_padded(const float* padded, const Conv2dGeometry& g,
                      float* sample) {
  const std::int64_t hp = g.in_h + 2 * g.padding;
  const std::int64_t wp = g.in_w + 2 * g.padding;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    for (std::int64_t y = 0; y < g.in_h; ++y) {
      copy_run(padded + (c * hp + y + g.padding) * wp + g.padding,
               sample + (c * g.in_h + y) * g.in_w, g.in_w);
    }
  }
}

template <typename T>
void im2col_impl(const T* input, const Conv2dGeometry& g, T* cols) {
  const std::int64_t pad = g.padding;
  const std::int64_t hp = g.in_h + 2 * pad;
  const std::int64_t wp = g.in_w + 2 * pad;
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t stride = g.stride;
  core::ScratchArena::Scope scope;
  const T* plane = input;
  if (pad > 0) {
    const std::int64_t count = padded_plane_size(g);
    T* padded = reinterpret_cast<T*>(
        scope.bytes(static_cast<std::size_t>(count) * sizeof(T)));
    std::fill(padded, padded + count, T{});
    copy_to_padded(input, g, padded);
    plane = padded;
  }
  T* dst = cols;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        const T* src = plane + (c * hp + ky) * wp + kx;
        for (std::int64_t y = 0; y < oh; ++y, dst += ow, src += stride * wp) {
          if (stride == 1) {
            copy_run(src, dst, ow);
          } else {
            for (std::int64_t x = 0; x < ow; ++x) {
              dst[x] = src[x * stride];
            }
          }
        }
      }
    }
  }
}

}  // namespace

void gemm(const Tensor& a, Trans ta, const Tensor& b, Trans tb, Tensor& c,
          float alpha, float beta) {
  HPNN_METRIC_OP_SCOPE("tensor.gemm");
  HPNN_CHECK(a.rank() == 2 && b.rank() == 2 && c.rank() == 2,
             "gemm requires rank-2 tensors");
  const std::int64_t m = (ta == Trans::kNo) ? a.dim(0) : a.dim(1);
  const std::int64_t k = (ta == Trans::kNo) ? a.dim(1) : a.dim(0);
  const std::int64_t kb = (tb == Trans::kNo) ? b.dim(0) : b.dim(1);
  const std::int64_t n = (tb == Trans::kNo) ? b.dim(1) : b.dim(0);
  HPNN_CHECK(k == kb, "gemm inner dimension mismatch: " +
                          a.shape().to_string() + " x " + b.shape().to_string());
  HPNN_CHECK(c.dim(0) == m && c.dim(1) == n,
             "gemm output shape mismatch, expected [" + std::to_string(m) +
                 ", " + std::to_string(n) + "], got " + c.shape().to_string());

  // Transposition is folded into the pack stage of the microkernel — no
  // materialized transposed copy (gemm_kernel.hpp).
  gemm_raw(a.data(), ta == Trans::kYes, b.data(), tb == Trans::kYes, m, n, k,
           alpha, beta, c.data(), n);
}

Tensor matmul(const Tensor& a, const Tensor& b, Trans ta, Trans tb) {
  const std::int64_t m = (ta == Trans::kNo) ? a.dim(0) : a.dim(1);
  const std::int64_t n = (tb == Trans::kNo) ? b.dim(1) : b.dim(0);
  Tensor c(Shape{m, n});
  gemm(a, ta, b, tb, c, 1.0f, 0.0f);
  return c;
}

void im2col(const float* input, const Conv2dGeometry& g, float* cols) {
  im2col_impl(input, g, cols);
}

void im2col(const std::int8_t* input, const Conv2dGeometry& g,
            std::int8_t* cols) {
  im2col_impl(input, g, cols);
}

void col2im(const float* cols, const Conv2dGeometry& g, float* input_grad) {
  const std::int64_t hp = g.in_h + 2 * g.padding;
  const std::int64_t wp = g.in_w + 2 * g.padding;
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t stride = g.stride;
  // Scatter into a zero-bordered plane holding the current gradient, so
  // every (c, ky, kx, y) row is one run with no bounds tests; additions
  // that land on the border are dropped. Each input element still
  // receives its additions in (c, ky, kx, y, x) order. Without padding
  // every window lies inside the input, so the gradient is the plane.
  core::ScratchArena::Scope scope;
  float* plane = input_grad;
  if (g.padding > 0) {
    const std::int64_t count = padded_plane_size(g);
    plane = scope.floats(count);
    std::fill(plane, plane + count, 0.0f);
    copy_to_padded(input_grad, g, plane);
  }
  const float* src = cols;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        float* dst = plane + (c * hp + ky) * wp + kx;
        for (std::int64_t y = 0; y < oh; ++y, src += ow, dst += stride * wp) {
          if (stride == 1) {
            for (std::int64_t x = 0; x < ow; ++x) {
              dst[x] += src[x];
            }
          } else {
            for (std::int64_t x = 0; x < ow; ++x) {
              dst[x * stride] += src[x];
            }
          }
        }
      }
    }
  }
  if (g.padding > 0) {
    copy_from_padded(plane, g, input_grad);
  }
}

namespace {

/// Shared conv2d forward body: `pw` is the packed weight panel image
/// (PackedA layout, filters x cols_rows, alpha = 1) laid out by backend
/// `be`, which every chunk computes with — the backend is snapshotted once
/// per call, so a concurrent backend switch cannot mix panel geometries
/// mid-batch. Writes the GEMM result directly into the output tensor (no
/// per-sample staging copy).
Tensor conv2d_forward_packed(const core::ComputeBackend& be, const Tensor& x,
                             const float* pw, std::int64_t filters,
                             const Tensor& bias, const Conv2dGeometry& g) {
  HPNN_CHECK(x.rank() == 4, "conv2d input must be NCHW");
  HPNN_CHECK(x.dim(1) == g.in_channels && x.dim(2) == g.in_h &&
                 x.dim(3) == g.in_w,
             "conv2d geometry mismatch with input " + x.shape().to_string());

  const std::int64_t batch = x.dim(0);
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  const std::int64_t cols_rows = g.in_channels * g.kernel * g.kernel;
  HPNN_CHECK(oh > 0 && ow > 0, "conv2d output would be empty");
  HPNN_CHECK(bias.numel() == 0 || bias.numel() == filters,
             "conv2d bias length must equal filter count");

  Tensor out(Shape{batch, filters, oh, ow});

  const std::int64_t in_sample = g.in_channels * g.in_h * g.in_w;
  const std::int64_t out_sample = filters * ohw;

  // Samples are independent: fan out over the batch. Each chunk carves its
  // im2col columns and B-panel scratch from its worker's arena once and
  // reuses them for every sample in the chunk; each sample's arithmetic is
  // identical to the serial path, so the output is bit-identical at any
  // thread count.
  auto sample_range = [&](std::int64_t n0, std::int64_t n1) {
    core::ScratchArena::Scope scope;
    float* cols = scope.floats(cols_rows * ohw);
    float* pb = scope.floats(detail::packed_b_floats(be, cols_rows, ohw));
    for (std::int64_t nidx = n0; nidx < n1; ++nidx) {
      float* dst = out.data() + nidx * out_sample;
      {
        HPNN_METRIC_OP_SCOPE("tensor.conv2d.pack");
        im2col(x.data() + nidx * in_sample, g, cols);
        detail::pack_b(be, cols, false, cols_rows, ohw, pb);
      }
      {
        HPNN_METRIC_OP_SCOPE("tensor.conv2d.compute");
        detail::gemm_packed(be, pw, pb, filters, ohw, cols_rows, 0.0f, dst,
                            ohw);
      }
      if (bias.numel() > 0) {
        for (std::int64_t f = 0; f < filters; ++f) {
          vec_add_scalar(bias.at(f), dst + f * ohw, ohw);
        }
      }
    }
  };
  if (batch == 1 || batch * out_sample * cols_rows < kParallelWorkThreshold) {
    sample_range(0, batch);
  } else {
    core::parallel_for(0, batch, 1, sample_range);
  }
  return out;
}

}  // namespace

Tensor conv2d_forward(const Tensor& x, const Tensor& weight,
                      const Tensor& bias, const Conv2dGeometry& g) {
  HPNN_METRIC_OP_SCOPE("tensor.conv2d_forward");
  HPNN_CHECK(weight.rank() == 4, "conv2d weight must be [F, C, K, K]");
  HPNN_CHECK(weight.dim(1) == g.in_channels && weight.dim(2) == g.kernel &&
                 weight.dim(3) == g.kernel,
             "conv2d geometry mismatch with weight " +
                 weight.shape().to_string());
  const std::int64_t filters = weight.dim(0);
  const std::int64_t cols_rows = g.in_channels * g.kernel * g.kernel;

  // Pack the weight panels once for the whole batch (the old path packed
  // nothing but re-read the unblocked weight matrix per sample).
  const core::ComputeBackend& be = backend();
  core::ScratchArena::Scope scope;
  float* pw = scope.floats(detail::packed_a_floats(be, filters, cols_rows));
  {
    HPNN_METRIC_OP_SCOPE("tensor.gemm.pack");
    detail::pack_a(be, weight.data(), false, filters, cols_rows, 1.0f, pw);
  }
  return conv2d_forward_packed(be, x, pw, filters, bias, g);
}

Tensor conv2d_forward(const Tensor& x, const PackedA& packed_weight,
                      const Tensor& bias, const Conv2dGeometry& g) {
  HPNN_METRIC_OP_SCOPE("tensor.conv2d_forward");
  HPNN_CHECK(!packed_weight.empty() &&
                 packed_weight.k() ==
                     g.in_channels * g.kernel * g.kernel,
             "conv2d packed weight panels do not match geometry");
  // The panels are self-describing: compute with the backend that packed
  // them, which may lag the active backend until the caller repacks.
  return conv2d_forward_packed(*packed_weight.packed_backend(), x,
                               packed_weight.data(), packed_weight.m(),
                               bias, g);
}

namespace {

/// dst[f] += sum of the f-th `len`-element plane of `src`, summed in double
/// in index order. Four planes' sums advance together: each is a serial
/// chain of dependent adds, and interleaving hides the add latency without
/// changing any plane's order.
void add_plane_sums(const float* src, std::int64_t planes, std::int64_t len,
                    float* dst) {
  std::int64_t f = 0;
  for (; f + 4 <= planes; f += 4) {
    const float* p = src + f * len;
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    for (std::int64_t i = 0; i < len; ++i) {
      s0 += p[i];
      s1 += p[len + i];
      s2 += p[2 * len + i];
      s3 += p[3 * len + i];
    }
    dst[f] += static_cast<float>(s0);
    dst[f + 1] += static_cast<float>(s1);
    dst[f + 2] += static_cast<float>(s2);
    dst[f + 3] += static_cast<float>(s3);
  }
  for (; f < planes; ++f) {
    const float* p = src + f * len;
    double s = 0.0;
    for (std::int64_t i = 0; i < len; ++i) {
      s += p[i];
    }
    dst[f] += static_cast<float>(s);
  }
}

}  // namespace

Tensor conv2d_backward(const Tensor& x, const Tensor& weight,
                       const Tensor& grad_out, const Conv2dGeometry& g,
                       Tensor& grad_weight, Tensor& grad_bias) {
  HPNN_METRIC_OP_SCOPE("tensor.conv2d_backward");
  const std::int64_t batch = x.dim(0);
  const std::int64_t filters = weight.dim(0);
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t cols_rows = g.in_channels * g.kernel * g.kernel;
  HPNN_CHECK(grad_out.shape() == Shape({batch, filters, oh, ow}),
             "conv2d_backward grad_out shape mismatch: " +
                 grad_out.shape().to_string());
  HPNN_CHECK(grad_weight.shape() == weight.shape(),
             "grad_weight shape mismatch");

  Tensor grad_x(x.shape());
  const bool has_bias = grad_bias.numel() > 0;

  const std::int64_t in_sample = g.in_channels * g.in_h * g.in_w;
  const std::int64_t out_sample = filters * oh * ow;
  const std::int64_t ohw = oh * ow;

  // W^T is consumed by every sample's dX GEMM: pack it once (transposition
  // folded into the pack, no materialized W^T) and share the read-only
  // panels across all chunks.
  const core::ComputeBackend& be = backend();
  core::ScratchArena::Scope wt_scope;
  float* pwt =
      wt_scope.floats(detail::packed_a_floats(be, cols_rows, filters));
  {
    HPNN_METRIC_OP_SCOPE("tensor.gemm.pack");
    detail::pack_a(be, weight.data(), true, cols_rows, filters, 1.0f, pwt);
  }
  // dW += dY @ cols^T is a filters x cols_rows x ohw GEMM. Where gemm_raw
  // would run it on the packed microkernel, its operands are packed here
  // directly: dY as A, and cols^T as B panels written straight from the
  // padded input plane (pack_b_im2row). These are the panels gemm_raw
  // would build from the im2col matrix, so the bits are the same. Other
  // shapes keep gemm_raw's GEMV or small-volume path and its bits.
  const bool packed_dw =
      detail::gemm_takes_packed_path(filters, cols_rows, ohw);

  // Static partition of the batch: at most 8 chunks, boundaries a pure
  // function of the batch size. grad_x writes are disjoint per sample; the
  // per-chunk grad_weight/grad_bias partials are reduced below in chunk
  // order, so the result is bit-identical at any thread count. The chunk
  // cap also bounds the partial-accumulator memory to 8 weight-sized
  // tensors.
  constexpr std::int64_t kMaxChunks = 8;
  const std::int64_t grain = (batch + kMaxChunks - 1) / kMaxChunks;
  const std::int64_t chunks = core::ThreadPool::chunk_count(0, batch, grain);
  std::vector<Tensor> partial_gw(static_cast<std::size_t>(chunks));
  std::vector<Tensor> partial_gb(static_cast<std::size_t>(chunks));

  core::parallel_for(0, batch, grain, [&](std::int64_t n0, std::int64_t n1,
                                          std::int64_t chunk) {
    core::ScratchArena::Scope scope;
    float* grad_cols = scope.floats(cols_rows * ohw);
    float* cols = nullptr;
    float* pa = nullptr;
    float* pb = nullptr;
    float* padded = nullptr;
    if (!packed_dw) {
      cols = scope.floats(cols_rows * ohw);
    } else {
      pa = scope.floats(detail::packed_a_floats(be, filters, ohw));
      pb = scope.floats(detail::packed_b_floats(be, ohw, cols_rows));
      if (g.padding > 0) {
        // The border stays zero; each sample rewrites only the interior.
        const std::int64_t count = padded_plane_size(g);
        padded = scope.floats(count);
        std::fill(padded, padded + count, 0.0f);
      }
    }
    Tensor gw2d(Shape{filters, cols_rows});
    Tensor gb(Shape{filters});
    for (std::int64_t nidx = n0; nidx < n1; ++nidx) {
      // The sample's output-gradient slice is already a contiguous
      // [filters, oh*ow] matrix — no staging copy needed.
      const float* gout = grad_out.data() + nidx * out_sample;
      const float* xs = x.data() + nidx * in_sample;

      // grad wrt weight: dW += dY @ cols^T.
      if (packed_dw) {
        const float* plane = xs;
        if (padded != nullptr) {
          copy_to_padded(xs, g, padded);
          plane = padded;
        }
        detail::pack_a(be, gout, false, filters, ohw, 1.0f, pa);
        detail::pack_b_im2row(be, plane, g.in_channels,
                              g.in_h + 2 * g.padding, g.in_w + 2 * g.padding,
                              g.kernel, g.stride, oh, ow, pb);
        detail::gemm_packed(be, pa, pb, filters, cols_rows, ohw, 1.0f,
                            gw2d.data(), cols_rows);
      } else {
        im2col(xs, g, cols);
        gemm_raw(gout, false, cols, true, filters, cols_rows, ohw, 1.0f,
                 1.0f, gw2d.data(), cols_rows);
      }

      // grad wrt bias: sum of each filter plane.
      if (has_bias) {
        add_plane_sums(gout, filters, ohw, gb.data());
      }

      // grad wrt input: dcols = W^T @ dY ; col2im scatter-add.
      detail::gemm_with_packed_a(be, pwt, cols_rows, filters, gout, false,
                                 ohw, 0.0f, grad_cols, ohw);
      col2im(grad_cols, g, grad_x.data() + nidx * in_sample);
    }
    partial_gw[static_cast<std::size_t>(chunk)] = std::move(gw2d);
    partial_gb[static_cast<std::size_t>(chunk)] = std::move(gb);
  });

  // Deterministic reduction: accumulate the partials into the caller's
  // gradients in ascending chunk (i.e. sample) order.
  float* gw = grad_weight.data();
  for (std::int64_t chunk = 0; chunk < chunks; ++chunk) {
    const float* p = partial_gw[static_cast<std::size_t>(chunk)].data();
    vec_axpy(1.0f, p, gw, grad_weight.numel());
  }
  if (has_bias) {
    for (std::int64_t chunk = 0; chunk < chunks; ++chunk) {
      const Tensor& p = partial_gb[static_cast<std::size_t>(chunk)];
      for (std::int64_t f = 0; f < filters; ++f) {
        grad_bias.at(f) += p.at(f);
      }
    }
  }
  return grad_x;
}

namespace {

/// Shared max-pooling driver; writes the argmax indices only when asked
/// (training needs them for the backward scatter, inference does not).
Tensor maxpool2d_impl(const Tensor& x, std::int64_t kernel,
                      std::int64_t stride, std::vector<std::int64_t>* argmax) {
  HPNN_METRIC_OP_SCOPE("tensor.maxpool2d_forward");
  HPNN_CHECK(x.rank() == 4, "maxpool2d input must be NCHW");
  HPNN_CHECK(kernel >= 1 && stride >= 1, "invalid pool geometry");
  const std::int64_t batch = x.dim(0);
  const std::int64_t ch = x.dim(1);
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  // Note: (h - kernel) must be checked before the division — C++ integer
  // division rounds toward zero, so (1-2)/2+1 == 1 would silently produce a
  // window that reads past the plane.
  HPNN_CHECK(h >= kernel && w >= kernel,
             "maxpool2d window larger than input (" + std::to_string(h) +
                 "x" + std::to_string(w) + " vs kernel " +
                 std::to_string(kernel) + ")");
  const std::int64_t oh = (h - kernel) / stride + 1;
  const std::int64_t ow = (w - kernel) / stride + 1;

  Tensor out(Shape{batch, ch, oh, ow});
  if (argmax != nullptr) {
    argmax->assign(static_cast<std::size_t>(out.numel()), 0);
  }
  const float* src = x.data();
  float* dst = out.data();
  const std::int64_t planes = batch * ch;
  auto plane_range = [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t pidx = p0; pidx < p1; ++pidx) {
      const float* plane = src + pidx * h * w;
      const std::int64_t plane_base = pidx * h * w;
      std::int64_t out_idx = pidx * oh * ow;
      if (argmax == nullptr && kernel == 2 && stride == 2) {
        // The common 2x2/2 window, unrolled in the same scan order with
        // selects: the general loop below branches on data inside a
        // two-trip window loop and costs about 10x on the device's pools.
        for (std::int64_t y = 0; y < oh; ++y) {
          const float* r0 = plane + 2 * y * w;
          const float* r1 = r0 + w;
          for (std::int64_t xo = 0; xo < ow; ++xo, ++out_idx) {
            float best = r0[2 * xo];
            best = r0[2 * xo + 1] > best ? r0[2 * xo + 1] : best;
            best = r1[2 * xo] > best ? r1[2 * xo] : best;
            best = r1[2 * xo + 1] > best ? r1[2 * xo + 1] : best;
            dst[out_idx] = best;
          }
        }
        continue;
      }
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xo = 0; xo < ow; ++xo, ++out_idx) {
          // Seed with the first window element (not -inf) so NaN inputs
          // still select a valid argmax for the backward scatter.
          std::int64_t best_idx = (y * stride) * w + xo * stride;
          float best = plane[best_idx];
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              const std::int64_t idx = (y * stride + ky) * w + xo * stride + kx;
              const float v = plane[idx];
              if (v > best) {
                best = v;
                best_idx = idx;
              }
            }
          }
          dst[out_idx] = best;
          if (argmax != nullptr) {
            (*argmax)[static_cast<std::size_t>(out_idx)] =
                plane_base + best_idx;
          }
        }
      }
    }
  };
  if (planes * oh * ow * kernel * kernel < kParallelWorkThreshold) {
    plane_range(0, planes);
  } else {
    core::parallel_for(0, planes, std::max<std::int64_t>(1, planes / 64),
                       plane_range);
  }
  return out;
}

}  // namespace

MaxPoolResult maxpool2d_forward(const Tensor& x, std::int64_t kernel,
                                std::int64_t stride) {
  MaxPoolResult res;
  res.output = maxpool2d_impl(x, kernel, stride, &res.argmax);
  return res;
}

Tensor maxpool2d_values(const Tensor& x, std::int64_t kernel,
                        std::int64_t stride) {
  return maxpool2d_impl(x, kernel, stride, nullptr);
}

Tensor maxpool2d_backward(const Tensor& grad_out, const Shape& input_shape,
                          const std::vector<std::int64_t>& argmax) {
  HPNN_CHECK(static_cast<std::size_t>(grad_out.numel()) == argmax.size(),
             "maxpool2d_backward argmax size mismatch");
  Tensor grad_x(input_shape);
  const float* g = grad_out.data();
  float* gx = grad_x.data();
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    gx[argmax[i]] += g[i];
  }
  return grad_x;
}

Tensor avgpool2d_forward(const Tensor& x, std::int64_t kernel,
                         std::int64_t stride) {
  HPNN_METRIC_OP_SCOPE("tensor.avgpool2d_forward");
  HPNN_CHECK(x.rank() == 4, "avgpool2d input must be NCHW");
  HPNN_CHECK(kernel >= 1 && stride >= 1, "invalid pool geometry");
  const std::int64_t batch = x.dim(0);
  const std::int64_t ch = x.dim(1);
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  HPNN_CHECK(h >= kernel && w >= kernel,
             "avgpool2d window larger than input");
  const std::int64_t oh = (h - kernel) / stride + 1;
  const std::int64_t ow = (w - kernel) / stride + 1;
  Tensor out(Shape{batch, ch, oh, ow});
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  const std::int64_t planes = batch * ch;
  auto plane_range = [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t pidx = p0; pidx < p1; ++pidx) {
      const float* plane = x.data() + pidx * h * w;
      float* oplane = out.data() + pidx * oh * ow;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xo = 0; xo < ow; ++xo) {
          double s = 0.0;
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              s += plane[(y * stride + ky) * w + (xo * stride + kx)];
            }
          }
          oplane[y * ow + xo] = static_cast<float>(s) * inv;
        }
      }
    }
  };
  if (planes * oh * ow * kernel * kernel < kParallelWorkThreshold) {
    plane_range(0, planes);
  } else {
    core::parallel_for(0, planes, std::max<std::int64_t>(1, planes / 64),
                       plane_range);
  }
  return out;
}

Tensor avgpool2d_backward(const Tensor& grad_out, const Shape& input_shape,
                          std::int64_t kernel, std::int64_t stride) {
  HPNN_CHECK(grad_out.rank() == 4 && input_shape.rank() == 4,
             "avgpool2d_backward expects NCHW shapes");
  Tensor grad_x(input_shape);
  const std::int64_t batch = input_shape.dim(0);
  const std::int64_t ch = input_shape.dim(1);
  const std::int64_t h = input_shape.dim(2);
  const std::int64_t w = input_shape.dim(3);
  const std::int64_t oh = grad_out.dim(2);
  const std::int64_t ow = grad_out.dim(3);
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  const std::int64_t planes = batch * ch;
  // Windows overlap within a plane but never across planes, so chunking by
  // plane keeps the scatter-adds race-free.
  auto plane_range = [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t pidx = p0; pidx < p1; ++pidx) {
      const float* gplane = grad_out.data() + pidx * oh * ow;
      float* xplane = grad_x.data() + pidx * h * w;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xo = 0; xo < ow; ++xo) {
          const float g = gplane[y * ow + xo] * inv;
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              xplane[(y * stride + ky) * w + (xo * stride + kx)] += g;
            }
          }
        }
      }
    }
  };
  if (planes * oh * ow * kernel * kernel < kParallelWorkThreshold) {
    plane_range(0, planes);
  } else {
    core::parallel_for(0, planes, std::max<std::int64_t>(1, planes / 64),
                       plane_range);
  }
  return grad_x;
}

Tensor global_avgpool_forward(const Tensor& x) {
  HPNN_METRIC_OP_SCOPE("tensor.global_avgpool_forward");
  HPNN_CHECK(x.rank() == 4, "global_avgpool input must be NCHW");
  const std::int64_t batch = x.dim(0);
  const std::int64_t ch = x.dim(1);
  const std::int64_t plane = x.dim(2) * x.dim(3);
  Tensor out(Shape{batch, ch});
  const float* src = x.data();
  const std::int64_t planes = batch * ch;
  auto plane_range = [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t pidx = p0; pidx < p1; ++pidx) {
      double s = 0.0;
      const float* p = src + pidx * plane;
      for (std::int64_t i = 0; i < plane; ++i) {
        s += p[i];
      }
      out.at(pidx) = static_cast<float>(s / static_cast<double>(plane));
    }
  };
  if (planes * plane < kParallelWorkThreshold) {
    plane_range(0, planes);
  } else {
    core::parallel_for(0, planes, std::max<std::int64_t>(1, planes / 64),
                       plane_range);
  }
  return out;
}

Tensor global_avgpool_backward(const Tensor& grad_out,
                               const Shape& input_shape) {
  HPNN_CHECK(grad_out.rank() == 2, "global_avgpool grad must be [N, C]");
  Tensor grad_x(input_shape);
  const std::int64_t batch = input_shape.dim(0);
  const std::int64_t ch = input_shape.dim(1);
  const std::int64_t plane = input_shape.dim(2) * input_shape.dim(3);
  const float inv = 1.0f / static_cast<float>(plane);
  float* gx = grad_x.data();
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < ch; ++c) {
      const float g = grad_out.at(n, c) * inv;
      float* p = gx + (n * ch + c) * plane;
      for (std::int64_t i = 0; i < plane; ++i) {
        p[i] = g;
      }
    }
  }
  return grad_x;
}

namespace {

/// Shared row-parallel driver for the softmax family: every row is an
/// independent computation writing its own output slice.
template <typename RowFn>
void for_each_row(std::int64_t n, std::int64_t c, const RowFn& row_fn) {
  if (n * c < kParallelWorkThreshold / 8) {
    row_fn(0, n);
  } else {
    core::parallel_for(0, n, std::max<std::int64_t>(1, n / 64), row_fn);
  }
}

}  // namespace

Tensor softmax_rows(const Tensor& logits) {
  HPNN_METRIC_OP_SCOPE("tensor.softmax_rows");
  HPNN_CHECK(logits.rank() == 2, "softmax_rows expects [N, C]");
  const std::int64_t n = logits.dim(0);
  const std::int64_t c = logits.dim(1);
  Tensor out(logits.shape());
  for_each_row(n, c, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      const float* row = logits.data() + i * c;
      float* orow = out.data() + i * c;
      const float m = *std::max_element(row, row + c);
      double denom = 0.0;
      for (std::int64_t j = 0; j < c; ++j) {
        orow[j] = std::exp(row[j] - m);
        denom += orow[j];
      }
      const float inv = static_cast<float>(1.0 / denom);
      for (std::int64_t j = 0; j < c; ++j) {
        orow[j] *= inv;
      }
    }
  });
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  HPNN_METRIC_OP_SCOPE("tensor.log_softmax_rows");
  HPNN_CHECK(logits.rank() == 2, "log_softmax_rows expects [N, C]");
  const std::int64_t n = logits.dim(0);
  const std::int64_t c = logits.dim(1);
  Tensor out(logits.shape());
  for_each_row(n, c, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      const float* row = logits.data() + i * c;
      float* orow = out.data() + i * c;
      const float m = *std::max_element(row, row + c);
      double denom = 0.0;
      for (std::int64_t j = 0; j < c; ++j) {
        denom += std::exp(static_cast<double>(row[j] - m));
      }
      const float log_denom = static_cast<float>(std::log(denom)) + m;
      for (std::int64_t j = 0; j < c; ++j) {
        orow[j] = row[j] - log_denom;
      }
    }
  });
  return out;
}

std::vector<std::int64_t> argmax_rows(const Tensor& scores) {
  HPNN_CHECK(scores.rank() == 2, "argmax_rows expects [N, C]");
  const std::int64_t n = scores.dim(0);
  const std::int64_t c = scores.dim(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = scores.data() + i * c;
    out[static_cast<std::size_t>(i)] =
        static_cast<std::int64_t>(std::max_element(row, row + c) - row);
  }
  return out;
}

}  // namespace hpnn::ops
