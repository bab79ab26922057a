// Dense numeric kernels: GEMM, im2col/col2im, convolution, pooling, softmax.
//
// These are the raw computational primitives; the layer classes in src/nn
// are thin stateful wrappers around them. Kernels are cache-blocked where
// it matters and run on the deterministic thread pool (core/threadpool.hpp)
// when the work is large enough: GEMM fans out over row chunks, conv over
// samples, pooling/softmax over planes/rows. Chunk boundaries never depend
// on the thread count, so every kernel returns bit-identical results at any
// HPNN_THREADS setting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/gemm_kernel.hpp"
#include "tensor/tensor.hpp"

namespace hpnn::ops {

/// Whether a GEMM operand is used as stored or transposed.
enum class Trans { kNo, kYes };

/// C = alpha * op(A) @ op(B) + beta * C.
/// op(A) is M x K, op(B) is K x N, C is M x N. Rank-2 tensors only.
void gemm(const Tensor& a, Trans ta, const Tensor& b, Trans tb, Tensor& c,
          float alpha = 1.0f, float beta = 0.0f);

/// Convenience: returns op(A) @ op(B).
Tensor matmul(const Tensor& a, const Tensor& b, Trans ta = Trans::kNo,
              Trans tb = Trans::kNo);

/// Geometry of a 2-d convolution / pooling window.
struct Conv2dGeometry {
  std::int64_t in_channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel = 1;   // square kernel
  std::int64_t stride = 1;
  std::int64_t padding = 0;

  std::int64_t out_h() const {
    return (in_h + 2 * padding - kernel) / stride + 1;
  }
  std::int64_t out_w() const {
    return (in_w + 2 * padding - kernel) / stride + 1;
  }
};

/// im2col for one sample: input [C, H, W] -> columns
/// [C*K*K, out_h*out_w]. `cols` must be pre-sized. A padded input is first
/// copied into a zero-padded plane in scratch memory, so every column row
/// is one contiguous run (stride 1) or a strided gather, with no bounds
/// tests. The float host path and the device's int8 datapath share one
/// implementation of the padding/stride semantics.
void im2col(const float* input, const Conv2dGeometry& g, float* cols);
void im2col(const std::int8_t* input, const Conv2dGeometry& g,
            std::int8_t* cols);

/// col2im for one sample: scatter-adds columns onto the input gradient's
/// current values, each element's additions in (c, ky, kx, y, x) order.
/// A padded geometry scatters through a zero-bordered scratch plane, so
/// every column row is one run with no bounds tests (as in im2col).
void col2im(const float* cols, const Conv2dGeometry& g, float* input_grad);

/// Convolution forward for a batch.
/// x: [N, C, H, W]; weight: [F, C, K, K]; bias: [F] (may be empty for none).
/// Returns [N, F, out_h, out_w].
Tensor conv2d_forward(const Tensor& x, const Tensor& weight,
                      const Tensor& bias, const Conv2dGeometry& g);

/// Convolution forward against weight panels packed once via
/// PackedA::pack(weight.data(), false, filters, C*K*K) — layers cache the
/// packing across a batch (training) or across calls (frozen eval
/// weights) instead of re-packing per sample.
Tensor conv2d_forward(const Tensor& x, const PackedA& packed_weight,
                      const Tensor& bias, const Conv2dGeometry& g);

/// Convolution backward.
/// grad_out: [N, F, out_h, out_w]. Accumulates into grad_weight/grad_bias
/// (caller zeroes them per step) and returns grad_x [N, C, H, W].
Tensor conv2d_backward(const Tensor& x, const Tensor& weight,
                       const Tensor& grad_out, const Conv2dGeometry& g,
                       Tensor& grad_weight, Tensor& grad_bias);

/// Max-pooling forward. x: [N, C, H, W]; returns output and the flat input
/// index (within each sample's channel plane set) of every selected max,
/// for use by the backward pass.
struct MaxPoolResult {
  Tensor output;                       // [N, C, out_h, out_w]
  std::vector<std::int64_t> argmax;    // one flat x-index per output element
};
MaxPoolResult maxpool2d_forward(const Tensor& x, std::int64_t kernel,
                                std::int64_t stride);

/// Max-pooling forward without the argmax indices (inference): the same
/// outputs as maxpool2d_forward(x, kernel, stride).output.
Tensor maxpool2d_values(const Tensor& x, std::int64_t kernel,
                        std::int64_t stride);

/// Max-pooling backward: routes each output gradient to its argmax source.
Tensor maxpool2d_backward(const Tensor& grad_out, const Shape& input_shape,
                          const std::vector<std::int64_t>& argmax);

/// Average pooling with square window. x: [N, C, H, W].
Tensor avgpool2d_forward(const Tensor& x, std::int64_t kernel,
                         std::int64_t stride);
/// Backward of average pooling: spreads each output gradient uniformly
/// over its window (overlaps accumulate).
Tensor avgpool2d_backward(const Tensor& grad_out, const Shape& input_shape,
                          std::int64_t kernel, std::int64_t stride);

/// Global average pooling: [N, C, H, W] -> [N, C].
Tensor global_avgpool_forward(const Tensor& x);
/// Backward of global average pooling.
Tensor global_avgpool_backward(const Tensor& grad_out, const Shape& input_shape);

/// Row-wise softmax of a [N, C] tensor (numerically stabilized).
Tensor softmax_rows(const Tensor& logits);

/// Row-wise log-softmax of a [N, C] tensor.
Tensor log_softmax_rows(const Tensor& logits);

/// Row-wise argmax of a [N, C] tensor -> N class indices.
std::vector<std::int64_t> argmax_rows(const Tensor& scores);

}  // namespace hpnn::ops
