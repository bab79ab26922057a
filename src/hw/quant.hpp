// Symmetric int8 quantization for the TPU-like integer datapath.
//
// The Google TPU's MMU multiplies 8-bit operands; we use per-tensor
// symmetric dynamic quantization: q = round(x / scale), scale = max|x|/127.
//
// Rounding is to nearest, ties to even; values beyond ±127 * scale saturate
// to ±127 (infinities included), and NaN quantizes to 0. The element
// kernel is the active compute backend's quantize_i8, bit-identical on
// every tier.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace hpnn::hw {

struct QuantizedTensor {
  std::vector<std::int8_t> values;
  float scale = 1.0f;       // x ≈ q * scale
  Shape shape;

  std::int64_t numel() const {
    return static_cast<std::int64_t>(values.size());
  }
};

/// The dynamic per-tensor scale max|x|/127 over n values (NaN entries are
/// ignored); 1 when every value is zero.
float dynamic_scale(const float* x, std::int64_t n);

/// Quantizes a float tensor to int8 with per-tensor symmetric scale.
/// An all-zero tensor quantizes with scale 1.
QuantizedTensor quantize(const Tensor& x);

/// Quantizes with a fixed (calibrated) scale; values outside ±127*scale
/// saturate. Used by the static-quantization path, where the owner ships
/// per-layer activation scales inside the published artifact.
QuantizedTensor quantize_with_scale(const Tensor& x, float scale);

/// Reconstructs the float tensor (q * scale).
Tensor dequantize(const QuantizedTensor& q);

/// Max absolute quantization error for a given tensor (scale/2 bound check).
float max_quantization_error(const Tensor& x);

}  // namespace hpnn::hw
