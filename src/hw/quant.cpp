#include "hw/quant.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "tensor/backend.hpp"

namespace hpnn::hw {

float dynamic_scale(const float* x, std::int64_t n) {
  float max_abs = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    max_abs = std::max(max_abs, std::fabs(x[i]));
  }
  return (max_abs > 0.0f) ? max_abs / 127.0f : 1.0f;
}

namespace {

QuantizedTensor quantize_unchecked(const Tensor& x, float scale) {
  QuantizedTensor q;
  q.shape = x.shape();
  q.scale = scale;
  q.values.resize(static_cast<std::size_t>(x.numel()));
  ops::backend().quantize_i8(x.data(), x.numel(), 1.0f / scale,
                             q.values.data());
  return q;
}

}  // namespace

QuantizedTensor quantize(const Tensor& x) {
  return quantize_unchecked(x, dynamic_scale(x.data(), x.numel()));
}

QuantizedTensor quantize_with_scale(const Tensor& x, float scale) {
  HPNN_CHECK(scale > 0.0f, "quantization scale must be positive");
  return quantize_unchecked(x, scale);
}

Tensor dequantize(const QuantizedTensor& q) {
  Tensor x(q.shape);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] =
        static_cast<float>(q.values[static_cast<std::size_t>(i)]) * q.scale;
  }
  return x;
}

float max_quantization_error(const Tensor& x) {
  const QuantizedTensor q = quantize(x);
  const Tensor back = dequantize(q);
  float err = 0.0f;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    err = std::max(err, std::fabs(x.data()[i] - back.data()[i]));
  }
  return err;
}

}  // namespace hpnn::hw
