#include "hw/quant.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "tensor/backend.hpp"

namespace hpnn::hw {
namespace {

TEST(QuantTest, RoundTripErrorBounded) {
  Rng rng(1);
  const Tensor x = Tensor::normal(Shape{1000}, rng, 0.0f, 2.0f);
  const QuantizedTensor q = quantize(x);
  const Tensor back = dequantize(q);
  // symmetric quantization error is at most scale/2 per element
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::fabs(x.at(i) - back.at(i)), q.scale * 0.5f + 1e-7f);
  }
}

TEST(QuantTest, ScaleMapsMaxAbsTo127) {
  Tensor x(Shape{3}, std::vector<float>{-2.54f, 1.0f, 0.5f});
  const QuantizedTensor q = quantize(x);
  EXPECT_FLOAT_EQ(q.scale, 2.54f / 127.0f);
  EXPECT_EQ(q.values[0], -127);
}

TEST(QuantTest, ZeroTensorHasUnitScale) {
  Tensor x(Shape{4});
  const QuantizedTensor q = quantize(x);
  EXPECT_FLOAT_EQ(q.scale, 1.0f);
  for (const auto v : q.values) {
    EXPECT_EQ(v, 0);
  }
}

TEST(QuantTest, SymmetricRange) {
  Rng rng(2);
  const Tensor x = Tensor::uniform(Shape{512}, rng, -3.0f, 3.0f);
  const QuantizedTensor q = quantize(x);
  for (const auto v : q.values) {
    EXPECT_GE(v, -127);
    EXPECT_LE(v, 127);
  }
}

TEST(QuantTest, PreservesShape) {
  Tensor x(Shape{2, 3, 4}, 1.0f);
  const QuantizedTensor q = quantize(x);
  EXPECT_EQ(q.shape, x.shape());
  EXPECT_EQ(dequantize(q).shape(), x.shape());
}

TEST(QuantTest, NegationCommutesWithQuantization) {
  // Needed by the lock equivalence: Q(-x) == -Q(x) elementwise.
  Rng rng(3);
  const Tensor x = Tensor::normal(Shape{256}, rng);
  const QuantizedTensor qx = quantize(x);
  const QuantizedTensor qnx = quantize(-x);
  EXPECT_FLOAT_EQ(qx.scale, qnx.scale);
  for (std::size_t i = 0; i < qx.values.size(); ++i) {
    EXPECT_EQ(qx.values[i], -qnx.values[i]);
  }
}

TEST(QuantTest, NonFiniteValuesHaveDefinedCodes) {
  // Request images are untrusted: NaN quantizes to 0 and infinities
  // saturate, with the calibrated scale and the dynamic one (whose max|x|
  // ignores NaN) alike, on every backend.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor x(Shape{5}, std::vector<float>{nan, inf, -inf, 0.5f, -1.0f});
  const std::string entering = ops::backend().name();
  for (const std::string& name : ops::backend_names()) {
    if (!ops::find_backend(name)->supported()) {
      continue;
    }
    ops::set_backend(name);
    const QuantizedTensor fixed = quantize_with_scale(x, 0.01f);
    EXPECT_EQ(fixed.values, (std::vector<std::int8_t>{0, 127, -127, 50, -100}))
        << name;
    const Tensor finite(Shape{3}, std::vector<float>{nan, 0.5f, -1.0f});
    const QuantizedTensor dynamic = quantize(finite);
    EXPECT_EQ(dynamic.scale, 1.0f / 127.0f) << name;
    EXPECT_EQ(dynamic.values, (std::vector<std::int8_t>{0, 64, -127}))
        << name;
  }
  ops::set_backend(entering);
}

TEST(QuantTest, MaxErrorHelperAgrees) {
  Rng rng(4);
  const Tensor x = Tensor::normal(Shape{128}, rng);
  const QuantizedTensor q = quantize(x);
  EXPECT_LE(max_quantization_error(x), q.scale * 0.5f + 1e-7f);
}

}  // namespace
}  // namespace hpnn::hw
