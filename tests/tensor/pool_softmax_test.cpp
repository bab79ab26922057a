#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "tensor/ops.hpp"

namespace hpnn::ops {
namespace {

TEST(MaxPoolTest, ValuesMatchForwardOutputIncludingNaNAndTies) {
  // Inference pooling skips the argmax indices; its outputs (NaN and tie
  // handling included) must equal the training path's, bit for bit.
  Rng rng(5);
  Tensor x = Tensor::normal(Shape{2, 3, 9, 8}, rng);
  for (std::int64_t i = 0; i < x.numel(); i += 11) {
    x.data()[i] = std::nanf("");
  }
  for (std::int64_t i = 3; i < x.numel(); i += 13) {
    x.data()[i] = x.data()[i - 1];  // ties
  }
  x.data()[5] = -0.0f;
  x.data()[6] = 0.0f;
  for (const auto& [kernel, stride] :
       {std::pair{2, 2}, std::pair{2, 1}, std::pair{3, 2}, std::pair{3, 3}}) {
    const Tensor want = maxpool2d_forward(x, kernel, stride).output;
    const Tensor got = maxpool2d_values(x, kernel, stride);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             sizeof(float) * static_cast<std::size_t>(
                                                 got.numel())))
        << "kernel " << kernel << " stride " << stride;
  }
}

TEST(MaxPoolTest, SelectsWindowMaxima) {
  Tensor x(Shape{1, 1, 4, 4},
           std::vector<float>{1, 2, 3, 4,    //
                              5, 6, 7, 8,    //
                              9, 10, 11, 12, //
                              13, 14, 15, 16});
  const auto res = maxpool2d_forward(x, 2, 2);
  EXPECT_EQ(res.output.shape(), Shape({1, 1, 2, 2}));
  EXPECT_EQ(res.output.at(0), 6.0f);
  EXPECT_EQ(res.output.at(1), 8.0f);
  EXPECT_EQ(res.output.at(2), 14.0f);
  EXPECT_EQ(res.output.at(3), 16.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  Tensor x(Shape{1, 1, 4, 4},
           std::vector<float>{1, 2, 3, 4,    //
                              5, 6, 7, 8,    //
                              9, 10, 11, 12, //
                              13, 14, 15, 16});
  const auto res = maxpool2d_forward(x, 2, 2);
  Tensor g(res.output.shape(), std::vector<float>{10, 20, 30, 40});
  const Tensor gx = maxpool2d_backward(g, x.shape(), res.argmax);
  EXPECT_EQ(gx.at(0, 0, 1, 1), 10.0f);   // position of 6
  EXPECT_EQ(gx.at(0, 0, 1, 3), 20.0f);   // position of 8
  EXPECT_EQ(gx.at(0, 0, 3, 1), 30.0f);   // position of 14
  EXPECT_EQ(gx.at(0, 0, 3, 3), 40.0f);   // position of 16
  EXPECT_EQ(gx.at(0, 0, 0, 0), 0.0f);
}

TEST(MaxPoolTest, OverlappingWindowsAccumulateGradients) {
  Tensor x(Shape{1, 1, 3, 3}, std::vector<float>{0, 0, 0,  //
                                                 0, 9, 0,  //
                                                 0, 0, 0});
  const auto res = maxpool2d_forward(x, 2, 1);
  // all four windows select the center element
  Tensor g(res.output.shape(), 1.0f);
  const Tensor gx = maxpool2d_backward(g, x.shape(), res.argmax);
  EXPECT_EQ(gx.at(0, 0, 1, 1), 4.0f);
}

TEST(MaxPoolTest, NanInputStillSelectsValidArgmax) {
  Tensor x(Shape{1, 1, 2, 2},
           std::vector<float>{NAN, NAN, NAN, NAN});
  const auto res = maxpool2d_forward(x, 2, 2);
  ASSERT_EQ(res.argmax.size(), 1u);
  EXPECT_GE(res.argmax[0], 0);
  EXPECT_LT(res.argmax[0], 4);
}

TEST(MaxPoolTest, MultiChannelBatch) {
  Rng rng(3);
  const Tensor x = Tensor::normal(Shape{2, 3, 6, 6}, rng);
  const auto res = maxpool2d_forward(x, 2, 2);
  EXPECT_EQ(res.output.shape(), Shape({2, 3, 3, 3}));
  // each output must equal the max of its window
  for (std::int64_t i = 0; i < res.output.numel(); ++i) {
    EXPECT_EQ(res.output.at(i), x.at(res.argmax[static_cast<std::size_t>(i)]));
  }
}

TEST(AvgPoolTest, AveragesWindows) {
  Tensor x(Shape{1, 1, 4, 4},
           std::vector<float>{1, 2, 3, 4,    //
                              5, 6, 7, 8,    //
                              9, 10, 11, 12, //
                              13, 14, 15, 16});
  const Tensor out = avgpool2d_forward(x, 2, 2);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at(0), (1 + 2 + 5 + 6) / 4.0f);
  EXPECT_FLOAT_EQ(out.at(3), (11 + 12 + 15 + 16) / 4.0f);
}

TEST(AvgPoolTest, BackwardSpreadsUniformly) {
  Tensor g(Shape{1, 1, 2, 2}, 4.0f);
  const Tensor gx = avgpool2d_backward(g, Shape{1, 1, 4, 4}, 2, 2);
  for (std::int64_t i = 0; i < gx.numel(); ++i) {
    EXPECT_FLOAT_EQ(gx.at(i), 1.0f);  // 4 / window size
  }
}

TEST(AvgPoolTest, OverlappingWindowsAccumulate) {
  Tensor g(Shape{1, 1, 2, 2}, 4.0f);
  const Tensor gx = avgpool2d_backward(g, Shape{1, 1, 3, 3}, 2, 1);
  EXPECT_FLOAT_EQ(gx.at(0, 0, 1, 1), 4.0f);  // center hit by all 4 windows
  EXPECT_FLOAT_EQ(gx.at(0, 0, 0, 0), 1.0f);
}

TEST(AvgPoolTest, WindowLargerThanInputThrows) {
  Tensor x(Shape{1, 1, 2, 2});
  EXPECT_THROW(avgpool2d_forward(x, 3, 1), InvariantError);
}

TEST(GlobalAvgPoolTest, ForwardAveragesPlanes) {
  Tensor x(Shape{1, 2, 2, 2},
           std::vector<float>{1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor out = global_avgpool_forward(x);
  EXPECT_EQ(out.shape(), Shape({1, 2}));
  EXPECT_FLOAT_EQ(out.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 25.0f);
}

TEST(GlobalAvgPoolTest, BackwardSpreadsUniformly) {
  Tensor g(Shape{1, 2}, std::vector<float>{4.0f, 8.0f});
  const Tensor gx = global_avgpool_backward(g, Shape{1, 2, 2, 2});
  EXPECT_FLOAT_EQ(gx.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(gx.at(0, 1, 1, 1), 2.0f);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(9);
  const Tensor logits = Tensor::normal(Shape{5, 10}, rng, 0.0f, 3.0f);
  const Tensor p = softmax_rows(logits);
  for (std::int64_t i = 0; i < 5; ++i) {
    double s = 0.0;
    for (std::int64_t j = 0; j < 10; ++j) {
      EXPECT_GT(p.at(i, j), 0.0f);
      s += p.at(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(SoftmaxTest, StableForLargeLogits) {
  Tensor logits(Shape{1, 3}, std::vector<float>{1000.0f, 1000.0f, -1000.0f});
  const Tensor p = softmax_rows(logits);
  EXPECT_NEAR(p.at(0, 0), 0.5f, 1e-5f);
  EXPECT_NEAR(p.at(0, 1), 0.5f, 1e-5f);
  EXPECT_NEAR(p.at(0, 2), 0.0f, 1e-5f);
}

TEST(SoftmaxTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(10);
  const Tensor logits = Tensor::normal(Shape{4, 6}, rng, 0.0f, 2.0f);
  const Tensor p = softmax_rows(logits);
  const Tensor lp = log_softmax_rows(logits);
  for (std::int64_t i = 0; i < lp.numel(); ++i) {
    EXPECT_NEAR(lp.at(i), std::log(p.at(i)), 1e-4);
  }
}

TEST(ArgmaxRowsTest, PicksPerRowMaximum) {
  Tensor s(Shape{2, 3}, std::vector<float>{1, 5, 2,  //
                                           9, 0, 3});
  const auto idx = argmax_rows(s);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

}  // namespace
}  // namespace hpnn::ops
