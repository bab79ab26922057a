#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "tensor/backend.hpp"
#include "tensor/ops.hpp"

namespace hpnn::ops {
namespace {

/// Direct (non-im2col) convolution reference.
Tensor naive_conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
                    const Conv2dGeometry& g) {
  const std::int64_t batch = x.dim(0);
  const std::int64_t filters = w.dim(0);
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  Tensor out(Shape{batch, filters, oh, ow});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t f = 0; f < filters; ++f) {
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xo = 0; xo < ow; ++xo) {
          double s = bias.numel() > 0 ? bias.at(f) : 0.0;
          for (std::int64_t c = 0; c < g.in_channels; ++c) {
            for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
              for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
                const std::int64_t iy = y * g.stride + ky - g.padding;
                const std::int64_t ix = xo * g.stride + kx - g.padding;
                if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) {
                  s += static_cast<double>(x.at(n, c, iy, ix)) *
                       w.at(f, c, ky, kx);
                }
              }
            }
          }
          out.at(n, f, y, xo) = static_cast<float>(s);
        }
      }
    }
  }
  return out;
}

struct ConvCase {
  std::int64_t batch, in_ch, h, w, filters, kernel, stride, padding;
};

class ConvParamTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParamTest, ForwardMatchesNaive) {
  const auto& p = GetParam();
  Rng rng(100 + p.kernel * 10 + p.stride);
  const Conv2dGeometry g{p.in_ch, p.h, p.w, p.kernel, p.stride, p.padding};
  const Tensor x = Tensor::normal(Shape{p.batch, p.in_ch, p.h, p.w}, rng);
  const Tensor w =
      Tensor::normal(Shape{p.filters, p.in_ch, p.kernel, p.kernel}, rng);
  const Tensor b = Tensor::normal(Shape{p.filters}, rng);
  const Tensor out = conv2d_forward(x, w, b, g);
  const Tensor ref = naive_conv2d(x, w, b, g);
  EXPECT_TRUE(out.allclose(ref, 1e-4f, 1e-4f));
}

/// Direct double-precision conv backward, with the element-wise sum of
/// absolute terms beside each gradient: a float kernel's rounding error is
/// bounded by a small multiple of that sum, a wrong or missing term is not.
struct NaiveGrads {
  std::vector<double> dw, dw_abs, db, db_abs, dx, dx_abs;
};

NaiveGrads naive_conv2d_backward(const Tensor& x, const Tensor& w,
                                 const Tensor& gout, const Conv2dGeometry& g) {
  const std::int64_t batch = x.dim(0);
  const std::int64_t filters = w.dim(0);
  NaiveGrads r;
  r.dw.assign(static_cast<std::size_t>(w.numel()), 0.0);
  r.dw_abs = r.dw;
  r.db.assign(static_cast<std::size_t>(filters), 0.0);
  r.db_abs = r.db;
  r.dx.assign(static_cast<std::size_t>(x.numel()), 0.0);
  r.dx_abs = r.dx;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t f = 0; f < filters; ++f) {
      for (std::int64_t y = 0; y < g.out_h(); ++y) {
        for (std::int64_t xo = 0; xo < g.out_w(); ++xo) {
          const double go = gout.at(n, f, y, xo);
          r.db[f] += go;
          r.db_abs[f] += std::abs(go);
          for (std::int64_t c = 0; c < g.in_channels; ++c) {
            for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
              for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
                const std::int64_t iy = y * g.stride + ky - g.padding;
                const std::int64_t ix = xo * g.stride + kx - g.padding;
                if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
                  continue;
                }
                const auto wi = static_cast<std::size_t>(
                    ((f * g.in_channels + c) * g.kernel + ky) * g.kernel + kx);
                const auto xi = static_cast<std::size_t>(
                    ((n * g.in_channels + c) * g.in_h + iy) * g.in_w + ix);
                const double tw = go * x.at(static_cast<std::int64_t>(xi));
                const double tx = go * w.at(static_cast<std::int64_t>(wi));
                r.dw[wi] += tw;
                r.dw_abs[wi] += std::abs(tw);
                r.dx[xi] += tx;
                r.dx_abs[xi] += std::abs(tx);
              }
            }
          }
        }
      }
    }
  }
  return r;
}

/// Every element of `got` within 1e-5 of its reference's absolute-term sum
/// (binary32 accumulation stays orders of magnitude inside that).
void expect_close(const Tensor& got, const std::vector<double>& ref,
                  const std::vector<double>& abs_sum, const char* what) {
  ASSERT_EQ(static_cast<std::size_t>(got.numel()), ref.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(got.at(static_cast<std::int64_t>(i)), ref[i],
                1e-5 * abs_sum[i] + 1e-6)
        << what << " element " << i;
  }
}

TEST_P(ConvParamTest, BackwardMatchesNaive) {
  const auto& p = GetParam();
  Rng rng(200 + p.kernel * 10 + p.stride);
  const Conv2dGeometry g{p.in_ch, p.h, p.w, p.kernel, p.stride, p.padding};
  const Tensor x = Tensor::normal(Shape{p.batch, p.in_ch, p.h, p.w}, rng);
  const Tensor w =
      Tensor::normal(Shape{p.filters, p.in_ch, p.kernel, p.kernel}, rng);
  const Tensor gout =
      Tensor::normal(Shape{p.batch, p.filters, g.out_h(), g.out_w()}, rng);
  // conv2d_backward accumulates into the weight and bias gradients, so
  // start them from seeded values rather than zero.
  const Tensor gw0 = Tensor::normal(w.shape(), rng);
  const Tensor gb0 = Tensor::normal(Shape{p.filters}, rng);
  NaiveGrads ref = naive_conv2d_backward(x, w, gout, g);
  for (std::size_t i = 0; i < ref.dw.size(); ++i) {
    ref.dw[i] += gw0.at(static_cast<std::int64_t>(i));
    ref.dw_abs[i] += std::abs(gw0.at(static_cast<std::int64_t>(i)));
  }
  for (std::size_t i = 0; i < ref.db.size(); ++i) {
    ref.db[i] += gb0.at(static_cast<std::int64_t>(i));
    ref.db_abs[i] += std::abs(gb0.at(static_cast<std::int64_t>(i)));
  }

  const std::string entering = backend().name();
  for (const std::string& name : backend_names()) {
    if (!find_backend(name)->supported()) {
      continue;
    }
    SCOPED_TRACE("backend " + name);
    set_backend(name);
    Tensor gw = gw0;
    Tensor gb = gb0;
    const Tensor gx = conv2d_backward(x, w, gout, g, gw, gb);
    expect_close(gw, ref.dw, ref.dw_abs, "dW");
    expect_close(gb, ref.db, ref.db_abs, "db");
    expect_close(gx, ref.dx, ref.dx_abs, "dX");
  }
  set_backend(entering);
}

// {batch, in_ch, h, w, filters, kernel, stride, padding}. The first seven
// are small enough that the weight-gradient GEMM takes the GEMV (one
// filter) or the unpacked small-volume path for some of them; the rest
// reach the packed microkernel.
INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvParamTest,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 1, 0},
                      ConvCase{2, 3, 8, 8, 4, 3, 1, 1},
                      ConvCase{1, 2, 9, 7, 3, 3, 2, 1},
                      ConvCase{2, 1, 6, 6, 2, 5, 1, 0},
                      ConvCase{1, 4, 8, 8, 8, 1, 1, 0},
                      ConvCase{3, 2, 12, 12, 5, 3, 2, 0},
                      ConvCase{1, 1, 4, 4, 1, 4, 4, 0},
                      // A partial chunk (9 samples in chunks of 2), C*k*k
                      // = 45 and out_h*out_w = 143: no multiple of 16 or 32.
                      ConvCase{9, 5, 11, 13, 10, 3, 1, 1},
                      // The CNN3 (width 0.5) training shapes.
                      ConvCase{2, 3, 32, 32, 12, 3, 1, 1},
                      ConvCase{2, 12, 16, 16, 8, 3, 1, 1},
                      ConvCase{2, 8, 8, 8, 7, 3, 1, 1},
                      // Stride 2 with padding, 3x3 and 1x1.
                      ConvCase{3, 4, 15, 15, 6, 3, 2, 1},
                      ConvCase{2, 6, 9, 9, 5, 1, 2, 0}));

TEST(ConvOpsTest, Im2ColRoundTripShape) {
  Rng rng(7);
  const Conv2dGeometry g{2, 6, 6, 3, 1, 1};
  const Tensor x = Tensor::normal(Shape{2, 6, 6}, rng);
  Tensor cols(Shape{2 * 9, g.out_h() * g.out_w()});
  im2col(x.data(), g, cols.data());
  // col2im of ones-scatter: every input position receives as many
  // contributions as windows covering it (spot-check center > corner).
  Tensor grad(Shape{2, 6, 6});
  Tensor ones(cols.shape(), 1.0f);
  col2im(ones.data(), g, grad.data());
  EXPECT_GT(grad.at(0 * 36 + 3 * 6 + 3), grad.at(0));
}

TEST(ConvOpsTest, Im2ColMatchesDirectIndexingForFloatAndInt8) {
  // im2col copies rows out of a zero-padded plane; for float and for the
  // device's int8 it must equal the per-element definition, including
  // strides, padding wider than the window reach, and unpadded layers.
  for (const Conv2dGeometry& g :
       {Conv2dGeometry{2, 6, 6, 3, 1, 1}, Conv2dGeometry{3, 7, 5, 3, 2, 1},
        Conv2dGeometry{1, 5, 5, 5, 1, 2}, Conv2dGeometry{2, 4, 4, 1, 1, 0},
        Conv2dGeometry{3, 9, 9, 3, 2, 0}, Conv2dGeometry{1, 3, 3, 3, 1, 2},
        Conv2dGeometry{2, 11, 13, 3, 1, 1}}) {
    const std::int64_t rows = g.in_channels * g.kernel * g.kernel;
    const std::int64_t n = g.out_h() * g.out_w();
    Rng rng(static_cast<std::uint64_t>(g.in_h * 100 + g.in_w));
    const Tensor x = Tensor::normal(Shape{g.in_channels, g.in_h, g.in_w}, rng);
    std::vector<std::int8_t> xq(static_cast<std::size_t>(x.numel()));
    for (std::size_t i = 0; i < xq.size(); ++i) {
      xq[i] = static_cast<std::int8_t>(i * 37 % 251 - 125);
    }
    Tensor cols(Shape{rows, n});
    std::vector<std::int8_t> qcols(static_cast<std::size_t>(rows * n), 99);
    im2col(x.data(), g, cols.data());
    im2col(xq.data(), g, qcols.data());
    for (std::int64_t c = 0; c < g.in_channels; ++c) {
      for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
        for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
          const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
          for (std::int64_t y = 0; y < g.out_h(); ++y) {
            for (std::int64_t xo = 0; xo < g.out_w(); ++xo) {
              const std::int64_t iy = y * g.stride + ky - g.padding;
              const std::int64_t ix = xo * g.stride + kx - g.padding;
              const bool inside =
                  iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
              const std::int64_t src = (c * g.in_h + iy) * g.in_w + ix;
              const std::int64_t at = row * n + y * g.out_w() + xo;
              ASSERT_EQ(cols.data()[at], inside ? x.data()[src] : 0.0f);
              ASSERT_EQ(qcols[static_cast<std::size_t>(at)],
                        inside ? xq[static_cast<std::size_t>(src)] : 0);
            }
          }
        }
      }
    }
  }
}

TEST(ConvOpsTest, ConvBackwardMatchesNumericGradient) {
  Rng rng(21);
  const Conv2dGeometry g{2, 5, 5, 3, 1, 1};
  const Tensor x = Tensor::normal(Shape{2, 2, 5, 5}, rng);
  const Tensor w = Tensor::normal(Shape{3, 2, 3, 3}, rng, 0.0f, 0.5f);
  const Tensor b = Tensor::normal(Shape{3}, rng);

  // Scalar objective: sum of outputs => grad_out = ones.
  const Tensor out = conv2d_forward(x, w, b, g);
  Tensor grad_out(out.shape(), 1.0f);
  Tensor gw(w.shape());
  Tensor gb(b.shape());
  const Tensor gx = conv2d_backward(x, w, grad_out, g, gw, gb);

  const double eps = 1e-2;
  // check a sample of weight coordinates
  for (const std::int64_t idx : {0L, 7L, 23L, 53L}) {
    Tensor wp = w;
    wp.at(idx) += static_cast<float>(eps);
    Tensor wm = w;
    wm.at(idx) -= static_cast<float>(eps);
    const double num =
        (conv2d_forward(x, wp, b, g).sum() -
         conv2d_forward(x, wm, b, g).sum()) /
        (2 * eps);
    EXPECT_NEAR(gw.at(idx), num, 2e-2) << "weight coord " << idx;
  }
  // check a sample of input coordinates
  for (const std::int64_t idx : {0L, 17L, 49L, 99L}) {
    Tensor xp = x;
    xp.at(idx) += static_cast<float>(eps);
    Tensor xm = x;
    xm.at(idx) -= static_cast<float>(eps);
    const double num = (conv2d_forward(xp, w, b, g).sum() -
                        conv2d_forward(xm, w, b, g).sum()) /
                       (2 * eps);
    EXPECT_NEAR(gx.at(idx), num, 2e-2) << "input coord " << idx;
  }
  // bias gradient of a sum objective is the output plane size per filter
  const float plane = static_cast<float>(2 * g.out_h() * g.out_w());
  for (std::int64_t f = 0; f < 3; ++f) {
    EXPECT_NEAR(gb.at(f), plane, 1e-3);
  }
}

TEST(ConvOpsTest, GeometryMismatchThrows) {
  const Conv2dGeometry g{2, 5, 5, 3, 1, 1};
  Tensor x(Shape{1, 3, 5, 5});  // wrong channels
  Tensor w(Shape{3, 2, 3, 3});
  Tensor b(Shape{3});
  EXPECT_THROW(conv2d_forward(x, w, b, g), InvariantError);
}

TEST(ConvOpsTest, BiaslessConv) {
  Rng rng(5);
  const Conv2dGeometry g{1, 4, 4, 3, 1, 0};
  const Tensor x = Tensor::normal(Shape{1, 1, 4, 4}, rng);
  const Tensor w = Tensor::normal(Shape{2, 1, 3, 3}, rng);
  const Tensor out = conv2d_forward(x, w, Tensor(), g);
  const Tensor ref = naive_conv2d(x, w, Tensor(), g);
  EXPECT_TRUE(out.allclose(ref, 1e-4f, 1e-4f));
}

}  // namespace
}  // namespace hpnn::ops
