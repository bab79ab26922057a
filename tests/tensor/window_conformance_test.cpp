// Window conformance (DESIGN §15): every registered backend's kLeft
// prepared-weights GEMM reads a stride-1 convolution straight from the
// zero-bordered int8 input plane through a core::I8Window. Its output must
// be bit-identical to the scalar reference on that input's im2col matrix,
// to the scalar tier's own window kernel, and to the same backend's dense
// call (the one-run window over the im2col matrix).
#include <gtest/gtest.h>

#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/compute_backend.hpp"
#include "core/rng.hpp"
#include "tensor/backend.hpp"
#include "tensor/backends/micro_common.hpp"
#include "tensor/ops.hpp"

namespace hpnn {
namespace {

/// A stride-1 convolution: `filters` filters of `channels` x kernel² over
/// an input padded by `pad`, sized so the output is out_h x out_w.
struct WindowCase {
  std::int64_t channels;
  std::int64_t out_h;
  std::int64_t out_w;
  std::int64_t kernel;
  std::int64_t pad;
  std::int64_t filters;

  ops::Conv2dGeometry geometry() const {
    ops::Conv2dGeometry g;
    g.in_channels = channels;
    g.in_h = out_h + kernel - 1 - 2 * pad;
    g.in_w = out_w + kernel - 1 - 2 * pad;
    g.kernel = kernel;
    g.stride = 1;
    g.padding = pad;
    return g;
  }
};

std::string case_name(const WindowCase& c) {
  std::ostringstream os;
  os << "c" << c.channels << "_h" << c.out_h << "_w" << c.out_w << "_k"
     << c.kernel << "_p" << c.pad << "_f" << c.filters;
  return os.str();
}

// Output widths 32, 16, 8, 4, 2, 1, 13 and 24 (whole vectors inside one
// run, vectors assembled from 2, 4, 8 and 16 runs, and runs that straddle
// vectors unevenly); padding 0, 1 and 2; kernels 1, 3 and 5; odd and even
// C·k²; 1-13 filters, so every filter-block remainder of every tier runs.
const WindowCase kCases[] = {
    {3, 32, 32, 3, 1, 12},  // CNN3 conv1 at 32 px: C·k² 27
    {12, 16, 16, 3, 1, 8},  // CNN3 conv2: C·k² 108
    {8, 8, 8, 3, 1, 7},     // CNN3 conv3: C·k² 72
    {2, 9, 4, 5, 2, 13},    // C·k² 50
    {3, 20, 2, 1, 0, 5},    // C·k² 3
    {1, 37, 1, 3, 1, 3},    // C·k² 9
    {5, 7, 13, 3, 0, 9},    // C·k² 45
    {4, 5, 24, 5, 2, 11},   // C·k² 100
    {6, 3, 32, 1, 0, 10},   // C·k² 6
    {2, 4, 16, 5, 0, 1},    // C·k² 50
    {7, 4, 8, 1, 1, 2},     // a 1x1 kernel over a padded plane: C·k² 7
    {3, 3, 24, 3, 1, 4},    // C·k² 27
    {2, 13, 13, 5, 2, 6},   // C·k² 50
};

// gtest prints a parameter in listings and failure messages.
void PrintTo(const WindowCase& c, std::ostream* os) { *os << case_name(c); }

std::vector<std::string> supported_backends() {
  std::vector<std::string> names;
  for (const auto& name : ops::backend_names()) {
    if (ops::find_backend(name)->supported()) {
      names.push_back(name);
    }
  }
  return names;
}

/// One conv's operands: the input, its zero-bordered plane with the
/// window over it, its im2col matrix, the weights and key bits.
struct ConvOperands {
  ops::Conv2dGeometry g;
  std::int64_t filters = 0;
  std::int64_t ckk = 0;
  std::int64_t n = 0;
  std::vector<std::int8_t> input;    // [C, H, W]
  std::vector<std::int8_t> plane;    // [C, H + 2p, W + 2p], exactly sized
  std::vector<std::int64_t> offsets;
  std::vector<std::int8_t> cols;     // [C·k², out_h · out_w]
  std::vector<std::int8_t> weights;  // [filters, C·k²]
  std::vector<std::uint8_t> negate;  // [filters, out_h · out_w]

  ConvOperands(const WindowCase& c, std::uint64_t seed) {
    g = c.geometry();
    filters = c.filters;
    ckk = c.channels * c.kernel * c.kernel;
    n = c.out_h * c.out_w;
    Rng rng(seed);
    const auto byte = [&rng] { return static_cast<std::int8_t>(rng() & 0xFF); };
    input.resize(static_cast<std::size_t>(c.channels * g.in_h * g.in_w));
    for (auto& v : input) {
      v = byte();
    }
    weights.resize(static_cast<std::size_t>(filters * ckk));
    for (auto& v : weights) {
      v = byte();
    }
    negate.resize(static_cast<std::size_t>(filters * n));
    for (auto& v : negate) {
      // Any non-zero byte means "negate", not only 1.
      const auto r = rng() % 4;
      v = r == 0 ? 0 : r == 1 ? 1 : r == 2 ? 0x80 : 0xFF;
    }
    build();
  }

  /// Fills the plane, offsets and im2col matrix from `input`.
  void build() {
    const std::int64_t hp = g.in_h + 2 * g.padding;
    const std::int64_t wp = g.in_w + 2 * g.padding;
    plane.assign(static_cast<std::size_t>(g.in_channels * hp * wp), 0);
    for (std::int64_t ch = 0; ch < g.in_channels; ++ch) {
      for (std::int64_t y = 0; y < g.in_h; ++y) {
        for (std::int64_t x = 0; x < g.in_w; ++x) {
          plane[static_cast<std::size_t>((ch * hp + y + g.padding) * wp + x +
                                         g.padding)] =
              input[static_cast<std::size_t>((ch * g.in_h + y) * g.in_w + x)];
        }
      }
    }
    offsets.clear();
    for (std::int64_t ch = 0; ch < g.in_channels; ++ch) {
      for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
        for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
          offsets.push_back((ch * hp + ky) * wp + kx);
        }
      }
    }
    cols.resize(static_cast<std::size_t>(ckk * n));
    ops::im2col(input.data(), g, cols.data());
  }

  core::I8Window window() const {
    return {plane.data(), plane.size(), n, offsets.data(), g.out_w(),
            g.in_w + 2 * g.padding};
  }

  /// The scalar reference on the im2col matrix.
  std::vector<std::int32_t> reference(const std::uint8_t* neg) const {
    std::vector<std::int32_t> out(static_cast<std::size_t>(filters * n));
    ops::backends::matmul_i8_reference(weights.data(), filters, ckk,
                                       cols.data(), n, neg, out.data());
    return out;
  }
};

std::vector<std::int32_t> window_product(const core::ComputeBackend& be,
                                         const ConvOperands& op,
                                         const core::I8Window& x,
                                         const std::uint8_t* neg) {
  const core::PreparedI8 w = be.prepare_i8(
      op.weights.data(), op.filters, op.ckk, core::PreparedI8::Side::kLeft);
  std::vector<std::int32_t> out(static_cast<std::size_t>(op.filters * op.n));
  be.matmul_i8_prepared(w, x, neg, out.data());
  return out;
}

class WindowConformanceTest
    : public ::testing::TestWithParam<std::tuple<std::string, WindowCase>> {};

TEST_P(WindowConformanceTest, BitIdenticalToScalarAndToDenseIm2col) {
  const auto& [name, c] = GetParam();
  const core::ComputeBackend& be = *ops::find_backend(name);
  const core::ComputeBackend& scalar = *ops::find_backend("scalar");
  const ConvOperands op(c, static_cast<std::uint64_t>(
                               c.channels * 1000003 + c.out_w * 1009 +
                               c.kernel * 101 + c.filters));
  const core::I8Window window = op.window();
  ASSERT_TRUE(core::window_fits(window, op.ckk));
  const std::vector<std::int64_t> dense_offsets =
      core::dense_window_offsets(op.ckk, op.n);
  const core::I8Window dense{op.cols.data(), op.cols.size(), op.n,
                             dense_offsets.data(), op.n, op.n};
  for (const std::uint8_t* neg : {static_cast<const std::uint8_t*>(nullptr),
                                  op.negate.data()}) {
    SCOPED_TRACE(neg == nullptr ? "unlocked" : "keyed negation");
    const auto want = op.reference(neg);
    EXPECT_EQ(window_product(be, op, window, neg), want);
    EXPECT_EQ(window_product(be, op, dense, neg), want);
    EXPECT_EQ(window_product(scalar, op, window, neg), want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WindowConformanceTest,
    ::testing::Combine(::testing::ValuesIn(supported_backends()),
                       ::testing::ValuesIn(kCases)),
    [](const auto& info) {
      std::ostringstream os;
      os << std::get<0>(info.param) << "_"
         << case_name(std::get<1>(info.param));
      return os.str();
    });

class WindowEdgeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WindowEdgeTest, SaturatedOperandsBitIdentical) {
  // ±127 and -128 activations and weights maximize every int16 pair sum
  // the SIMD tiers form, with the zero border mixed into the same vectors.
  const core::ComputeBackend& be = *ops::find_backend(GetParam());
  for (const WindowCase& c : {WindowCase{3, 8, 8, 3, 1, 9},
                              WindowCase{2, 6, 24, 5, 2, 5}}) {
    for (const auto& [av, wv] :
         {std::pair{-128, -128}, std::pair{-128, 127}, std::pair{127, 127},
          std::pair{127, -128}}) {
      ConvOperands op(c, 1);
      op.input.assign(op.input.size(), static_cast<std::int8_t>(av));
      op.weights.assign(op.weights.size(), static_cast<std::int8_t>(wv));
      op.build();
      EXPECT_EQ(window_product(be, op, op.window(), op.negate.data()),
                op.reference(op.negate.data()))
          << case_name(c) << ": " << av << " x " << wv;
    }
  }
}

TEST_P(WindowEdgeTest, NegationWrapsAtInt32Min) {
  // 2^17 channels of a 1x1 kernel: 2^17 products of (-128)^2 = 2^14 sum to
  // 2^31, which wraps to INT32_MIN; its negation is INT32_MIN again. Width
  // 8 puts two runs in every 16-column vector.
  const core::ComputeBackend& be = *ops::find_backend(GetParam());
  ConvOperands op(WindowCase{std::int64_t{1} << 17, 2, 8, 1, 0, 9}, 2);
  op.input.assign(op.input.size(), std::int8_t{-128});
  op.weights.assign(op.weights.size(), std::int8_t{-128});
  op.negate.assign(op.negate.size(), 1);
  op.build();
  const auto got = window_product(be, op, op.window(), op.negate.data());
  EXPECT_EQ(got, op.reference(op.negate.data()));
  EXPECT_EQ(got.front(), std::numeric_limits<std::int32_t>::min());
}

TEST(WindowFitsTest, RejectsWindowsReachingOutsideTheOperand) {
  const ConvOperands op(WindowCase{2, 4, 8, 3, 1, 3}, 3);
  core::I8Window x = op.window();
  EXPECT_TRUE(core::window_fits(x, op.ckk));
  x.size -= 1;  // the last row's last run now ends one byte past the plane
  EXPECT_FALSE(core::window_fits(x, op.ckk));
  x = op.window();
  std::vector<std::int64_t> offsets = op.offsets;
  offsets[1] = -1;
  x.offsets = offsets.data();
  EXPECT_FALSE(core::window_fits(x, op.ckk));
  x = op.window();
  x.width = 3;  // does not divide the extent
  EXPECT_FALSE(core::window_fits(x, op.ckk));
  x = op.window();
  x.pitch = x.width - 1;  // runs would overlap
  EXPECT_FALSE(core::window_fits(x, op.ckk));
}

INSTANTIATE_TEST_SUITE_P(Backends, WindowEdgeTest,
                         ::testing::ValuesIn(supported_backends()),
                         [](const auto& info) { return info.param; });

// The AVX-512 kLeft kernel groups k rows in fours and biases every
// activation byte by 128 (cancelled per filter at store), so the k tail
// and the bias are checked at C·k² ≡ 0 and 1 (mod 4); SaturatedOperands
// covers 2 and 3. Output widths 12, 20 and 24 make the 16-column vectors
// straddle runs, and 5 and 13 filters leave partial filter blocks.
const WindowCase kQuadTailCases[] = {
    {4, 3, 12, 3, 1, 5},   // C·k² 36
    {16, 2, 20, 1, 0, 4},  // C·k² 16, a 1x1 kernel
    {1, 5, 20, 3, 1, 13},  // C·k² 9
    {1, 3, 24, 5, 2, 2},   // C·k² 25
};

class WindowQuadTailTest
    : public ::testing::TestWithParam<std::tuple<std::string, WindowCase>> {};

TEST_P(WindowQuadTailTest, BiasedOperandBitIdentical) {
  const auto& [name, c] = GetParam();
  const core::ComputeBackend& be = *ops::find_backend(name);
  // Random operands, then ±127 and -128 everywhere: -128 biases to 0 and
  // 127 to 255, the ends of the u8 range, against the zero border's 128.
  const ConvOperands random(
      c, static_cast<std::uint64_t>(c.channels * 31 + c.out_w * 7 +
                                    c.filters));
  for (const std::uint8_t* neg :
       {static_cast<const std::uint8_t*>(nullptr), random.negate.data()}) {
    EXPECT_EQ(window_product(be, random, random.window(), neg),
              random.reference(neg))
        << (neg == nullptr ? "unlocked" : "keyed negation");
  }
  for (const auto& [av, wv] :
       {std::pair{-128, -128}, std::pair{-128, 127}, std::pair{127, 127},
        std::pair{127, -128}}) {
    ConvOperands op(c, 1);
    op.input.assign(op.input.size(), static_cast<std::int8_t>(av));
    op.weights.assign(op.weights.size(), static_cast<std::int8_t>(wv));
    op.build();
    EXPECT_EQ(window_product(be, op, op.window(), op.negate.data()),
              op.reference(op.negate.data()))
        << av << " x " << wv;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WindowQuadTailTest,
    ::testing::Combine(::testing::ValuesIn(supported_backends()),
                       ::testing::ValuesIn(kQuadTailCases)),
    [](const auto& info) {
      std::ostringstream os;
      os << std::get<0>(info.param) << "_"
         << case_name(std::get<1>(info.param));
      return os.str();
    });

}  // namespace
}  // namespace hpnn
