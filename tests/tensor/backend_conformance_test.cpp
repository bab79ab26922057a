// Cross-backend conformance kit (DESIGN §15): every registered
// ComputeBackend must uphold the same contracts, verified here by running
// the identical workload under each supported backend and comparing
// against the scalar reference.
//
// The contracts, in order of strictness:
//   - int8 MMU datapath: bit-identical across ALL backends (32-bit
//     wrap-around accumulation is modular, so evaluation order is free);
//   - locked-ReLU gradient: bit-identical across ALL backends (the ±1
//     lock multiply is exact in every vector width — Theorem 1);
//   - single-rounding elementwise ops (relu, mask, mul, add_scalar):
//     bit-identical across ALL backends;
//   - any fixed backend: bit-identical at any HPNN_THREADS setting;
//   - float GEMM / conv: equal to the scalar reference within documented
//     rounding tolerance (FMA and tile-width reduction order may differ).
//
// Mirrors the LockScheme conformance kit pattern: TEST_P over the runtime
// registry, so an out-of-tree backend registered before main() is swept by
// the same suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include "core/aligned_buffer.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "hpnn/calibration.hpp"
#include "hpnn/owner.hpp"
#include "hw/device.hpp"
#include "hw/mmu.hpp"
#include "tensor/backend.hpp"
#include "tensor/backends/micro_common.hpp"
#include "tensor/ops.hpp"

namespace hpnn {
namespace {

std::vector<std::string> supported_backends() {
  std::vector<std::string> names;
  for (const auto& name : ops::backend_names()) {
    if (ops::find_backend(name)->supported()) {
      names.push_back(name);
    }
  }
  return names;
}

/// Restores the entering backend and thread count on scope exit, so a
/// failing TEST_P cannot leak its selection into later suites.
class StateRestorer {
 public:
  StateRestorer()
      : backend_(ops::backend().name()), threads_(core::thread_count()) {}
  ~StateRestorer() {
    ops::set_backend(backend_);
    core::set_thread_count(threads_);
  }

 private:
  std::string backend_;
  int threads_;
};

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::normal(shape, rng, 0.0f, 1.0f);
}

/// Elementwise comparison with a tolerance scaled to the reduction depth:
/// k float additions accumulate at most ~k ulps of drift between two
/// evaluation orders.
void expect_close(const Tensor& got, const Tensor& want, std::int64_t k,
                  const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  const float tol =
      1e-5f * static_cast<float>(k > 0 ? k : 1);
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const float scale = std::max(1.0f, std::abs(want.data()[i]));
    ASSERT_NEAR(got.data()[i], want.data()[i], tol * scale)
        << what << " at flat index " << i;
  }
}

class BackendConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  StateRestorer restore_;
};

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendConformanceTest,
    ::testing::ValuesIn(supported_backends()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ---- float GEMM: tolerance vs scalar, bit-stability vs threads ---------

TEST_P(BackendConformanceTest, GemmMatchesScalarWithinTolerance) {
  struct Case {
    std::int64_t m, k, n;
  };
  for (const Case& c : {Case{1, 64, 33},    // gemv path
                        Case{7, 33, 19},    // edge tiles everywhere
                        Case{24, 32, 64},   // full tiles for 6x16 and 8x32
                        Case{48, 80, 40}}) {
    const Tensor a = random_tensor(Shape{c.m, c.k}, 11 + c.m);
    const Tensor b = random_tensor(Shape{c.k, c.n}, 23 + c.n);
    ops::set_backend("scalar");
    const Tensor want = ops::matmul(a, b);
    ops::set_backend(GetParam());
    const Tensor got = ops::matmul(a, b);
    expect_close(got, want, c.k, "gemm " + GetParam());
  }
}

TEST_P(BackendConformanceTest, GemmTransposedOperandsMatchScalar) {
  const std::int64_t m = 17, k = 29, n = 35;
  const Tensor at = random_tensor(Shape{k, m}, 31);
  const Tensor bt = random_tensor(Shape{n, k}, 37);
  ops::set_backend("scalar");
  const Tensor want = ops::matmul(at, bt, ops::Trans::kYes, ops::Trans::kYes);
  ops::set_backend(GetParam());
  const Tensor got = ops::matmul(at, bt, ops::Trans::kYes, ops::Trans::kYes);
  expect_close(got, want, k, "gemm^T " + GetParam());
}

TEST_P(BackendConformanceTest, ThreadCountDoesNotChangeGemmBits) {
  ops::set_backend(GetParam());
  const Tensor a = random_tensor(Shape{53, 67}, 41);
  const Tensor b = random_tensor(Shape{67, 71}, 43);
  core::set_thread_count(1);
  const Tensor want = ops::matmul(a, b);
  for (int threads : {2, 3, 8}) {
    core::set_thread_count(threads);
    const Tensor got = ops::matmul(a, b);
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                             sizeof(float) * static_cast<std::size_t>(
                                                 got.numel())))
        << GetParam() << " GEMM bits changed at " << threads << " threads";
  }
}

// ---- elementwise ops ---------------------------------------------------

TEST_P(BackendConformanceTest, SingleRoundingElementwiseOpsBitExact) {
  const core::ComputeBackend& scalar = *ops::find_backend("scalar");
  const core::ComputeBackend& be = *ops::find_backend(GetParam());
  // Lengths straddle every lane-width remainder (8 for AVX2, 16 for
  // AVX-512).
  for (std::int64_t n : {1, 7, 8, 15, 16, 17, 63, 100}) {
    const Tensor x = random_tensor(Shape{n}, 53 + n);
    const Tensor b = random_tensor(Shape{n}, 59 + n);
    Tensor want(Shape{n}), got(Shape{n});

    scalar.relu(x.data(), want.data(), n);
    be.relu(x.data(), got.data(), n);
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(), sizeof(float) * n))
        << "relu n=" << n;

    scalar.mul(x.data(), b.data(), want.data(), n);
    be.mul(x.data(), b.data(), got.data(), n);
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(), sizeof(float) * n))
        << "mul n=" << n;

    std::memcpy(want.data(), b.data(), sizeof(float) * n);
    std::memcpy(got.data(), b.data(), sizeof(float) * n);
    scalar.relu_mask(x.data(), want.data(), n);
    be.relu_mask(x.data(), got.data(), n);
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(), sizeof(float) * n))
        << "relu_mask n=" << n;

    std::memcpy(want.data(), b.data(), sizeof(float) * n);
    std::memcpy(got.data(), b.data(), sizeof(float) * n);
    scalar.add_scalar(0.375f, want.data(), n);
    be.add_scalar(0.375f, got.data(), n);
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(), sizeof(float) * n))
        << "add_scalar n=" << n;
  }
}

TEST_P(BackendConformanceTest, AxpyAndDotWithinTolerance) {
  const core::ComputeBackend& scalar = *ops::find_backend("scalar");
  const core::ComputeBackend& be = *ops::find_backend(GetParam());
  for (std::int64_t n : {1, 17, 100, 1000}) {
    const Tensor x = random_tensor(Shape{n}, 61 + n);
    const Tensor y0 = random_tensor(Shape{n}, 67 + n);
    Tensor want(Shape{n}), got(Shape{n});
    std::memcpy(want.data(), y0.data(), sizeof(float) * n);
    std::memcpy(got.data(), y0.data(), sizeof(float) * n);
    scalar.axpy(0.25f, x.data(), want.data(), n);
    be.axpy(0.25f, x.data(), got.data(), n);
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_NEAR(got.data()[i], want.data()[i],
                  1e-5f * std::max(1.0f, std::abs(want.data()[i])))
          << "axpy n=" << n << " i=" << i;
    }
    const float dw = scalar.dot(x.data(), y0.data(), n);
    const float dg = be.dot(x.data(), y0.data(), n);
    ASSERT_NEAR(dg, dw, 1e-5f * static_cast<float>(n) *
                            std::max(1.0f, std::abs(dw)))
        << "dot n=" << n;
  }
}

TEST_P(BackendConformanceTest, LockedReluGradBitExact) {
  // Theorem-1 exactness: the lock factor is ±1, so g * lock is exact in
  // every vector width and the gradient must be bit-identical across
  // backends — not merely close.
  const core::ComputeBackend& scalar = *ops::find_backend("scalar");
  const core::ComputeBackend& be = *ops::find_backend(GetParam());
  for (std::int64_t n : {1, 15, 16, 33, 257}) {
    const Tensor g = random_tensor(Shape{n}, 71 + n);
    const Tensor z = random_tensor(Shape{n}, 73 + n);
    Tensor lock(Shape{n});
    Rng rng(79 + static_cast<std::uint64_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      lock.data()[i] = (rng() & 1) ? 1.0f : -1.0f;
    }
    Tensor want(Shape{n}), got(Shape{n});
    scalar.lock_relu_grad(g.data(), z.data(), lock.data(), want.data(), n);
    be.lock_relu_grad(g.data(), z.data(), lock.data(), got.data(), n);
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(), sizeof(float) * n))
        << "lock_relu_grad n=" << n;
  }
}

// ---- prepared-weights int8 GEMM, quantizer and drain -------------------

std::vector<std::int8_t> random_i8(std::int64_t count, Rng& rng) {
  std::vector<std::int8_t> v(static_cast<std::size_t>(count));
  for (auto& x : v) {
    x = static_cast<std::int8_t>(rng() & 0xFF);  // full range incl. -128
  }
  return v;
}

/// A[m, k] @ B[k, n] through `be`'s prepared path, with the weights on
/// `side` (kLeft: W = A, kRight: W = B).
std::vector<std::int32_t> prepared_product(
    const core::ComputeBackend& be, core::PreparedI8::Side side,
    const std::vector<std::int8_t>& a, const std::vector<std::int8_t>& b,
    std::int64_t m, std::int64_t k, std::int64_t n,
    const std::uint8_t* negate) {
  const bool left = side == core::PreparedI8::Side::kLeft;
  const core::PreparedI8 w = left ? be.prepare_i8(a.data(), m, k, side)
                                  : be.prepare_i8(b.data(), k, n, side);
  std::vector<std::int32_t> out(static_cast<std::size_t>(m * n));
  // kLeft reads B as the one-run window over the dense matrix.
  const std::vector<std::int64_t> offsets = core::dense_window_offsets(k, n);
  const core::I8Window x =
      left ? core::I8Window{b.data(), b.size(), n, offsets.data(), n, n}
           : core::I8Window{a.data(), a.size(), m};
  be.matmul_i8_prepared(w, x, negate, out.data());
  return out;
}

std::vector<std::int32_t> scalar_product(const std::vector<std::int8_t>& a,
                                         const std::vector<std::int8_t>& b,
                                         std::int64_t m, std::int64_t k,
                                         std::int64_t n,
                                         const std::uint8_t* negate) {
  std::vector<std::int32_t> out(static_cast<std::size_t>(m * n));
  ops::backends::matmul_i8_reference(a.data(), m, k, b.data(), n, negate,
                                     out.data());
  return out;
}

/// Negate bytes for `count` outputs; any non-zero byte means "negate", not
/// only 1.
std::vector<std::uint8_t> random_negate(std::int64_t count, Rng& rng) {
  std::vector<std::uint8_t> negate(static_cast<std::size_t>(count));
  for (auto& v : negate) {
    const auto r = rng() % 4;
    v = r == 0 ? 0 : r == 1 ? 1 : r == 2 ? 0x80 : 0xFF;
  }
  return negate;
}

/// hw::Mmu::matmul_i8 with `backend` active: the per-call weight layout
/// and the prepared kernel, the MMU's one fast datapath.
std::vector<std::int32_t> mmu_product(const std::string& backend,
                                      const std::vector<std::int8_t>& a,
                                      const std::vector<std::int8_t>& b,
                                      std::int64_t m, std::int64_t k,
                                      std::int64_t n,
                                      std::span<const std::uint8_t> negate) {
  ops::set_backend(backend);
  hw::Mmu mmu;
  std::vector<std::int32_t> out(static_cast<std::size_t>(m * n));
  mmu.matmul_i8(a, m, k, b, n, negate, out);
  return out;
}

struct GemmDims {
  std::int64_t m, k, n;
};

/// m x k x n shapes for both int8 entry points: odd n exercises the SIMD
/// column tails, k = 1 and odd k the zero-padded final weight pair.
constexpr GemmDims kListedShapes[] = {{1, 1, 1},  {3, 7, 5},   {5, 37, 19},
                                      {4, 64, 32}, {2, 9, 33}, {6, 128, 65}};

constexpr core::PreparedI8::Side kSides[] = {core::PreparedI8::Side::kLeft,
                                             core::PreparedI8::Side::kRight};

TEST_P(BackendConformanceTest, MatmulI8BitIdenticalToScalar) {
  // hw::Mmu::matmul_i8 on each backend.
  for (const auto& [m, k, n] : kListedShapes) {
    Rng rng(83 + static_cast<std::uint64_t>(m * 1000 + n));
    const auto a = random_i8(m * k, rng);
    const auto b = random_i8(k * n, rng);
    const auto negate = random_negate(m * n, rng);
    const std::string what =
        std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
    ASSERT_EQ(mmu_product(GetParam(), a, b, m, k, n, {}),
              scalar_product(a, b, m, k, n, nullptr))
        << what << " unlocked";
    ASSERT_EQ(mmu_product(GetParam(), a, b, m, k, n, negate),
              scalar_product(a, b, m, k, n, negate.data()))
        << what << " keyed negation";
  }
}

TEST_P(BackendConformanceTest, MatmulI8SaturatedOperandsBitIdentical) {
  // hw::Mmu::matmul_i8 on each backend with all-(-128) activations against
  // all-(+127) weights: the largest magnitude int16 pair sums the SIMD
  // tiers form with these signs.
  const std::int64_t m = 2, k = 300, n = 17;
  const std::vector<std::int8_t> a(m * k, -128), b(k * n, 127);
  EXPECT_EQ(mmu_product(GetParam(), a, b, m, k, n, {}),
            scalar_product(a, b, m, k, n, nullptr));
}

TEST_P(BackendConformanceTest, MatmulI8PreparedBitIdenticalToScalar) {
  const core::ComputeBackend& be = *ops::find_backend(GetParam());
  // Odd k exercises the zero-padded final weight pair; n in {1, 15, 17,
  // 1023} the 8/16/32-column tiles and their scalar tails; m = 5, 9, 13
  // leaves a partial filter block on every tier. The listed shapes add
  // k = 64 and 128 and n = 5, 19, 32, 33 and 65.
  std::vector<GemmDims> shapes(std::begin(kListedShapes),
                               std::end(kListedShapes));
  for (const std::int64_t m : {1, 5, 9, 13}) {
    for (const std::int64_t k : {1, 3, 27, 37}) {
      for (const std::int64_t n : {1, 15, 17, 1023}) {
        shapes.push_back({m, k, n});
      }
    }
  }
  for (const auto side : kSides) {
    for (const auto& [m, k, n] : shapes) {
      Rng rng(static_cast<std::uint64_t>(m * 100000 + k * 1000 + n));
      const auto a = random_i8(m * k, rng);
      const auto b = random_i8(k * n, rng);
      const auto negate = random_negate(m * n, rng);
      const std::string what =
          std::string(side == kSides[0] ? "left" : "right") + " " +
          std::to_string(m) + "x" + std::to_string(k) + "x" +
          std::to_string(n);
      ASSERT_EQ(prepared_product(be, side, a, b, m, k, n, nullptr),
                scalar_product(a, b, m, k, n, nullptr))
          << what << " unlocked";
      ASSERT_EQ(prepared_product(be, side, a, b, m, k, n, negate.data()),
                scalar_product(a, b, m, k, n, negate.data()))
          << what << " keyed negation";
    }
  }
}

TEST_P(BackendConformanceTest, MatmulI8PreparedSaturatedOperandsBitIdentical) {
  // ±127 and -128 operands maximize every pairwise int16 sum the SIMD
  // tiers form (-128 * -128 twice is 2^15, one past INT16_MAX).
  const core::ComputeBackend& be = *ops::find_backend(GetParam());
  const std::int64_t m = 9, k = 301, n = 17;
  for (const auto side : kSides) {
    for (const auto& [av, bv] : {std::pair{-128, -128}, std::pair{-128, 127},
                                std::pair{127, 127}, std::pair{127, -128}}) {
      const std::vector<std::int8_t> a(m * k, static_cast<std::int8_t>(av));
      const std::vector<std::int8_t> b(k * n, static_cast<std::int8_t>(bv));
      EXPECT_EQ(prepared_product(be, side, a, b, m, k, n, nullptr),
                scalar_product(a, b, m, k, n, nullptr))
          << av << " x " << bv;
    }
  }
}

TEST_P(BackendConformanceTest, MatmulI8PreparedNegationWrapsAtInt32Min) {
  // 2^17 products of (-128)^2 = 2^14 sum to 2^31, which wraps to INT32_MIN;
  // its two's-complement negation is INT32_MIN again.
  const core::ComputeBackend& be = *ops::find_backend(GetParam());
  const std::int64_t m = 9, k = std::int64_t{1} << 17, n = 17;
  const std::vector<std::int8_t> a(m * k, -128), b(k * n, -128);
  const std::vector<std::uint8_t> negate(m * n, 1);
  for (const auto side : kSides) {
    const auto got = prepared_product(be, side, a, b, m, k, n, negate.data());
    EXPECT_EQ(got, scalar_product(a, b, m, k, n, negate.data()));
    EXPECT_EQ(got.front(), std::numeric_limits<std::int32_t>::min());
  }
}

TEST_P(BackendConformanceTest, QuantizeI8BitIdenticalToScalar) {
  const core::ComputeBackend& scalar = *ops::find_backend("scalar");
  const core::ComputeBackend& be = *ops::find_backend(GetParam());
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Ties round half to even; out-of-range values and infinities saturate;
  // NaN quantizes to 0.
  const std::vector<std::pair<float, int>> pinned = {
      {0.5f, 0},     {1.5f, 2},       {2.5f, 2},    {-0.5f, 0},
      {-1.5f, -2},   {-2.5f, -2},     {126.5f, 126}, {-126.5f, -126},
      {127.49f, 127}, {127.5f, 127},  {128.0f, 127}, {-128.0f, -127},
      {1e30f, 127},  {-1e30f, -127},  {inf, 127},   {-inf, -127},
      {nan, 0},      {-nan, 0},       {-0.0f, 0},   {1e-45f, 0}};
  std::vector<float> special;
  for (const auto& [x, q] : pinned) {
    special.push_back(x);
  }
  for (const core::ComputeBackend* tier : {&scalar, &be}) {
    std::vector<std::int8_t> q(special.size());
    tier->quantize_i8(special.data(), static_cast<std::int64_t>(q.size()),
                      1.0f, q.data());
    for (std::size_t i = 0; i < pinned.size(); ++i) {
      EXPECT_EQ(q[i], pinned[i].second)
          << tier->name() << " quantizes " << pinned[i].first;
    }
  }
  // Every length through the SIMD bodies and tails, specials sprinkled in.
  Rng rng(211);
  std::vector<std::int64_t> lengths;
  for (std::int64_t n = 0; n <= 70; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(1023);
  for (const std::int64_t len : lengths) {
    std::vector<float> x(static_cast<std::size_t>(len));
    for (auto& v : x) {
      v = static_cast<float>(rng.normal(0.0, 4.0));
    }
    for (std::size_t i = 0; i < x.size(); i += 7) {
      x[i] = special[i % special.size()];
    }
    std::vector<std::int8_t> want(x.size()), got(x.size());
    scalar.quantize_i8(x.data(), len, 1.0f / 0.037f, want.data());
    be.quantize_i8(x.data(), len, 1.0f / 0.037f, got.data());
    ASSERT_EQ(got, want) << "length " << len;
  }
}

TEST_P(BackendConformanceTest, DrainI32BitIdenticalToScalarWithoutFma) {
  const core::ComputeBackend& scalar = *ops::find_backend("scalar");
  const core::ComputeBackend& be = *ops::find_backend(GetParam());
  // A fused multiply-add would round once: 3 * fl(1/3) is 1 + 2^-25
  // exactly, which rounds to 1 before the add, so mul-then-add gives 0
  // and an FMA gives 2^-25. Long enough for a vectorized loop body.
  {
    const std::int64_t n = 64;
    const std::vector<std::int32_t> acc(n, 3);
    const std::vector<float> bias(n, -1.0f);
    std::vector<float> y(n, 1.0f);
    be.drain_i32(acc.data(), n, 1.0f / 3.0f, bias.data(), false, y.data());
    for (const float v : y) {
      ASSERT_EQ(v, 0.0f) << "drain contracted into a fused multiply-add";
    }
  }
  Rng rng(223);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const std::int64_t n : {1, 7, 8, 15, 16, 17, 33, 1000}) {
    std::vector<std::int32_t> acc(static_cast<std::size_t>(n));
    std::vector<float> bias(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc[i] = static_cast<std::int32_t>(rng());
      bias[i] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    acc[0] = std::numeric_limits<std::int32_t>::min();
    acc[acc.size() / 2] = 0;
    bias[acc.size() / 2] = -0.0f;  // relu must keep -0 (std::max)
    bias[acc.size() - 1] = nan;    // and pass NaN through
    for (const float scale : {0.0123f, -0.5f}) {
      for (const bool relu : {false, true}) {
        std::vector<float> want(acc.size()), got(acc.size());
        scalar.drain_i32(acc.data(), n, scale, bias.data(), relu, want.data());
        be.drain_i32(acc.data(), n, scale, bias.data(), relu, got.data());
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                 sizeof(float) * acc.size()))
            << "n=" << n << " scale=" << scale << " relu=" << relu;
      }
    }
  }
}

/// The requantizing drain's reference: scalar drain_i32, then scalar
/// quantize_i8 of its output.
std::vector<std::int8_t> drain_then_quantize(
    const std::vector<std::int32_t>& acc, float scale,
    const std::vector<float>& bias, bool relu, float inv_scale) {
  const core::ComputeBackend& scalar = *ops::find_backend("scalar");
  const auto n = static_cast<std::int64_t>(acc.size());
  std::vector<float> y(acc.size());
  scalar.drain_i32(acc.data(), n, scale, bias.data(), relu, y.data());
  std::vector<std::int8_t> q(acc.size());
  scalar.quantize_i8(y.data(), n, inv_scale, q.data());
  return q;
}

std::vector<std::int8_t> drain_i8(const core::ComputeBackend& be,
                                  const std::vector<std::int32_t>& acc,
                                  float scale, const std::vector<float>& bias,
                                  bool relu, float inv_scale) {
  // Poisoned so a lane the kernel skips shows.
  std::vector<std::int8_t> q(acc.size(), std::int8_t{99});
  be.drain_i8(acc.data(), static_cast<std::int64_t>(acc.size()), scale,
              bias.data(), relu, inv_scale, q.data());
  return q;
}

TEST_P(BackendConformanceTest, DrainI8BitIdenticalToDrainThenQuantize) {
  const core::ComputeBackend& be = *ops::find_backend(GetParam());
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  // scale 0.5 and inverse 1 put every odd accumulator exactly on a .5
  // tie (ties round to even); |acc| >= 254 saturates at ±127.
  const std::vector<std::int32_t> pinned_acc = {
      1,   3,    5,    7,    -1,   -3,    -5,   -7,  253,  254,
      255, 1000, -253, -254, -255, -1000, kMin, kMax, 0,   2};
  const std::vector<int> pinned_plain = {0,   2,    2,    4,    0,    -2,  -2,
                                         -4,  126,  127,  127,  127,  -126,
                                         -127, -127, -127, -127, 127, 0,   1};
  const std::vector<float> zero_bias(pinned_acc.size(), 0.0f);
  for (const bool relu : {false, true}) {
    const auto got = drain_i8(be, pinned_acc, 0.5f, zero_bias, relu, 1.0f);
    for (std::size_t i = 0; i < pinned_acc.size(); ++i) {
      const int want = relu ? std::max(pinned_plain[i], 0) : pinned_plain[i];
      EXPECT_EQ(got[i], want)
          << "acc " << pinned_acc[i] << " relu " << relu;
    }
    EXPECT_EQ(got,
              drain_then_quantize(pinned_acc, 0.5f, zero_bias, relu, 1.0f));
  }
  // A fused multiply-add would keep 3 * fl(1/3) - 1 = 2^-25, which the
  // inverse scale 2^25 turns into 1; the separate multiply and add give 0.
  {
    const std::vector<std::int32_t> acc(64, 3);
    const std::vector<float> bias(64, -1.0f);
    for (const std::int8_t q :
         drain_i8(be, acc, 1.0f / 3.0f, bias, false, 33554432.0f)) {
      ASSERT_EQ(q, 0) << "drain contracted into a fused multiply-add";
    }
  }
  // Every length through the SIMD bodies and tails, with random and
  // extreme accumulators, -0 and NaN biases, and ReLU on and off.
  Rng rng(227);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::int64_t n = 0; n <= 70; ++n) {
    std::vector<std::int32_t> acc(static_cast<std::size_t>(n));
    std::vector<float> bias(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc[i] = static_cast<std::int32_t>(rng()) >> (i % 24);
      bias[i] = static_cast<float>(rng.normal(0.0, 2.0));
    }
    for (std::size_t i = 0; i < acc.size(); i += 5) {
      acc[i] = pinned_acc[i % pinned_acc.size()];
    }
    if (n > 2) {
      bias[1] = -0.0f;
      acc[1] = 0;
      bias[2] = nan;
    }
    for (const float scale : {0.0123f, 1e-6f, 3e30f}) {
      for (const float inv : {1.0f / 0.037f, 0.5f, 1e-12f}) {
        for (const bool relu : {false, true}) {
          ASSERT_EQ(drain_i8(be, acc, scale, bias, relu, inv),
                    drain_then_quantize(acc, scale, bias, relu, inv))
              << "n=" << n << " scale=" << scale << " inv=" << inv
              << " relu=" << relu;
        }
      }
    }
  }
}

TEST_P(BackendConformanceTest, DrainI8CommutesWithMaxForNonNanValues) {
  // The device max-pools int8 activations: max(q(a), q(b)) == q(max(a, b))
  // holds because quantize_i8 is monotone on every value except NaN, which
  // it maps to 0. A drain value is float(acc) * scale + bias with a finite
  // scale and bias (artifacts carrying anything else are rejected at
  // load), so it is never NaN: at worst it overflows to ±inf.
  const core::ComputeBackend& be = *ops::find_backend(GetParam());
  Rng rng(229);
  const std::int64_t n = 67;
  std::vector<std::int32_t> acc(n);
  std::vector<float> bias(n);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] = static_cast<std::int32_t>(rng()) >> (i % 31);
    bias[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  acc[0] = std::numeric_limits<std::int32_t>::max();
  acc[1] = std::numeric_limits<std::int32_t>::min();
  for (const float scale : {0.01f, 3e30f}) {
    std::vector<float> y(acc.size());
    be.drain_i32(acc.data(), n, scale, bias.data(), true, y.data());
    const auto q = drain_i8(be, acc, scale, bias, true, 1.0f / 0.05f);
    for (std::int64_t i = 0; i + 1 < n; ++i) {
      ASSERT_FALSE(std::isnan(y[i]));
      const float top = std::max(y[i], y[i + 1]);
      std::int8_t want = 0;
      be.quantize_i8(&top, 1, 1.0f / 0.05f, &want);
      ASSERT_EQ(std::max(q[i], q[i + 1]), want)
          << "scale " << scale << " at " << i;
    }
  }
}

// ---- convolution through the shared blocking ---------------------------

TEST_P(BackendConformanceTest, ConvForwardBackwardMatchScalar) {
  ops::Conv2dGeometry g;
  g.in_channels = 3;
  g.in_h = g.in_w = 9;
  g.kernel = 3;
  g.stride = 1;
  g.padding = 1;
  const Tensor x = random_tensor(Shape{2, 3, 9, 9}, 89);
  const Tensor weight = random_tensor(Shape{4, 3, 3, 3}, 97);
  const Tensor bias = random_tensor(Shape{4}, 101);
  const Tensor grad_out = random_tensor(Shape{2, 4, 9, 9}, 103);
  const std::int64_t depth = g.in_channels * g.kernel * g.kernel;

  ops::set_backend("scalar");
  const Tensor want_y = ops::conv2d_forward(x, weight, bias, g);
  Tensor want_gw(weight.shape()), want_gb(bias.shape());
  const Tensor want_gx =
      ops::conv2d_backward(x, weight, grad_out, g, want_gw, want_gb);

  ops::set_backend(GetParam());
  const Tensor got_y = ops::conv2d_forward(x, weight, bias, g);
  Tensor got_gw(weight.shape()), got_gb(bias.shape());
  const Tensor got_gx =
      ops::conv2d_backward(x, weight, grad_out, g, got_gw, got_gb);

  expect_close(got_y, want_y, depth, "conv forward");
  expect_close(got_gx, want_gx, depth, "conv grad_x");
  expect_close(got_gw, want_gw, x.shape().dim(0) * g.in_h * g.in_w,
               "conv grad_w");
  expect_close(got_gb, want_gb, grad_out.numel() / 4, "conv grad_b");
}

// ---- end to end: trusted-device int8 inference -------------------------

TEST_P(BackendConformanceTest, DeviceLogitsBitIdenticalToScalar) {
  // The device's MAC layers run entirely on the int8 datapath, and every
  // float step around them (quantize, dequant, pooling, bias) is a
  // single-rounding per-element op — so end-to-end logits must be
  // byte-identical between the scalar reference and any SIMD tier.
  models::ModelConfig cfg;
  cfg.in_channels = 1;
  cfg.image_size = 16;
  cfg.init_seed = 7;
  Rng rng(107);
  const obf::HpnnKey key = obf::HpnnKey::random(rng);
  obf::Scheduler sched(12345);
  obf::LockedModel owner(models::Architecture::kCnn1, cfg, key, sched);
  std::stringstream ss;
  obf::publish_model(ss, owner);
  const obf::PublishedModel artifact = obf::read_published_model(ss);
  const Tensor x = Tensor::normal(Shape{4, 1, 16, 16}, rng, 0.0f, 0.25f);

  ops::set_backend("scalar");
  hw::TrustedDevice scalar_device(key, 12345);
  scalar_device.load_model(artifact);
  const Tensor want = scalar_device.infer(x);

  ops::set_backend(GetParam());
  hw::TrustedDevice device(key, 12345);
  device.load_model(artifact);
  const Tensor got = device.infer(x);

  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           sizeof(float) * static_cast<std::size_t>(
                                               got.numel())))
      << "device logits diverged between scalar and " << GetParam();
}

TEST_P(BackendConformanceTest, DeviceNonFiniteInputMatchesScalar) {
  // Request images are untrusted: a NaN pixel quantizes to 0 and an
  // infinite one saturates, identically on every tier, so the logits equal
  // those of the image with 0 (NaN) or a huge finite value (inf) there.
  models::ModelConfig cfg;
  cfg.in_channels = 1;
  cfg.image_size = 16;
  cfg.init_seed = 7;
  Rng rng(109);
  const obf::HpnnKey key = obf::HpnnKey::random(rng);
  obf::Scheduler sched(12345);
  obf::LockedModel owner(models::Architecture::kCnn1, cfg, key, sched);
  ops::set_backend("scalar");
  const auto scales = obf::calibrate_activation_scales(
      owner, Tensor::normal(Shape{4, 1, 16, 16}, rng, 0.0f, 0.25f));
  std::stringstream ss;
  obf::publish_model(ss, owner, scales);
  const obf::PublishedModel artifact = obf::read_published_model(ss);

  const Tensor clean = Tensor::normal(Shape{2, 1, 16, 16}, rng, 0.0f, 0.25f);
  Tensor hostile = clean;
  Tensor zeroed = clean;
  Tensor huge = clean;
  for (const std::int64_t i : {0, 17, 300}) {
    hostile.data()[i] = std::numeric_limits<float>::quiet_NaN();
    zeroed.data()[i] = 0.0f;
  }
  hostile.data()[40] = std::numeric_limits<float>::infinity();
  zeroed.data()[40] = 1e30f;

  hw::TrustedDevice scalar_device(key, 12345);
  scalar_device.load_model(artifact);
  const Tensor want = scalar_device.infer(zeroed);

  ops::set_backend(GetParam());
  hw::TrustedDevice device(key, 12345);
  device.load_model(artifact);
  const Tensor got = device.infer(hostile);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           sizeof(float) * static_cast<std::size_t>(
                                               got.numel())))
      << "non-finite pixels diverged on " << GetParam();
}

// ---- backend-switch safety (not parameterized) -------------------------

/// The first non-scalar supported backend, or "" when this CPU has none.
std::string first_simd_backend() {
  for (const auto& name : supported_backends()) {
    if (name != "scalar") {
      return name;
    }
  }
  return "";
}

TEST(BackendSwitchTest, PackedPanelsReplayThroughPackingBackend) {
  const std::string simd = first_simd_backend();
  if (simd.empty()) {
    GTEST_SKIP() << "no SIMD backend supported on this CPU";
  }
  StateRestorer restore;
  const Tensor a = random_tensor(Shape{19, 23}, 109);
  const Tensor b = random_tensor(Shape{23, 31}, 113);
  ops::set_backend("scalar");
  const Tensor want = ops::matmul(a, b);

  // Pack under the SIMD backend, then switch the active backend away: the
  // panel must keep replaying through the backend that laid it out.
  ops::set_backend(simd);
  ops::PackedA pa;
  pa.pack(a.data(), false, 19, 23);
  ASSERT_EQ(pa.packed_backend(), ops::find_backend(simd));
  ops::set_backend("scalar");
  EXPECT_FALSE(pa.matches(a.data(), false, 19, 23))
      << "a panel packed by another backend must not match";
  Tensor got(Shape{19, 31});
  ops::gemm_prepacked(pa, b.data(), false, 31, 0.0f, got.data(), 31);
  expect_close(got, want, 23, "prepacked gemm after backend switch");
}

TEST(BackendSwitchTest, AlternatingBackendsPerCallStaysCorrect) {
  const std::string simd = first_simd_backend();
  if (simd.empty()) {
    GTEST_SKIP() << "no SIMD backend supported on this CPU";
  }
  StateRestorer restore;
  // Regression for scratch-arena replay: GEMM scratch retained from one
  // backend's call must never be interpreted as panels by the next
  // backend's call. Alternate every call and check each result.
  const Tensor a = random_tensor(Shape{29, 41}, 127);
  const Tensor b = random_tensor(Shape{41, 37}, 131);
  ops::set_backend("scalar");
  const Tensor want = ops::matmul(a, b);
  for (int i = 0; i < 6; ++i) {
    ops::set_backend(i % 2 == 0 ? simd : "scalar");
    const Tensor got = ops::matmul(a, b);
    expect_close(got, want, 41, "alternating call " + std::to_string(i));
  }
}

TEST(BackendSwitchTest, DevicePlanKeepsTheBackendItWasPreparedOn) {
  const std::string simd = first_simd_backend();
  if (simd.empty()) {
    GTEST_SKIP() << "no SIMD backend supported on this CPU";
  }
  StateRestorer restore;
  // A plan loaded under the scalar tier holds no SIMD layout; replaying it
  // through the SIMD kernels after a switch would read weights that were
  // never packed. The plan must keep running on the scalar tier.
  models::ModelConfig cfg;
  cfg.in_channels = 1;
  cfg.image_size = 16;
  cfg.init_seed = 7;
  Rng rng(113);
  const obf::HpnnKey key = obf::HpnnKey::random(rng);
  obf::Scheduler sched(12345);
  obf::LockedModel owner(models::Architecture::kCnn1, cfg, key, sched);
  std::stringstream ss;
  obf::publish_model(ss, owner);
  const obf::PublishedModel artifact = obf::read_published_model(ss);
  const Tensor x = Tensor::normal(Shape{3, 1, 16, 16}, rng, 0.0f, 0.25f);

  ops::set_backend("scalar");
  hw::TrustedDevice device(key, 12345);
  device.load_model(artifact);
  const Tensor want = device.infer(x);
  ops::set_backend(simd);
  const Tensor got = device.infer(x);
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           sizeof(float) * static_cast<std::size_t>(
                                               got.numel())));
}

TEST(BackendSwitchTest, ScratchArenaDropsRetainedBlocksOnSwitch) {
  const std::string simd = first_simd_backend();
  if (simd.empty()) {
    GTEST_SKIP() << "no SIMD backend supported on this CPU";
  }
  StateRestorer restore;
  ops::set_backend(simd);
  core::ScratchArena& arena = core::ScratchArena::tls();
  {
    core::ScratchArena::Scope scope(arena);
    scope.floats(4096);
  }
  ASSERT_GT(arena.retained_bytes(), 0u);
  ops::set_backend("scalar");
  {
    // The next outermost scope observes the epoch bump and drops every
    // retained block before handing out memory.
    core::ScratchArena::Scope scope(arena);
    EXPECT_EQ(arena.retained_bytes(), 0u);
  }
}

TEST(BackendRegistryTest, FailsClosedOnUnknownName) {
  EXPECT_EQ(ops::find_backend("no-such-backend"), nullptr);
  EXPECT_THROW(ops::set_backend("no-such-backend"), UsageError);
  // A failed switch must leave the previous selection active.
  EXPECT_FALSE(ops::backend().name().empty());
}

TEST(BackendRegistryTest, ScalarAlwaysRegisteredAndSupported) {
  const auto names = ops::backend_names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "scalar");
  EXPECT_TRUE(ops::find_backend("scalar")->supported());
  EXPECT_EQ(ops::find_backend("scalar")->priority(), 0);
}

}  // namespace
}  // namespace hpnn
