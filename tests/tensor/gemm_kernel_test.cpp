// Tests for the packed GEMM layer (tensor/gemm_kernel.hpp): transpose
// folding in the pack stage, alpha/beta edge semantics, the scratch
// arena's alignment/reuse contract, prepacked-A replay, and bit-exact
// determinism across thread-pool sizes. The transpose/alpha-beta/edge
// sweeps run as TEST_P over every registered compute backend that this
// CPU supports, so the AVX-512 tier's edge-tile and beta==0-over-NaN
// paths are exercised wherever the hardware allows.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "core/aligned_buffer.hpp"
#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "tensor/backend.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/ops.hpp"

namespace hpnn::ops {
namespace {

/// Backends this CPU can actually run (registered but unsupported tiers
/// would make set_backend throw).
std::vector<std::string> supported_backends() {
  std::vector<std::string> v;
  for (const auto& name : backend_names()) {
    if (find_backend(name)->supported()) {
      v.push_back(name);
    }
  }
  return v;
}

/// Restores the entry backend on destruction so a parameterized backend
/// switch cannot leak into later tests in this binary.
class BackendRestorer {
 public:
  BackendRestorer() : saved_(backend().name()) {}
  ~BackendRestorer() { set_backend(saved_); }

 private:
  std::string saved_;
};

/// Naive triple-loop reference with a double accumulator.
std::vector<float> reference_gemm(const std::vector<float>& a, bool ta,
                                  const std::vector<float>& b, bool tb,
                                  std::int64_t m, std::int64_t n,
                                  std::int64_t k, float alpha, float beta,
                                  const std::vector<float>& c0) {
  std::vector<float> c = c0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        s += static_cast<double>(av) * bv;
      }
      const float prior = beta == 0.0f ? 0.0f : beta * c[i * n + j];
      c[i * n + j] = alpha * static_cast<float>(s) + prior;
    }
  }
  return c;
}

std::vector<float> random_vec(std::int64_t count, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (auto& x : v) {
    x = static_cast<float>(rng.normal());
  }
  return v;
}

void expect_close(const std::vector<float>& got,
                  const std::vector<float>& want, float tol,
                  const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << what << " at flat index " << i;
  }
}

struct KernelCase {
  std::int64_t m, n, k;
  bool ta, tb;
};

class GemmKernelTransposeTest
    : public ::testing::TestWithParam<std::tuple<std::string, KernelCase>> {
 protected:
  BackendRestorer restore_;
};

// Every transpose combination, at sizes that are deliberately not
// multiples of any backend's microkernel tile, on both the small unpacked
// path and the packed-panel path, for every supported backend.
TEST_P(GemmKernelTransposeTest, MatchesReference) {
  set_backend(std::get<0>(GetParam()));
  const KernelCase& p = std::get<1>(GetParam());
  Rng rng(101 + p.m * 7 + p.n * 11 + p.k * 13 + (p.ta ? 1 : 0) +
          (p.tb ? 2 : 0));
  const auto a = random_vec(p.m * p.k, rng);
  const auto b = random_vec(p.k * p.n, rng);
  const auto c0 = random_vec(p.m * p.n, rng);

  std::vector<float> c = c0;
  gemm_raw(a.data(), p.ta, b.data(), p.tb, p.m, p.n, p.k, 1.0f, 1.0f,
           c.data(), p.n);
  const auto want =
      reference_gemm(a, p.ta, b, p.tb, p.m, p.n, p.k, 1.0f, 1.0f, c0);
  const float tol = 1e-3f * static_cast<float>(std::sqrt(p.k));
  expect_close(c, want, tol, "transpose combo");
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, GemmKernelTransposeTest,
    ::testing::Combine(
        ::testing::ValuesIn(supported_backends()),
        ::testing::Values(
            // Small-volume unpacked path (m*n*k below the packing
            // threshold).
            KernelCase{7, 5, 13, false, false},
            KernelCase{7, 5, 13, false, true},
            KernelCase{7, 5, 13, true, false},
            KernelCase{7, 5, 13, true, true},
            // Packed-panel path, every dimension off-tile.
            KernelCase{17, 31, 23, false, false},
            KernelCase{17, 31, 23, false, true},
            KernelCase{17, 31, 23, true, false},
            KernelCase{17, 31, 23, true, true},
            // Larger, prime-ish shapes.
            KernelCase{67, 101, 45, false, false},
            KernelCase{67, 101, 45, false, true},
            KernelCase{67, 101, 45, true, false},
            KernelCase{67, 101, 45, true, true},
            // Tile multiples of both the 6x16 and 8x32 microtiles
            // (full-tile store path, no edge spill, on every tier).
            KernelCase{24, 32, 24, false, false},
            KernelCase{24, 32, 24, true, true},
            // GEMV row (m == 1) in both B orientations.
            KernelCase{1, 33, 19, false, false},
            KernelCase{1, 33, 19, false, true})),
    [](const auto& info) {
      const auto& c = std::get<1>(info.param);
      return std::get<0>(info.param) + "_m" + std::to_string(c.m) + "n" +
             std::to_string(c.n) + "k" + std::to_string(c.k) +
             (c.ta ? "_ta" : "") + (c.tb ? "_tb" : "");
    });

class GemmKernelBackendEdgeTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  BackendRestorer restore_;
};

// beta == 0 must overwrite C without reading it: NaN garbage in the output
// buffer must not propagate (the reference semantics for an uninitialized
// destination). Both the full-tile vector store and the edge-tile merge
// path are on shapes here, for every tier — including VNNI-class AVX-512.
TEST_P(GemmKernelBackendEdgeTest, BetaZeroOverwritesNaN) {
  set_backend(GetParam());
  struct Case {
    std::int64_t m, n, k;
  };
  // One off-tile shape (edge-tile merge) and one exact multiple of the
  // largest (8x32) tile (full-tile vector stores).
  for (const Case& shape : {Case{19, 21, 17}, Case{24, 64, 16}}) {
    const std::int64_t m = shape.m, n = shape.n, k = shape.k;
    Rng rng(7);
    const auto a = random_vec(m * k, rng);
    const auto b = random_vec(k * n, rng);
    std::vector<float> c(static_cast<std::size_t>(m * n),
                         std::numeric_limits<float>::quiet_NaN());
    gemm_raw(a.data(), false, b.data(), false, m, n, k, 1.0f, 0.0f, c.data(),
             n);
    for (const auto v : c) {
      EXPECT_FALSE(std::isnan(v)) << "m=" << m << " n=" << n;
    }
    const auto want = reference_gemm(
        a, false, b, false, m, n, k, 1.0f, 0.0f,
        std::vector<float>(static_cast<std::size_t>(m * n), 0.0f));
    expect_close(c, want, 1e-3f, "beta=0 NaN overwrite");
  }
}

// Same contract on the degenerate alpha == 0 path: C = beta * C, and with
// beta == 0 the NaNs must still be flushed to exact zeros.
TEST_P(GemmKernelBackendEdgeTest, AlphaZeroScalesC) {
  set_backend(GetParam());
  const std::int64_t m = 9, n = 14, k = 11;
  Rng rng(8);
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  const auto c0 = random_vec(m * n, rng);

  std::vector<float> c = c0;
  gemm_raw(a.data(), false, b.data(), false, m, n, k, 0.0f, 2.5f, c.data(),
           n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_FLOAT_EQ(c[i], 2.5f * c0[i]);
  }

  std::vector<float> nan_c(static_cast<std::size_t>(m * n),
                           std::numeric_limits<float>::quiet_NaN());
  gemm_raw(a.data(), false, b.data(), false, m, n, k, 0.0f, 0.0f,
           nan_c.data(), n);
  for (const auto v : nan_c) {
    EXPECT_EQ(v, 0.0f);
  }
}

// The determinism contract: for a fixed backend, results are bit-identical
// at every thread-pool size because chunk boundaries are a pure function
// of the shape and each C element accumulates its full K extent in one
// microkernel call.
TEST_P(GemmKernelBackendEdgeTest, ThreadCountDoesNotChangeBits) {
  set_backend(GetParam());
  const std::int64_t m = 191, n = 163, k = 127;
  Rng rng(31);
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);

  core::set_thread_count(1);
  std::vector<float> c1(static_cast<std::size_t>(m * n), 0.0f);
  gemm_raw(a.data(), false, b.data(), true, m, n, k, 1.0f, 0.0f, c1.data(),
           n);

  for (const int threads : {2, 3, 8}) {
    core::set_thread_count(threads);
    std::vector<float> ct(static_cast<std::size_t>(m * n), 0.0f);
    gemm_raw(a.data(), false, b.data(), true, m, n, k, 1.0f, 0.0f, ct.data(),
             n);
    EXPECT_EQ(0,
              std::memcmp(c1.data(), ct.data(), c1.size() * sizeof(float)))
        << "thread count " << threads << " changed the result bits";
  }
  core::set_thread_count(0);  // restore the HPNN_THREADS default
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GemmKernelBackendEdgeTest,
                         ::testing::ValuesIn(supported_backends()),
                         [](const auto& info) { return info.param; });

class GemmKernelAlphaBetaTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::pair<float, float>>> {
 protected:
  BackendRestorer restore_;
};

TEST_P(GemmKernelAlphaBetaTest, MatchesReference) {
  set_backend(std::get<0>(GetParam()));
  const auto [alpha, beta] = std::get<1>(GetParam());
  const std::int64_t m = 23, n = 29, k = 31;
  Rng rng(17);
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  const auto c0 = random_vec(m * n, rng);
  std::vector<float> c = c0;
  gemm_raw(a.data(), false, b.data(), false, m, n, k, alpha, beta, c.data(),
           n);
  const auto want =
      reference_gemm(a, false, b, false, m, n, k, alpha, beta, c0);
  expect_close(c, want, 2e-3f, "alpha/beta combo");
}

INSTANTIATE_TEST_SUITE_P(
    AlphaBeta, GemmKernelAlphaBetaTest,
    ::testing::Combine(::testing::ValuesIn(supported_backends()),
                       ::testing::Values(std::make_pair(1.0f, 0.0f),
                                         std::make_pair(1.0f, 1.0f),
                                         std::make_pair(2.0f, 2.5f),
                                         std::make_pair(-1.5f, 1.0f),
                                         std::make_pair(0.5f, -2.0f))),
    [](const auto& info) {
      auto sanitize = [](float v) {
        std::string s = std::to_string(v);
        for (auto& ch : s) {
          if (ch == '.' || ch == '-') {
            ch = '_';
          }
        }
        return s;
      };
      return std::get<0>(info.param) + "_a" +
             sanitize(std::get<1>(info.param).first) + "_b" +
             sanitize(std::get<1>(info.param).second);
    });

// A packed-once A operand replayed through gemm_prepacked must produce the
// same bits as the pack-every-call entry point: same pack layout, same
// microkernel, same accumulation order.
TEST(GemmKernelPackedATest, PrepackedMatchesGemmRawBitExact) {
  const std::int64_t m = 37, n = 53, k = 29;
  const float alpha = 1.25f;
  Rng rng(23);
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);

  std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
  gemm_raw(a.data(), false, b.data(), false, m, n, k, alpha, 0.0f,
           want.data(), n);

  PackedA pa;
  EXPECT_TRUE(pa.empty());
  pa.pack(a.data(), false, m, k, alpha);
  EXPECT_FALSE(pa.empty());
  EXPECT_EQ(pa.packed_backend(), &backend());
  EXPECT_TRUE(pa.matches(a.data(), false, m, k, alpha));
  EXPECT_FALSE(pa.matches(a.data(), false, m, k, 1.0f));
  EXPECT_FALSE(pa.matches(b.data(), false, m, k, alpha));

  std::vector<float> got(static_cast<std::size_t>(m * n), 0.0f);
  gemm_prepacked(pa, b.data(), false, n, 0.0f, got.data(), n);
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           got.size() * sizeof(float)));

  // Transposed-B replay against the transposed-B direct path.
  std::vector<float> bt(static_cast<std::size_t>(k * n));
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) {
      bt[j * k + p] = b[p * n + j];
    }
  }
  std::vector<float> got_t(static_cast<std::size_t>(m * n), 0.0f);
  gemm_prepacked(pa, bt.data(), true, n, 0.0f, got_t.data(), n);
  EXPECT_EQ(0, std::memcmp(got_t.data(), want.data(),
                           got_t.size() * sizeof(float)));
}

// ---------------------------------------------------------------- arena

TEST(AlignedBufferTest, AllocationsAreCacheLineAligned) {
  core::AlignedBuffer buf;
  EXPECT_EQ(buf.capacity(), 0u);
  float* p = buf.float_slots(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % core::kScratchAlignment,
            0u);
  EXPECT_GE(buf.capacity(), 100 * sizeof(float));

  // Growth discards but realigns; capacity at least doubles.
  const std::size_t old_cap = buf.capacity();
  float* q = buf.float_slots(static_cast<std::size_t>(old_cap));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % core::kScratchAlignment,
            0u);
  EXPECT_GE(buf.capacity(), 2 * old_cap);
}

TEST(ScratchArenaTest, ScopeAllocationsAlignedAndReusedAcrossScopes) {
  auto& arena = core::ScratchArena::tls();
  float* first = nullptr;
  {
    core::ScratchArena::Scope scope(arena);
    first = scope.floats(513);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(
        reinterpret_cast<std::uintptr_t>(first) % core::kScratchAlignment,
        0u);
    // A second carve within the same scope must not alias the first.
    float* second = scope.floats(257);
    EXPECT_EQ(
        reinterpret_cast<std::uintptr_t>(second) % core::kScratchAlignment,
        0u);
    EXPECT_GE(second, first + 513);
  }
  // The scope handed its storage back; an equal-size request from a fresh
  // scope reuses the same retained bytes (no fresh allocation).
  const std::size_t retained = arena.retained_bytes();
  {
    core::ScratchArena::Scope scope(arena);
    float* again = scope.floats(513);
    EXPECT_EQ(again, first);
  }
  EXPECT_EQ(arena.retained_bytes(), retained);
}

TEST(ScratchArenaTest, GrowthKeepsLivePointersStableThenCoalesces) {
  auto& arena = core::ScratchArena::tls();
  {
    core::ScratchArena::Scope scope(arena);
    // Force the arena past any single retained block so it has to chain.
    float* a = scope.floats(1 << 14);
    a[0] = 42.0f;
    float* b = scope.floats(1 << 18);
    ASSERT_NE(b, nullptr);
    // The earlier allocation survived the growth un-moved.
    EXPECT_EQ(a[0], 42.0f);
  }
  // Fully rewound: the chain coalesces into a single block big enough for
  // the high-water mark.
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_GE(arena.retained_bytes(),
            (std::size_t{1} << 14) * sizeof(float));
}

// Packed-size helpers round up to whole tiles of the given backend's
// microtile geometry.
TEST(GemmKernelDetailTest, PackedSizesRoundUpToTiles) {
  const core::ComputeBackend* scalar = find_backend("scalar");
  ASSERT_NE(scalar, nullptr);
  ASSERT_EQ(scalar->gemm_mr(), 6);
  ASSERT_EQ(scalar->gemm_nr(), 16);
  EXPECT_EQ(detail::packed_a_floats(*scalar, 6, 10), 6 * 10);
  EXPECT_EQ(detail::packed_a_floats(*scalar, 7, 10), 12 * 10);
  EXPECT_EQ(detail::packed_b_floats(*scalar, 10, 16), 16 * 10);
  EXPECT_EQ(detail::packed_b_floats(*scalar, 10, 17), 32 * 10);

  if (const core::ComputeBackend* avx512 = find_backend("avx512")) {
    EXPECT_EQ(avx512->gemm_mr(), 8);
    EXPECT_EQ(avx512->gemm_nr(), 32);
    EXPECT_EQ(detail::packed_a_floats(*avx512, 9, 10), 16 * 10);
    EXPECT_EQ(detail::packed_b_floats(*avx512, 10, 33), 64 * 10);
  }
}

// The weight-gradient "im2row" pack writes exactly the panels that the
// transposed pack of the sample's im2col matrix does — every slot,
// including the zero columns past n — for every backend's NR.
TEST(GemmKernelDetailTest, Im2RowPanelsEqualTransposedPackOfIm2col) {
  Rng rng(61);
  for (const Conv2dGeometry& g :
       {Conv2dGeometry{3, 32, 32, 3, 1, 1}, Conv2dGeometry{5, 11, 13, 3, 1, 1},
        Conv2dGeometry{4, 15, 15, 3, 2, 1}, Conv2dGeometry{6, 9, 9, 1, 2, 0},
        Conv2dGeometry{2, 7, 6, 5, 1, 2},
        Conv2dGeometry{12, 16, 16, 3, 1, 0}}) {
    const std::int64_t hp = g.in_h + 2 * g.padding;
    const std::int64_t wp = g.in_w + 2 * g.padding;
    const std::int64_t n = g.in_channels * g.kernel * g.kernel;
    const std::int64_t k = g.out_h() * g.out_w();
    const Tensor x = Tensor::normal(Shape{g.in_channels, g.in_h, g.in_w}, rng);
    std::vector<float> plane(static_cast<std::size_t>(g.in_channels * hp * wp),
                             0.0f);
    for (std::int64_t c = 0; c < g.in_channels; ++c) {
      for (std::int64_t y = 0; y < g.in_h; ++y) {
        for (std::int64_t xx = 0; xx < g.in_w; ++xx) {
          plane[static_cast<std::size_t>((c * hp + y + g.padding) * wp + xx +
                                         g.padding)] =
              x.at((c * g.in_h + y) * g.in_w + xx);
        }
      }
    }
    std::vector<float> cols(static_cast<std::size_t>(n * k));
    im2col(x.data(), g, cols.data());
    for (const std::string& name : backend_names()) {
      const core::ComputeBackend& be = *find_backend(name);
      const auto size =
          static_cast<std::size_t>(detail::packed_b_floats(be, k, n));
      std::vector<float> want(size, std::numeric_limits<float>::quiet_NaN());
      std::vector<float> got = want;
      detail::pack_b(be, cols.data(), true, k, n, want.data());
      detail::pack_b_im2row(be, plane.data(), g.in_channels, hp, wp, g.kernel,
                            g.stride, g.out_h(), g.out_w(), got.data());
      EXPECT_EQ(std::memcmp(want.data(), got.data(), size * sizeof(float)), 0)
          << name << " C=" << g.in_channels << " " << g.in_h << "x" << g.in_w
          << " k=" << g.kernel << " s=" << g.stride << " p=" << g.padding;
    }
  }
}

}  // namespace
}  // namespace hpnn::ops
