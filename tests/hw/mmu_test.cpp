#include "hw/mmu.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "tensor/backend.hpp"

namespace hpnn::hw {
namespace {

std::vector<std::int8_t> random_i8(std::int64_t n, Rng& rng) {
  std::vector<std::int8_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = static_cast<std::int8_t>(
        static_cast<std::int32_t>(rng.uniform_index(255)) - 127);
  }
  return v;
}

std::vector<std::int32_t> naive_i8_matmul(const std::vector<std::int8_t>& a,
                                          std::int64_t m, std::int64_t k,
                                          const std::vector<std::int8_t>& w,
                                          std::int64_t n) {
  std::vector<std::int32_t> out(static_cast<std::size_t>(m * n), 0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t s = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        s += static_cast<std::int64_t>(a[i * k + p]) * w[p * n + j];
      }
      out[i * n + j] = static_cast<std::int32_t>(s);
    }
  }
  return out;
}

TEST(MmuTest, MatchesNaiveReference) {
  Rng rng(1);
  const std::int64_t m = 7, k = 13, n = 9;
  const auto a = random_i8(m * k, rng);
  const auto w = random_i8(k * n, rng);
  std::vector<std::int32_t> out(static_cast<std::size_t>(m * n));
  Mmu mmu;
  mmu.matmul_i8(a, m, k, w, n, {}, out);
  EXPECT_EQ(out, naive_i8_matmul(a, m, k, w, n));
}

TEST(MmuTest, NegateMaskFlipsSelectedOutputs) {
  Rng rng(2);
  const std::int64_t m = 4, k = 8, n = 6;
  const auto a = random_i8(m * k, rng);
  const auto w = random_i8(k * n, rng);
  std::vector<std::uint8_t> negate(static_cast<std::size_t>(m * n), 0);
  for (std::size_t i = 0; i < negate.size(); i += 3) {
    negate[i] = 1;
  }
  std::vector<std::int32_t> out(static_cast<std::size_t>(m * n));
  Mmu mmu;
  mmu.matmul_i8(a, m, k, w, n, negate, out);
  const auto ref = naive_i8_matmul(a, m, k, w, n);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], negate[i] ? -ref[i] : ref[i]);
  }
}

TEST(MmuTest, BitAccurateMatchesFast) {
  Rng rng(3);
  const std::int64_t m = 3, k = 5, n = 4;
  const auto a = random_i8(m * k, rng);
  const auto w = random_i8(k * n, rng);
  std::vector<std::uint8_t> negate(static_cast<std::size_t>(m * n), 0);
  negate[0] = negate[5] = negate[11] = 1;

  std::vector<std::int32_t> fast_out(static_cast<std::size_t>(m * n));
  std::vector<std::int32_t> gate_out(static_cast<std::size_t>(m * n));
  Mmu fast(Fidelity::kFast);
  Mmu gates(Fidelity::kBitAccurate);
  fast.matmul_i8(a, m, k, w, n, negate, fast_out);
  gates.matmul_i8(a, m, k, w, n, negate, gate_out);
  EXPECT_EQ(fast_out, gate_out);
}

TEST(MmuTest, StatsAccumulate) {
  Rng rng(4);
  const auto a = random_i8(2 * 3, rng);
  const auto w = random_i8(3 * 4, rng);
  std::vector<std::int32_t> out(8);
  Mmu mmu;
  mmu.matmul_i8(a, 2, 3, w, 4, {}, out);
  EXPECT_EQ(mmu.stats().mac_ops, 2u * 3u * 4u);
  EXPECT_EQ(mmu.stats().gemm_calls, 1u);
  EXPECT_EQ(mmu.stats().weight_tile_loads, 1u);  // fits one 256x256 tile
  EXPECT_GT(mmu.stats().cycles, 0u);
  mmu.reset_stats();
  EXPECT_EQ(mmu.stats().mac_ops, 0u);
}

TEST(MmuTest, TilingCountsMultipleTiles) {
  Rng rng(5);
  const std::int64_t m = 2, k = 300, n = 520;
  const auto a = random_i8(m * k, rng);
  const auto w = random_i8(k * n, rng);
  std::vector<std::int32_t> out(static_cast<std::size_t>(m * n));
  Mmu mmu;
  mmu.matmul_i8(a, m, k, w, n, {}, out);
  // ceil(300/256)=2 K-tiles x ceil(520/256)=3 N-tiles = 6 weight loads
  EXPECT_EQ(mmu.stats().weight_tile_loads, 6u);
  EXPECT_EQ(out, naive_i8_matmul(a, m, k, w, n));
}

TEST(MmuTest, LockedOutputCounter) {
  Rng rng(6);
  const auto a = random_i8(4, rng);
  const auto w = random_i8(4, rng);
  std::vector<std::uint8_t> negate{1, 0, 1, 0};
  std::vector<std::int32_t> out(4);
  Mmu mmu;
  mmu.matmul_i8(a, 2, 2, w, 2, negate, out);
  EXPECT_EQ(mmu.stats().locked_outputs, 2u);
}

TEST(MmuTest, UtilizationBounded) {
  Rng rng(7);
  const auto a = random_i8(64 * 64, rng);
  const auto w = random_i8(64 * 64, rng);
  std::vector<std::int32_t> out(64 * 64);
  Mmu mmu;
  mmu.matmul_i8(a, 64, 64, w, 64, {}, out);
  EXPECT_GT(mmu.stats().utilization(), 0.0);
  EXPECT_LE(mmu.stats().utilization(), 1.0);
}

TEST(MmuTest, SizeValidation) {
  Mmu mmu;
  std::vector<std::int8_t> a(6), w(6);
  std::vector<std::int32_t> out(4);
  EXPECT_THROW(mmu.matmul_i8(a, 2, 3, w, 3, {}, out), InvariantError);
  std::vector<std::int32_t> ok(6);
  EXPECT_THROW(mmu.matmul_i8(a, 0, 3, w, 2, {}, ok), InvariantError);
  std::vector<std::uint8_t> badmask(3);
  std::vector<std::int8_t> w2(6);
  EXPECT_THROW(mmu.matmul_i8(a, 2, 3, w2, 2, badmask, std::span(ok.data(), 4)),
               InvariantError);
}

/// A 2-channel 3x3 conv over a 4x6 input with padding 1, read through
/// the window over its zero-bordered [2, 6, 8] plane: out_w 6 leaves
/// vectors that straddle output rows.
struct PlaneWindow {
  static constexpr std::int64_t kChannels = 2, kHp = 6, kWp = 8;
  static constexpr std::int64_t kOutH = 4, kOutW = 6, kK = 18;
  std::vector<std::int8_t> plane;
  std::vector<std::int64_t> offsets;

  explicit PlaneWindow(Rng& rng)
      : plane(static_cast<std::size_t>(kChannels * kHp * kWp), 0) {
    for (std::int64_t c = 0; c < kChannels; ++c) {
      for (std::int64_t y = 1; y + 1 < kHp; ++y) {
        for (std::int64_t x = 1; x + 1 < kWp; ++x) {
          plane[static_cast<std::size_t>((c * kHp + y) * kWp + x)] =
              static_cast<std::int8_t>(
                  static_cast<std::int32_t>(rng.uniform_index(256)) - 128);
        }
      }
      for (std::int64_t ky = 0; ky < 3; ++ky) {
        for (std::int64_t kx = 0; kx < 3; ++kx) {
          offsets.push_back((c * kHp + ky) * kWp + kx);
        }
      }
    }
  }

  core::I8Window window() const {
    return {plane.data(), plane.size(), kOutH * kOutW, offsets.data(), kOutW,
            kWp};
  }
};

TEST(MmuTest, BitAccurateWindowMatchesFast) {
  Rng rng(8);
  const PlaneWindow pw(rng);
  const std::int64_t filters = 3, n = PlaneWindow::kOutH * PlaneWindow::kOutW;
  const auto wv = random_i8(filters * PlaneWindow::kK, rng);
  const core::PreparedI8 w = ops::backend().prepare_i8(
      wv.data(), filters, PlaneWindow::kK, core::PreparedI8::Side::kLeft);
  std::vector<std::uint8_t> negate(static_cast<std::size_t>(filters * n), 0);
  std::uint64_t locked = 0;
  for (std::size_t i = 0; i < negate.size(); i += 3) {
    negate[i] = 1;
    ++locked;
  }
  std::vector<std::int32_t> fast_out(negate.size()), gate_out(negate.size());
  Mmu fast(Fidelity::kFast);
  Mmu gates(Fidelity::kBitAccurate);
  fast.matmul_i8_prepared(w, pw.window(), negate, locked, fast_out);
  gates.matmul_i8_prepared(w, pw.window(), negate, locked, gate_out);
  EXPECT_EQ(fast_out, gate_out);
  // The bookkeeping takes the precounted key bits as given.
  EXPECT_EQ(fast.stats().locked_outputs, locked);
  EXPECT_EQ(gates.stats().mac_ops,
            static_cast<std::uint64_t>(filters * PlaneWindow::kK * n));
}

TEST(MmuTest, WindowOutsideItsOperandIsRejected) {
  Rng rng(9);
  const PlaneWindow pw(rng);
  const auto wv = random_i8(PlaneWindow::kK, rng);
  const core::PreparedI8 w = ops::backend().prepare_i8(
      wv.data(), 1, PlaneWindow::kK, core::PreparedI8::Side::kLeft);
  std::vector<std::int32_t> out(PlaneWindow::kOutH * PlaneWindow::kOutW);
  Mmu mmu;
  core::I8Window x = pw.window();
  x.size -= 1;
  EXPECT_THROW(mmu.matmul_i8_prepared(w, x, {}, 0, out), InvariantError);
  EXPECT_EQ(mmu.stats().gemm_calls, 0u);
}

}  // namespace
}  // namespace hpnn::hw
