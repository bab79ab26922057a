#include "hw/mmu.hpp"

#include <vector>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "hw/fault.hpp"
#include "tensor/backend.hpp"

namespace hpnn::hw {

double MmuStats::utilization() const {
  if (cycles == 0) {
    return 0.0;
  }
  const double peak = static_cast<double>(cycles) *
                      static_cast<double>(Mmu::kArrayRows) *
                      static_cast<double>(Mmu::kArrayCols);
  return static_cast<double>(mac_ops) / peak;
}

void Mmu::check_operands(std::int64_t m, std::int64_t k, std::int64_t n,
                         std::size_t a_size, std::size_t w_size,
                         std::size_t negate_size, std::size_t out_size) {
  HPNN_CHECK(m > 0 && k > 0 && n > 0, "MMU matmul with empty dims");
  HPNN_CHECK(static_cast<std::int64_t>(a_size) == m * k,
             "MMU: activation operand size mismatch");
  HPNN_CHECK(static_cast<std::int64_t>(w_size) == k * n,
             "MMU: weight operand size mismatch");
  HPNN_CHECK(static_cast<std::int64_t>(out_size) == m * n,
             "MMU: output size mismatch");
  HPNN_CHECK(negate_size == 0 ||
                 static_cast<std::int64_t>(negate_size) == m * n,
             "MMU: negate mask size mismatch");
}

void Mmu::bit_accurate(const std::int8_t* a, std::int64_t m, std::int64_t k,
                       const std::int8_t* w, std::int64_t n,
                       std::span<const std::uint8_t> negate,
                       std::span<std::int32_t> out) {
  // Every product goes through the keyed FA-chain accumulator. Slow; for
  // tests and small demos only.
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const bool key_bit = !negate.empty() && negate[i * n + j] != 0;
      KeyedAccumulator acc(key_bit, Fidelity::kBitAccurate);
      for (std::int64_t p = 0; p < k; ++p) {
        const auto product = static_cast<std::int16_t>(
            static_cast<std::int16_t>(a[i * k + p]) *
            static_cast<std::int16_t>(w[p * n + j]));
        acc.accumulate(product);
      }
      out[i * n + j] = acc.value();
    }
  }
}

void Mmu::matmul_i8(std::span<const std::int8_t> a, std::int64_t m,
                    std::int64_t k, std::span<const std::int8_t> w,
                    std::int64_t n, std::span<const std::uint8_t> negate,
                    std::span<std::int32_t> out) {
  // Checked before `w` is laid out, which reads k * n bytes of it.
  check_operands(m, k, n, a.size(), w.size(), negate.size(), out.size());
  std::uint64_t locked = 0;
  for (const auto b : negate) {
    locked += (b != 0);
  }
  // The MMU has one datapath: lay the weights out for the active backend
  // and run the prepared GEMM with the activations as its dense rows.
  const core::PreparedI8 prepared = ops::backend().prepare_i8(
      w.data(), k, n, core::PreparedI8::Side::kRight);
  matmul_i8_prepared(prepared, core::I8Window{a.data(), a.size(), m}, negate,
                     locked, out);
}

void Mmu::matmul_i8_prepared(const core::PreparedI8& w,
                             const core::I8Window& x,
                             std::span<const std::uint8_t> negate,
                             std::uint64_t locked_outputs,
                             std::span<std::int32_t> out) {
  HPNN_CHECK(w.backend != nullptr, "MMU: weights were never prepared");
  const bool left = w.side == core::PreparedI8::Side::kLeft;
  // The operand order matmul_i8 would see: A[m, k] @ B[k, n].
  const std::int64_t m = left ? w.rows : x.extent;
  const std::int64_t k = left ? w.cols : w.rows;
  const std::int64_t n = left ? x.extent : w.cols;
  // A window is checked for its reach instead of its size: it reads a
  // plane larger than the [k, n] matrix it stands for.
  if (left) {
    HPNN_CHECK(core::window_fits(x, k),
               "MMU: activation window reaches outside its operand");
  }
  check_operands(m, k, n, left ? w.values.size() : x.size,
                 left ? static_cast<std::size_t>(k * n) : w.values.size(),
                 negate.size(), out.size());
  if (fidelity_ == Fidelity::kBitAccurate) {
    const std::int8_t* b = w.values.data();
    std::vector<std::int8_t> dense;
    if (left) {
      dense.resize(static_cast<std::size_t>(k * n));
      core::materialize_window(x, k, dense.data());
      b = dense.data();
    }
    bit_accurate(left ? w.values.data() : x.data, m, k, b, n, negate, out);
  } else {
    w.backend->matmul_i8_prepared(w, x,
                                  negate.empty() ? nullptr : negate.data(),
                                  out.data());
  }
  finish(m, k, n, locked_outputs, out);
}

void Mmu::finish(std::int64_t m, std::int64_t k, std::int64_t n,
                 std::uint64_t locked, std::span<std::int32_t> out) {
  if (fault_ != nullptr) {
    // SEUs strike the accumulator registers holding the partial sums,
    // after the keyed accumulation but before write-back to the unified
    // buffer.
    fault_->on_gemm();
    fault_->corrupt_accumulators(out);
  }

  // ---- pipeline cycle model -------------------------------------------
  // Weight-stationary tiling: each (kArrayRows x kArrayCols) weight tile is
  // loaded once (kArrayRows cycles, double-buffered in real silicon; we
  // charge it explicitly) and the M activation rows stream through with a
  // fill+drain latency of (rows + cols - 2). The XOR key gates sit inside
  // the accumulation stage and add zero cycles.
  const std::int64_t k_tiles = (k + kArrayRows - 1) / kArrayRows;
  const std::int64_t n_tiles = (n + kArrayCols - 1) / kArrayCols;
  const std::int64_t tiles = k_tiles * n_tiles;
  const auto cycles = static_cast<std::uint64_t>(
      tiles * (kArrayRows + m + (kArrayRows + kArrayCols - 2)));
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.weight_tile_loads += static_cast<std::uint64_t>(tiles);
    stats_.cycles += cycles;
    stats_.mac_ops += static_cast<std::uint64_t>(m * k * n);
    stats_.gemm_calls += 1;
    stats_.outputs += static_cast<std::uint64_t>(m * n);
    stats_.locked_outputs += locked;
  }
  HPNN_METRIC_COUNT("hw.mmu.gemm_calls", 1);
  HPNN_METRIC_COUNT("hw.mmu.mac_ops", m * k * n);
  HPNN_METRIC_COUNT("hw.mmu.cycles", cycles);
  HPNN_METRIC_COUNT("hw.mmu.weight_tile_loads", tiles);
  HPNN_METRIC_COUNT("hw.mmu.outputs", m * n);
  HPNN_METRIC_COUNT("hw.mmu.locked_outputs", locked);
  // Each keyed output negates all k partial products through its FA-chain
  // XOR gates — the toggle count is the Fig. 4 dynamic-power proxy.
  HPNN_METRIC_COUNT("hw.mmu.xor_gate_toggles",
                    locked * static_cast<std::uint64_t>(k));
  // Unified-buffer traffic in bytes: int8 operand reads + int32 drains.
  HPNN_METRIC_COUNT("hw.mmu.buffer_bytes",
                    static_cast<std::uint64_t>(m * k + k * n + 4 * m * n));
}

}  // namespace hpnn::hw
