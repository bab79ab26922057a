// Matrix-multiply unit (MMU) model of the TPU-like trusted device.
//
// A 256x256 weight-stationary systolic array of 8-bit MACs feeding 256
// key-dependent accumulator units (Sec. III-D of the paper). The model
// computes exact int8 x int8 -> int32 GEMMs and tracks a cycle/utilization
// estimate of the pipelined execution; the XOR key gates add zero cycles.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>

#include "core/compute_backend.hpp"
#include "hw/accumulator.hpp"

namespace hpnn::hw {

class FaultInjector;

struct MmuStats {
  std::uint64_t mac_ops = 0;          // int multiply-accumulates performed
  std::uint64_t cycles = 0;           // modeled pipeline cycles
  std::uint64_t weight_tile_loads = 0;
  std::uint64_t gemm_calls = 0;
  std::uint64_t outputs = 0;          // output elements produced
  std::uint64_t locked_outputs = 0;   // outputs accumulated with key bit 1

  /// Fraction of peak MAC throughput achieved (256*256 MACs per cycle).
  double utilization() const;

  void reset() { *this = MmuStats{}; }
};

class Mmu {
 public:
  /// Systolic array geometry (rows = contraction dim, cols = accumulators).
  static constexpr std::int64_t kArrayRows = 256;
  static constexpr std::int64_t kArrayCols = 256;

  explicit Mmu(Fidelity fidelity = Fidelity::kFast) : fidelity_(fidelity) {}

  /// out[M*N] = a[M*K] @ w[K*N] in int8 -> int32, with optional key-driven
  /// negation: negate[i*N+j] != 0 means output element (i, j) is accumulated
  /// through a k=1 unit and yields -Σ a·w (two's-complement wrap semantics).
  /// `negate` may be empty (all positive). Lays `w` out per call on the
  /// active backend and runs matmul_i8_prepared, the MMU's one datapath.
  void matmul_i8(std::span<const std::int8_t> a, std::int64_t m,
                 std::int64_t k, std::span<const std::int8_t> w,
                 std::int64_t n, std::span<const std::uint8_t> negate,
                 std::span<std::int32_t> out);

  /// The same GEMM against weights laid out once at model load by
  /// ComputeBackend::prepare_i8: kLeft computes out[rows * x.extent] =
  /// W @ X with X the [cols, x.extent] window `x` (core::I8Window), kRight
  /// out[x.extent * cols] = X @ W with X the row-major [x.extent, rows]
  /// matrix at x.data. Runs on the backend that prepared `w`, not the
  /// active one. `locked_outputs` is the number of non-zero bytes in
  /// `negate`, counted once when the key bits were expanded, so the
  /// bookkeeping does not re-scan them per GEMM. Statistics, counters and
  /// fault hooks count it as the GEMM A[m, k] @ B[k, n] with the operands
  /// in that order; the gate-accurate path computes that product through
  /// the keyed accumulators instead of the backend.
  void matmul_i8_prepared(const core::PreparedI8& w, const core::I8Window& x,
                          std::span<const std::uint8_t> negate,
                          std::uint64_t locked_outputs,
                          std::span<std::int32_t> out);

  const MmuStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }
  Fidelity fidelity() const { return fidelity_; }

  /// Wires a fault injector into the accumulator bank (nullptr detaches).
  /// With no injector attached the hook is a single null-pointer test per
  /// GEMM — the normal datapath is untouched.
  void attach_fault_injector(FaultInjector* injector) { fault_ = injector; }

 private:
  /// Shape checks shared by both entry points.
  static void check_operands(std::int64_t m, std::int64_t k, std::int64_t n,
                             std::size_t a_size, std::size_t w_size,
                             std::size_t negate_size, std::size_t out_size);
  /// Gate-accurate product through the keyed FA-chain accumulators.
  static void bit_accurate(const std::int8_t* a, std::int64_t m,
                           std::int64_t k, const std::int8_t* w,
                           std::int64_t n, std::span<const std::uint8_t> negate,
                           std::span<std::int32_t> out);
  /// Fault hooks, then the cycle model, stats and counters of one GEMM
  /// with `locked` keyed outputs.
  void finish(std::int64_t m, std::int64_t k, std::int64_t n,
              std::uint64_t locked, std::span<std::int32_t> out);

  Fidelity fidelity_;
  MmuStats stats_;
  // Guards stats_ when the device fans sample tiles out across the thread
  // pool. The counters are order-independent sums, so concurrent GEMMs
  // still produce exact totals. (Makes Mmu non-copyable, which it should
  // be anyway: it models one physical unit.)
  std::mutex stats_mutex_;
  FaultInjector* fault_ = nullptr;
};

}  // namespace hpnn::hw
