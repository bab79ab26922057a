// The pluggable compute-backend layer (DESIGN §15).
//
// Every dense kernel in the system — GEMM/GEMV, the im2col-lowered conv
// forward/backward, pooling drivers, the vectorized elementwise and
// locked-ReLU ops, and the MMU's fast-fidelity int8 GEMM over prepared
// weights — routes its innermost compute through one ComputeBackend. The
// blocking, packing, thread-pool fan-out and chunking structure stays
// *shared* above the interface (tensor/gemm_kernel, tensor/ops): a backend
// supplies the register microkernel and the vector primitives, not its own
// loop nest.
// That boundary is deliberate — it is what makes the per-backend contracts
// cheap to uphold:
//   - results are bit-identical at any HPNN_THREADS for a fixed backend
//     (chunk boundaries are a pure function of the shape, each C element
//     accumulates its full K extent inside one microkernel call);
//   - Theorem-1 exactness holds through locked-ReLU gradients (the ±1 lock
//     multiply is exact in every vector width);
//   - the int8 MMU datapath is bit-identical across *all* backends (32-bit
//     wrap-around accumulation is modular arithmetic, so any evaluation
//     order — scalar axpy, AVX2 vpmaddwd, AVX-512 VNNI vpdpwssd — produces
//     the same bits).
// Float GEMM/conv results may differ across backends only by documented
// rounding (FMA vs separate multiply+add, tile-width reduction order); the
// backend-conformance kit (tests/tensor/backend_conformance_test.cpp)
// enforces the tolerance and the bit-exactness contracts for every
// registered backend.
//
// Selection order: `--backend` CLI flag > `HPNN_BACKEND` environment >
// automatic pick of the highest-priority backend whose supported() probe
// passes. The registry fails closed: an unknown or unsupported name is an
// error, never a silent fallback, and so is the retired `HPNN_SIMD`
// environment kill switch (`HPNN_BACKEND=scalar` replaces it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace hpnn::core {

class ComputeBackend;

/// Int8 weights laid out once, at model load, for one backend's
/// prepared-weights GEMM (ComputeBackend::matmul_i8_prepared). `values`
/// keeps the row-major weights as given, for the scalar reference and the
/// gate-accurate MMU path; `packed` holds the backend's own layout and is
/// only meaningful to the backend recorded in `backend` — a prepared
/// operand must never be replayed through another tier's kernel.
struct PreparedI8 {
  /// Which GEMM operand the weights are. kLeft: out[rows, n] = W @ X with
  /// X a [cols, n] window (convolution: filters x the input plane read
  /// through I8Window). kRight: out[n, cols] = X @ W with X row-major
  /// [n, rows] (fully connected: batch x features).
  enum class Side { kLeft, kRight };

  const ComputeBackend* backend = nullptr;
  Side side = Side::kLeft;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<std::int8_t> values;   // row-major [rows, cols]
  std::vector<std::int32_t> packed;  // backend-specific; may be empty
};

/// The activation operand of a prepared-weights int8 GEMM
/// (ComputeBackend::matmul_i8_prepared), `extent` columns wide.
///   kRight: `data` is the row-major [extent, w.rows] matrix; the window
///     fields are unused.
///   kLeft: a window of w.cols rows over `data`. Element (p, j) is
///     data[offsets[p] + (j / width) * pitch + j % width]: each row is
///     extent / width runs of `width` contiguous bytes, `pitch` apart. A
///     stride-1 convolution reads its zero-bordered input plane this way
///     (row p = (c, ky, kx) starts at (c * Hp + ky) * Wp + kx, width =
///     out_w, pitch = Wp); a dense [k, n] matrix is the one-run window
///     with offsets p * n and width n (dense_window_offsets).
/// `size` is the number of bytes readable from `data`; kernels trust the
/// window, and hw::Mmu checks it against `size` (window_fits).
struct I8Window {
  const std::int8_t* data = nullptr;
  std::size_t size = 0;
  std::int64_t extent = 0;
  const std::int64_t* offsets = nullptr;  // kLeft: one per row
  std::int64_t width = 0;
  std::int64_t pitch = 0;
};

/// Row offsets p * n of a dense [rows, n] matrix read as a one-run window.
std::vector<std::int64_t> dense_window_offsets(std::int64_t rows,
                                               std::int64_t n);

/// True when the window's `rows` rows are well formed (width > 0 dividing
/// extent, pitch >= width when a row has several runs) and every byte they
/// address lies inside [data, data + size).
bool window_fits(const I8Window& x, std::int64_t rows);

/// Writes the window's `rows` rows as a dense row-major [rows, extent]
/// matrix into `dst`.
void materialize_window(const I8Window& x, std::int64_t rows,
                        std::int8_t* dst);

/// One compute-kernel implementation tier. Instances are registered once
/// and live for the process lifetime, so raw pointers to them are stable
/// (packed weight panels record which backend laid them out).
class ComputeBackend {
 public:
  virtual ~ComputeBackend() = default;

  /// Stable selection name ("scalar", "avx2", "avx512").
  virtual std::string name() const = 0;

  /// One-line human description for `hpnn backends`.
  virtual std::string description() const = 0;

  /// True when this CPU can execute the backend's kernels. Checked at
  /// selection time; set_active_compute_backend fails closed when false.
  virtual bool supported() const = 0;

  /// Auto-pick rank: the highest-priority supported backend wins when no
  /// explicit selection is made.
  virtual int priority() const = 0;

  // ---- GEMM microtile -----------------------------------------------
  // op(A) is packed into mr-row panels (column-major within a panel),
  // op(B) into nr-column panels (row-major within a panel); the packed
  // panel layout is therefore a property of the backend, and panels must
  // never be replayed through a different backend's microkernel.

  /// Microtile rows (the A-panel height).
  virtual std::int64_t gemm_mr() const = 0;
  /// Microtile columns (the B-panel width); rows of a B panel are
  /// nr floats apart, which every backend keeps 64-byte aligned.
  virtual std::int64_t gemm_nr() const = 0;

  /// One microtile: C[0..mr)[0..nr) = (packed product) + beta * C, with
  /// full-K accumulation held in registers and beta applied once at store
  /// time. `mr`/`nr` may be partial at the matrix edge. No data-dependent
  /// branches: the instruction stream is a pure function of k/mr/nr/beta.
  virtual void gemm_micro(const float* ap, const float* bp, std::int64_t k,
                          float* c, std::int64_t ldc, std::int64_t mr,
                          std::int64_t nr, float beta) const = 0;

  /// m == 1 vector-matrix product: c = alpha * a @ op(B) + beta * c.
  /// The default lowers onto dot (tb) / axpy (!tb) in ascending index
  /// order; backends may override with a fused kernel.
  virtual void gemv(const float* a, const float* b, bool tb, std::int64_t n,
                    std::int64_t k, float alpha, float beta, float* c) const;

  // ---- vectorized elementwise / locked-ReLU -------------------------
  // Per-element semantics are fixed by the scalar reference; every
  // implementation must be branch-free in the data and process elements
  // in ascending index order.

  /// y[i] = max(x[i], 0). In-place (y == x) allowed.
  virtual void relu(const float* x, float* y, std::int64_t n) const = 0;
  /// g[i] = x[i] > 0 ? g[i] : 0 — ReLU backward mask applied in place.
  virtual void relu_mask(const float* x, float* g, std::int64_t n) const = 0;
  /// y[i] = a[i] * b[i]. Any aliasing among a, b, y allowed.
  virtual void mul(const float* a, const float* b, float* y,
                   std::int64_t n) const = 0;
  /// y[i] += s * x[i].
  virtual void axpy(float s, const float* x, float* y,
                    std::int64_t n) const = 0;
  /// y[i] += s.
  virtual void add_scalar(float s, float* y, std::int64_t n) const = 0;
  /// Dot product with a backend-fixed lane-reduction order (deterministic
  /// for a fixed backend).
  virtual float dot(const float* a, const float* b, std::int64_t n) const = 0;
  /// gx[i] = g[i] * lock[i] when z[i] > 0, else 0 — the locked-ReLU delta
  /// rule with f = ReLU fused into one pass. lock values are ±1, so the
  /// multiply is exact and Theorem-1 sign equality holds bit-for-bit in
  /// every backend.
  virtual void lock_relu_grad(const float* g, const float* z,
                              const float* lock, float* gx,
                              std::int64_t n) const = 0;

  // ---- MMU int8 fast-fidelity datapath ------------------------------

  /// Lays out int8 weights for matmul_i8_prepared on this backend. Called
  /// once per layer at model load (per call by hw::Mmu::matmul_i8); the
  /// result records this backend.
  PreparedI8 prepare_i8(const std::int8_t* w, std::int64_t rows,
                        std::int64_t cols, PreparedI8::Side side) const;

  /// The int8 GEMM against weights from this backend's prepare_i8:
  /// out = Σ products with 32-bit wrap-around accumulation (modular, so
  /// bit-identical across backends), negated where the output's `negate`
  /// byte is non-zero (Σ(-p) == -(Σp) in two's complement). `x` is the
  /// activation operand (see I8Window), x.extent columns wide; `negate` is
  /// null or covers every output. The default computes over `values` in
  /// axpy order, reading each window row as one span, and is the scalar
  /// tier's kernel.
  virtual void matmul_i8_prepared(const PreparedI8& w, const I8Window& x,
                                  const std::uint8_t* negate,
                                  std::int32_t* out) const;

  /// The MMU's input quantizer: q[i] = round-half-even(clamp(x[i] * inv,
  /// -127, 127)), with NaN quantized to 0 (infinities saturate). The
  /// default is the scalar reference; every backend is bit-identical to it.
  virtual void quantize_i8(const float* x, std::int64_t n, float inv_scale,
                           std::int8_t* q) const;

  /// The accumulator drain: y[i] = float(acc[i]) * scale + sign_bias[i],
  /// then max(y, 0) when `relu` (std::max semantics: -0 and NaN pass
  /// through). One rounding for the multiply and one for the add — never
  /// a fused multiply-add. Not virtual: it is O(outputs) next to an
  /// O(outputs * k) GEMM, so every tier runs this one loop, built for the
  /// baseline ISA (no FMA to contract into), and agrees bit for bit.
  void drain_i32(const std::int32_t* acc, std::int64_t n, float scale,
                 const float* sign_bias, bool relu, float* y) const;

  /// The requantizing drain, for an activation that stays int8 because
  /// the next MAC layer has a static scale: q[i] is what quantize_i8 with
  /// `inv_scale` makes of drain_i32's y[i], bit for bit, in one pass.
  /// Since quantize_i8 maps NaN and -0 to 0, the ReLU is the clamp's lower
  /// bound (0 instead of -127). Branch-free in the data; the default is
  /// the scalar reference.
  virtual void drain_i8(const std::int32_t* acc, std::int64_t n, float scale,
                        const float* sign_bias, bool relu, float inv_scale,
                        std::int8_t* q) const;

 protected:
  /// Fills `w.packed` for this backend's matmul_i8_prepared; the default
  /// packs nothing.
  virtual void pack_i8(PreparedI8& w) const;
};

// ---- registry ---------------------------------------------------------

/// Registers a backend. Names must be unique; duplicates throw. Intended
/// for the built-in tiers (registered on first use by the tensor layer)
/// and for external/experimental backends in tests.
void register_compute_backend(std::unique_ptr<ComputeBackend> backend);

/// Names of every registered backend, in registration order.
std::vector<std::string> compute_backend_names();

/// Lookup; nullptr when unknown. Returned pointers are stable for the
/// process lifetime.
const ComputeBackend* find_compute_backend(const std::string& name);

/// Fail-closed lookup: throws UsageError on unknown names.
const ComputeBackend& compute_backend_by_name(const std::string& name);

/// The active backend. Resolved on first use from the environment
/// (HPNN_BACKEND, else auto-pick); throws UsageError when the environment
/// names an unknown or unsupported backend or sets the retired HPNN_SIMD,
/// and Error when the registry is empty.
const ComputeBackend& active_compute_backend();

/// Switches the active backend (tests and the --backend CLI flag do this
/// mid-process). Throws UsageError when `name` is unknown or the backend
/// is not supported on this CPU — never falls back silently. Bumps the
/// backend epoch, which invalidates every cached packed panel and the
/// scratch arenas' retained blocks.
void set_active_compute_backend(const std::string& name);

/// Monotonic counter bumped by every set_active_compute_backend call (and
/// by first-use resolution). Caches keyed on a backend's packed data
/// layout — PackedA panels, ScratchArena retained blocks — record the
/// epoch and treat a mismatch as stale.
std::uint64_t compute_backend_epoch();

/// Pure selection-policy helper (unit-testable without touching the real
/// environment): returns the backend name forced by `env_backend`
/// (HPNN_BACKEND; null or empty when unset), or "" for auto-pick.
std::string backend_name_from_env(const char* env_backend);

/// Fails closed on the retired HPNN_SIMD kill switch: throws UsageError
/// pointing to HPNN_BACKEND=scalar when `env_simd` (HPNN_SIMD) is set to
/// anything non-empty, so a leftover setting can never silently select a
/// SIMD tier. Checked when the active backend is first resolved from the
/// environment; an explicit --backend never reads the environment.
void reject_retired_simd_env(const char* env_simd);

}  // namespace hpnn::core
