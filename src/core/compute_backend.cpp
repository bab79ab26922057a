#include "core/compute_backend.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "core/aligned_buffer.hpp"
#include "core/error.hpp"

namespace hpnn::core {

void ComputeBackend::gemv(const float* a, const float* b, bool tb,
                          std::int64_t n, std::int64_t k, float alpha,
                          float beta, float* c) const {
  if (tb) {
    // op(B) = B^T stored n x k: each output is a contiguous dot product.
    for (std::int64_t j = 0; j < n; ++j) {
      const float d = alpha * dot(a, b + j * k, k);
      c[j] = d + (beta == 0.0f ? 0.0f : beta * c[j]);
    }
    return;
  }
  // op(B) = B stored k x n: a chain of axpys over contiguous B rows.
  // beta == 0 must overwrite without reading (NaN garbage must not
  // propagate).
  if (beta == 0.0f) {
    for (std::int64_t j = 0; j < n; ++j) {
      c[j] = 0.0f;
    }
  } else if (beta != 1.0f) {
    for (std::int64_t j = 0; j < n; ++j) {
      c[j] *= beta;
    }
  }
  for (std::int64_t p = 0; p < k; ++p) {
    axpy(alpha * a[p], b + p * n, c, n);
  }
}

PreparedI8 ComputeBackend::prepare_i8(const std::int8_t* w,
                                      std::int64_t rows, std::int64_t cols,
                                      PreparedI8::Side side) const {
  HPNN_CHECK(rows > 0 && cols > 0, "prepare_i8 with empty weights");
  PreparedI8 p;
  p.backend = this;
  p.side = side;
  p.rows = rows;
  p.cols = cols;
  p.values.assign(w, w + rows * cols);
  pack_i8(p);
  return p;
}

void ComputeBackend::pack_i8(PreparedI8& /*w*/) const {}

std::vector<std::int64_t> dense_window_offsets(std::int64_t rows,
                                               std::int64_t n) {
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(rows));
  for (std::int64_t p = 0; p < rows; ++p) {
    offsets[static_cast<std::size_t>(p)] = p * n;
  }
  return offsets;
}

bool window_fits(const I8Window& x, std::int64_t rows) {
  if (x.data == nullptr || x.offsets == nullptr || rows <= 0 ||
      x.extent <= 0 || x.width <= 0 || x.extent % x.width != 0) {
    return false;
  }
  const auto size = static_cast<std::int64_t>(x.size);
  const std::int64_t runs = x.extent / x.width;
  // A row spans (runs - 1) * pitch + width bytes; bound it by `size`
  // without forming a product that could overflow.
  if (x.width > size ||
      (runs > 1 && (x.pitch < x.width ||
                    x.pitch > (size - x.width) / (runs - 1)))) {
    return false;
  }
  const std::int64_t last = size - x.width - (runs - 1) * x.pitch;
  for (std::int64_t p = 0; p < rows; ++p) {
    if (x.offsets[p] < 0 || x.offsets[p] > last) {
      return false;
    }
  }
  return true;
}

void materialize_window(const I8Window& x, std::int64_t rows,
                        std::int8_t* dst) {
  for (std::int64_t p = 0; p < rows; ++p) {
    const std::int8_t* src = x.data + x.offsets[p];
    for (std::int64_t j0 = 0; j0 < x.extent; j0 += x.width, src += x.pitch) {
      std::copy(src, src + x.width, dst);
      dst += x.width;
    }
  }
}

namespace {

// The scalar int8 GEMM's inner loops. |a * b| <= 2^14, so products fit
// int16 and four of them sum exactly in int32; the accumulation wraps
// (modular, so any grouping gives the same bits). `restrict` rules out
// aliasing between the int8 runs and the accumulators, which would
// otherwise cost a runtime overlap check on every short run.

/// seg[j] += a[0] * b0[j] + a[1] * b1[j] + a[2] * b2[j] + a[3] * b3[j].
void axpy4_i8(const std::int8_t* a, const std::int8_t* __restrict b0,
              const std::int8_t* __restrict b1,
              const std::int8_t* __restrict b2,
              const std::int8_t* __restrict b3, std::int64_t len,
              std::int32_t* __restrict seg) {
  const std::int16_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
  for (std::int64_t j = 0; j < len; ++j) {
    const std::int32_t sum = a0 * b0[j] + a1 * b1[j] + a2 * b2[j] +
                             a3 * b3[j];
    seg[j] = static_cast<std::int32_t>(static_cast<std::uint32_t>(seg[j]) +
                                       static_cast<std::uint32_t>(sum));
  }
}

/// seg[j] += a * b[j].
void axpy_i8(std::int8_t a, const std::int8_t* __restrict b, std::int64_t len,
             std::int32_t* __restrict seg) {
  const std::int16_t av = a;
  for (std::int64_t j = 0; j < len; ++j) {
    seg[j] = static_cast<std::int32_t>(static_cast<std::uint32_t>(seg[j]) +
                                       static_cast<std::uint32_t>(av * b[j]));
  }
}

}  // namespace

void ComputeBackend::matmul_i8_prepared(const PreparedI8& w,
                                        const I8Window& x,
                                        const std::uint8_t* negate,
                                        std::int32_t* out) const {
  // Axpy order over the row-major values, four k rows per pass so the
  // accumulators are loaded and stored a quarter as often; the inner loops
  // vectorize at the baseline ISA, and modular accumulation makes the
  // order free. A kLeft window row is read as one contiguous span, from
  // its first run's start to its last run's end, gaps included: a conv's
  // runs are out_w bytes a plane row apart, so per-run loops would be only
  // 8-32 long. The span accumulates into scratch and only the window's
  // columns are kept; a one-run window (and kRight) accumulates in place.
  const bool left = w.side == PreparedI8::Side::kLeft;
  const std::int64_t m = left ? w.rows : x.extent;
  const std::int64_t k = left ? w.cols : w.rows;
  const std::int64_t n = left ? x.extent : w.cols;
  const std::int8_t* a = left ? w.values.data() : x.data;
  const std::int64_t width = left ? x.width : n;
  const std::int64_t pitch = left ? x.pitch : n;
  const std::int64_t runs = n / width;
  const std::int64_t span = (runs - 1) * pitch + width;
  const auto b_row = [&](std::int64_t p) {
    return left ? x.data + x.offsets[p] : w.values.data() + p * n;
  };
  ScratchArena::Scope scope;
  std::int32_t* spanbuf = nullptr;
  if (runs > 1) {
    spanbuf = reinterpret_cast<std::int32_t*>(
        scope.bytes(static_cast<std::size_t>(span) * sizeof(std::int32_t)));
  }
  for (std::int64_t i = 0; i < m; ++i) {
    std::int32_t* row = out + i * n;
    std::int32_t* acc = runs > 1 ? spanbuf : row;
    std::fill(acc, acc + span, 0);
    const std::int8_t* ai = a + i * k;
    std::int64_t p = 0;
    for (; p + 4 <= k; p += 4) {
      axpy4_i8(ai + p, b_row(p), b_row(p + 1), b_row(p + 2), b_row(p + 3),
               span, acc);
    }
    for (; p < k; ++p) {
      axpy_i8(ai[p], b_row(p), span, acc);
    }
    if (runs > 1) {
      for (std::int64_t r = 0; r < runs; ++r) {
        std::copy(acc + r * pitch, acc + r * pitch + width, row + r * width);
      }
    }
    if (negate != nullptr) {
      for (std::int64_t j = 0; j < n; ++j) {
        if (negate[i * n + j] != 0) {
          row[j] = static_cast<std::int32_t>(
              0u - static_cast<std::uint32_t>(row[j]));
        }
      }
    }
  }
}

namespace {

/// The reference quantizer's rounding of v = x * inv_scale: NaN -> 0,
/// clamp to [lo, 127], round half to even. Adding and subtracting
/// 1.5 * 2^23 rounds any |v| <= 127 to the nearest integer, ties to even,
/// without a libm call; clamping first commutes with rounding because the
/// bounds are integers. The selects compile to min/max, not branches.
inline std::int8_t round_i8(float v, float lo) {
  constexpr float kRound = 12582912.0f;
  v = v == v ? v : 0.0f;  // NaN -> 0
  v = v > 127.0f ? 127.0f : v;
  v = v < lo ? lo : v;
  return static_cast<std::int8_t>((v + kRound) - kRound);
}

}  // namespace

void ComputeBackend::quantize_i8(const float* x, std::int64_t n,
                                 float inv_scale, std::int8_t* q) const {
  for (std::int64_t i = 0; i < n; ++i) {
    q[i] = round_i8(x[i] * inv_scale, -127.0f);
  }
}

void ComputeBackend::drain_i8(const std::int32_t* acc, std::int64_t n,
                              float scale, const float* sign_bias, bool relu,
                              float inv_scale, std::int8_t* q) const {
  // quantize_i8 on drain_i32's value, the ReLU as the lower bound.
  const float lo = relu ? 0.0f : -127.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = static_cast<float>(acc[i]) * scale + sign_bias[i];
    q[i] = round_i8(v * inv_scale, lo);
  }
}

void ComputeBackend::drain_i32(const std::int32_t* acc, std::int64_t n,
                               float scale, const float* sign_bias,
                               bool relu, float* y) const {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = static_cast<float>(acc[i]) * scale + sign_bias[i];
    y[i] = relu ? std::max(v, 0.0f) : v;
  }
}

namespace {

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ComputeBackend>> backends;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::atomic<const ComputeBackend*> g_active{nullptr};
std::atomic<std::uint64_t> g_epoch{1};

/// Picks the highest-priority supported backend. Called with the registry
/// lock held.
const ComputeBackend* auto_pick_locked(const Registry& r) {
  const ComputeBackend* best = nullptr;
  for (const auto& b : r.backends) {
    if (b->supported() &&
        (best == nullptr || b->priority() > best->priority())) {
      best = b.get();
    }
  }
  return best;
}

const ComputeBackend* lookup_locked(const Registry& r,
                                    const std::string& name) {
  for (const auto& b : r.backends) {
    if (b->name() == name) {
      return b.get();
    }
  }
  return nullptr;
}

std::string known_names_locked(const Registry& r) {
  std::string names;
  for (const auto& b : r.backends) {
    if (!names.empty()) {
      names += ", ";
    }
    names += b->name();
  }
  return names;
}

/// Fail-closed resolution of `name` against the registry (lock held):
/// unknown and unsupported names both throw, never fall back.
const ComputeBackend& resolve_locked(const Registry& r,
                                     const std::string& name,
                                     const char* origin) {
  const ComputeBackend* b = lookup_locked(r, name);
  if (b == nullptr) {
    throw UsageError(std::string(origin) + " names unknown compute backend '" +
                     name + "' (registered: " + known_names_locked(r) + ")");
  }
  if (!b->supported()) {
    throw UsageError(std::string(origin) + " names compute backend '" + name +
                     "', which this CPU does not support");
  }
  return *b;
}

}  // namespace

std::string backend_name_from_env(const char* env_backend) {
  if (env_backend != nullptr && env_backend[0] != '\0') {
    return env_backend;
  }
  return "";
}

void reject_retired_simd_env(const char* env_simd) {
  if (env_simd != nullptr && env_simd[0] != '\0') {
    throw UsageError(
        "HPNN_SIMD is no longer read (it was set to '" +
        std::string(env_simd) +
        "'); use HPNN_BACKEND=scalar to force the scalar backend, "
        "HPNN_BACKEND=<name> for another tier, or unset HPNN_SIMD to "
        "auto-pick");
  }
}

void register_compute_backend(std::unique_ptr<ComputeBackend> backend) {
  HPNN_CHECK(backend != nullptr, "cannot register a null compute backend");
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.backends) {
    HPNN_CHECK(b->name() != backend->name(),
               "compute backend '" + backend->name() +
                   "' is already registered");
  }
  r.backends.push_back(std::move(backend));
}

std::vector<std::string> compute_backend_names() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> names;
  names.reserve(r.backends.size());
  for (const auto& b : r.backends) {
    names.push_back(b->name());
  }
  return names;
}

const ComputeBackend* find_compute_backend(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  return lookup_locked(r, name);
}

const ComputeBackend& compute_backend_by_name(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  const ComputeBackend* b = lookup_locked(r, name);
  if (b == nullptr) {
    throw UsageError("unknown compute backend '" + name +
                     "' (registered: " + known_names_locked(r) + ")");
  }
  return *b;
}

const ComputeBackend& active_compute_backend() {
  const ComputeBackend* active = g_active.load(std::memory_order_acquire);
  if (active != nullptr) {
    return *active;
  }
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  active = g_active.load(std::memory_order_acquire);
  if (active != nullptr) {
    return *active;
  }
  HPNN_CHECK(!r.backends.empty(),
             "no compute backends registered (the tensor layer registers "
             "the built-ins on first use)");
  reject_retired_simd_env(std::getenv("HPNN_SIMD"));
  const std::string forced = backend_name_from_env(std::getenv("HPNN_BACKEND"));
  const ComputeBackend* chosen = nullptr;
  if (!forced.empty()) {
    chosen = &resolve_locked(r, forced, "environment");
  } else {
    chosen = auto_pick_locked(r);
    HPNN_CHECK(chosen != nullptr,
               "no registered compute backend is supported on this CPU");
  }
  g_active.store(chosen, std::memory_order_release);
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
  return *chosen;
}

void set_active_compute_backend(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  const ComputeBackend& chosen = resolve_locked(r, name, "--backend");
  g_active.store(&chosen, std::memory_order_release);
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
}

std::uint64_t compute_backend_epoch() {
  return g_epoch.load(std::memory_order_acquire);
}

}  // namespace hpnn::core
