// The scalar reference backend: portable C++ kernels with the identical
// blocking, loop structure, and per-element accumulation order as the SIMD
// tiers (the float paths differ from them only in FMA rounding). This is
// the tier every conformance contract is stated against, and the fallback
// auto-pick on CPUs without AVX2.
#include <algorithm>

#include "tensor/backends/backends.hpp"
#include "tensor/backends/micro_common.hpp"

namespace hpnn::ops {

namespace {

/// Microtile matching the AVX2 tier's 6x16 so the two share packed-panel
/// geometry (a property the thread-pool chunking tests rely on when
/// comparing the tiers' partitions, not their bits).
constexpr std::int64_t kScalarMR = 6;
constexpr std::int64_t kScalarNR = 16;

class ScalarBackend final : public core::ComputeBackend {
 public:
  std::string name() const override { return "scalar"; }
  std::string description() const override {
    return "portable scalar reference kernels (always supported)";
  }
  bool supported() const override { return true; }
  int priority() const override { return 0; }

  std::int64_t gemm_mr() const override { return kScalarMR; }
  std::int64_t gemm_nr() const override { return kScalarNR; }

  void gemm_micro(const float* ap, const float* bp, std::int64_t k, float* c,
                  std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                  float beta) const override {
    float acc[kScalarMR][kScalarNR] = {};
    for (std::int64_t p = 0; p < k; ++p) {
      const float* brow = bp + p * kScalarNR;
      const float* arow = ap + p * kScalarMR;
      for (std::int64_t r = 0; r < kScalarMR; ++r) {
        const float av = arow[r];
        for (std::int64_t j = 0; j < kScalarNR; ++j) {
          acc[r][j] += av * brow[j];
        }
      }
    }
    backends::merge_tile(&acc[0][0], kScalarNR, c, ldc, mr, nr, beta);
  }

  void relu(const float* x, float* y, std::int64_t n) const override {
    for (std::int64_t i = 0; i < n; ++i) {
      y[i] = std::max(x[i], 0.0f);
    }
  }

  void relu_mask(const float* x, float* g, std::int64_t n) const override {
    for (std::int64_t i = 0; i < n; ++i) {
      g[i] = x[i] > 0.0f ? g[i] : 0.0f;
    }
  }

  void mul(const float* a, const float* b, float* y,
           std::int64_t n) const override {
    for (std::int64_t i = 0; i < n; ++i) {
      y[i] = a[i] * b[i];
    }
  }

  void axpy(float s, const float* x, float* y, std::int64_t n) const override {
    for (std::int64_t i = 0; i < n; ++i) {
      y[i] += s * x[i];
    }
  }

  void add_scalar(float s, float* y, std::int64_t n) const override {
    for (std::int64_t i = 0; i < n; ++i) {
      y[i] += s;
    }
  }

  float dot(const float* a, const float* b, std::int64_t n) const override {
    float sum = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) {
      sum += a[i] * b[i];
    }
    return sum;
  }

  void lock_relu_grad(const float* g, const float* z, const float* lock,
                      float* gx, std::int64_t n) const override {
    for (std::int64_t i = 0; i < n; ++i) {
      gx[i] = z[i] > 0.0f ? g[i] * lock[i] : 0.0f;
    }
  }
};

}  // namespace

std::unique_ptr<core::ComputeBackend> make_scalar_backend() {
  return std::make_unique<ScalarBackend>();
}

}  // namespace hpnn::ops
