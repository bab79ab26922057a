// The trusted device's compiled model (DESIGN.md §6, "Compiled execution
// plan", and §15): TrustedDevice::load_model lowers the artifact's nn::Module
// graph once into a DevicePlan — a flat op list with int8 weights prepared
// for one compute backend, per-output bias terms, bound static scales and
// decided MAC+ReLU fusion, conv window offsets — and every inference is a
// const walk over it.
// The plan keeps the backend it was prepared on. Lock sites record the
// activation index and shape; the device fills their key-derived terms
// (negate bytes and their count, sign·bias, vector-unit masks) from its
// sealed key.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/compute_backend.hpp"
#include "nn/module.hpp"
#include "tensor/ops.hpp"

namespace hpnn::nn {
class BatchNorm2d;
}  // namespace hpnn::nn

namespace hpnn::hw {

class FaultInjector;
class Mmu;

/// The compiled model: a flat op list over one activation register plus a
/// stack of residual skips. Immutable once built, so inference only reads
/// it. A lock site (`lock_index` >= 0) carries the key-derived terms
/// TrustedDevice fills from its sealed key.
struct DevicePlan {
  enum class Kind {
    kConv, kLinear, kRelu, kBatchNorm, kMaxPool, kAvgPool, kGlobalAvgPool,
    kFlatten,
    kFork,  // push a copy of the activation (a residual block's input)
    kSwap,  // exchange the activation with the top of the skip stack
    kJoin,  // activation += popped skip (the vector unit's residual add)
  };
  struct Op {
    Kind kind = Kind::kFlatten;
    Shape out_shape;  // per sample
    // kConv / kLinear: weights prepared on `backend`, the epilogue terms.
    core::PreparedI8 weights;
    float weight_scale = 1.0f;
    std::int64_t mac_index = 0;  // static-scale register and fault site
    std::optional<float> static_scale;
    std::vector<float> bias;       // per output element
    std::vector<float> sign_bias;  // lock sign x bias per output element
    std::vector<std::uint8_t> negate;  // key bit per output; empty = none
    std::uint64_t locked_outputs = 0;  // set bytes in `negate`
    bool relu = false;                 // the next ReLU, fused into the drain
    // kConv geometry; pools use its kernel and stride.
    ops::Conv2dGeometry geometry;
    // kConv: the GEMM's window row offsets (core::I8Window), one per
    // (c, ky, kx). Stride 1: into the sample's zero-bordered input plane;
    // other strides: into the sample's im2col matrix.
    std::vector<std::int64_t> window;
    // kRelu at the vector unit: per-element ±1 lock factors (may be empty).
    std::vector<float> mask;
    std::int64_t lock_index = -1;
    const nn::BatchNorm2d* bn = nullptr;
  };

  const core::ComputeBackend* backend = nullptr;
  std::shared_ptr<nn::Sequential> net;  // owns the batch-norm modules
  std::vector<Op> ops;
  std::int64_t in_channels = 0;
  std::int64_t image_size = 0;
};

/// Lowers `net` (eval mode) into a plan for inputs of per-sample shape
/// [in_channels, image_size, image_size], with int8 weights prepared on
/// `backend`. `scales` are the artifact's static activation scales (one per
/// MAC layer; a shorter list leaves the rest dynamic); `activation_locks`
/// marks lock sites for schemes that lock activations. Lock terms start
/// unlocked. Throws SerializationError when a layer does not fit its input.
std::unique_ptr<DevicePlan> compile_plan(std::shared_ptr<nn::Sequential> net,
                                         std::int64_t in_channels,
                                         std::int64_t image_size,
                                         const std::vector<float>& scales,
                                         bool activation_locks,
                                         const core::ComputeBackend& backend);

/// Runs the plan on a [N, C, H, W] batch of the plan's geometry, every MAC
/// on `mmu`. With a fault injector the batch runs serially, so fault draws
/// follow GEMM issue order.
Tensor run_plan(const DevicePlan& plan, const Tensor& images, Mmu& mmu,
                FaultInjector* fault);

}  // namespace hpnn::hw
