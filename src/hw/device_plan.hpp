// The trusted device's compiled model (DESIGN.md §6, "Compiled execution
// plan", and §15): TrustedDevice::load_model lowers the artifact's nn::Module
// graph once into a DevicePlan — a flat op list with int8 weights prepared
// for one compute backend, per-output bias terms, bound static scales and
// decided MAC+ReLU fusion, conv window offsets, and each activation edge's
// format — and every inference is a const walk over it.
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
///
/// An activation edge is int8 when its consumer is a MAC layer with a
/// static scale and only the producer's fused ReLU, 2x2/2 max-pools or a
/// flatten sit between it and a MAC producer: the producer's drain requantizes
/// with the consumer's scale, max-pools run on int8, and the consumer reads
/// the bytes as they lie. Every other edge is float.
struct DevicePlan {
  enum class Kind {
    kConv, kLinear, kRelu, kBatchNorm, kMaxPool, kAvgPool, kGlobalAvgPool,
    kFlatten,
    kFork,  // push a copy of the activation (a residual block's input)
    kSwap,  // exchange the activation with the top of the skip stack
    kJoin,  // activation += popped skip (the vector unit's residual add)
  };
  /// Where an int8 activation lies in its per-call buffer: sample n's
  /// element (c, y, x) is at n * sample + origin + c * channel + y * pitch
  /// + x (a flat [F] activation is [F, 1, 1]). Dense unless the consumer is
  /// a padded stride-1 conv, which reads its zero-bordered [C, Hp, Wp]
  /// plane: then the activation fills the interior and `bordered` asks the
  /// writer to zero the rest of the sample first.
  struct I8Layout {
    std::int64_t sample = 0;
    std::int64_t channel = 0;
    std::int64_t pitch = 0;
    std::int64_t origin = 0;
    bool bordered = false;
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
    // The output edge's format. `i8_out`: the output stays int8 in per-call
    // buffer `slot` (the two alternate along a chain), laid out as
    // `layout`. A MAC op's drain then requantizes with the static scale of
    // op `next_mac`; a max-pool or flatten passes int8 through.
    bool i8_out = false;
    int slot = 0;
    I8Layout layout;
    std::int64_t next_mac = -1;
  };

  const core::ComputeBackend* backend = nullptr;
  std::shared_ptr<nn::Sequential> net;  // owns the batch-norm modules
  std::vector<Op> ops;
  /// Per-sample bytes of the two int8 activation buffers.
  std::int64_t slot_bytes[2] = {0, 0};
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
/// on `mmu`, layer by layer, each op fanning out over samples. The int8
/// activation buffers are carved from the calling thread's scratch arena.
/// With a fault injector the batch runs serially, so fault draws follow
/// GEMM issue order. A MAC layer's static scale register is read (and
/// faulted) once per call, before its first use: the upstream drain when
/// its input edge is int8.
Tensor run_plan(const DevicePlan& plan, const Tensor& images, Mmu& mmu,
                FaultInjector* fault);

}  // namespace hpnn::hw
