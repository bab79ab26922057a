#include "hw/device_plan.hpp"

#include <algorithm>
#include <utility>

#include "core/aligned_buffer.hpp"
#include "core/error.hpp"
#include "core/threadpool.hpp"
#include "hw/fault.hpp"
#include "hw/mmu.hpp"
#include "hw/quant.hpp"
#include "nn/batchnorm.hpp"
#include "nn/layers.hpp"
#include "nn/residual.hpp"

namespace hpnn::hw {

namespace {

using Kind = DevicePlan::Kind;
using Op = DevicePlan::Op;

/// Lowers an nn::Module graph into plan ops, tracking the per-sample
/// activation shape so every layer is checked against its input once, at
/// load. Lock placement mirrors the owner's LockedModel: a MAC layer that
/// feeds a ReLU applies the lock inside its keyed accumulators; a ReLU fed
/// by a vector-unit op applies it at the activation-unit input. Every ReLU
/// advances the activation index, every MAC layer the scale index.
class Lowering {
 public:
  Lowering(DevicePlan& plan, const std::vector<float>& scales, bool locks)
      : plan_(plan), scales_(scales), locks_(locks) {}

  void sequential(nn::Sequential& seq, Shape& shape) {
    bool fused = false;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      nn::Module* next = i + 1 < seq.size() ? &seq.at(i + 1) : nullptr;
      module(seq.at(i), next, fused, shape);
    }
  }

  void module(nn::Module& m, nn::Module* next, bool& fused, Shape& shape) {
    if (auto* seq = dynamic_cast<nn::Sequential*>(&m)) {
      sequential(*seq, shape);
    } else if (auto* res = dynamic_cast<nn::Residual*>(&m)) {
      const Shape in = shape;
      emit(Kind::kFork, shape);
      module(res->main(), nullptr, fused, shape);
      if (res->shortcut() != nullptr) {
        emit(Kind::kSwap, in);
        Shape skip = in;
        module(*res->shortcut(), nullptr, fused, skip);
        expect(skip == shape, "residual branches disagree in shape");
        emit(Kind::kSwap, shape);
      } else {
        expect(in == shape, "residual branch changes the shape");
      }
      emit(Kind::kJoin, shape);
      if (res->post() != nullptr) {
        bool no_fuse = false;
        module(*res->post(), nullptr, no_fuse, shape);
      }
    } else if (auto* conv = dynamic_cast<nn::Conv2d*>(&m)) {
      const auto& g = conv->geometry();
      expect(shape == Shape{g.in_channels, g.in_h, g.in_w},
             conv->name() + " does not fit input " + shape.to_string());
      shape = Shape{conv->out_channels(), g.out_h(), g.out_w()};
      const QuantizedTensor wq = quantize(conv->weight().value);
      Op& op = mac(Kind::kConv, wq.scale, conv->bias(), next, fused, shape);
      op.geometry = g;
      op.weights = plan_.backend->prepare_i8(
          wq.values.data(), conv->out_channels(),
          g.in_channels * g.kernel * g.kernel, core::PreparedI8::Side::kLeft);
      op.window = window_offsets(g);
    } else if (auto* fc = dynamic_cast<nn::Linear*>(&m)) {
      expect(shape.numel() == fc->in_features(),
             fc->name() + " does not fit input " + shape.to_string());
      const std::int64_t in_f = fc->in_features();
      const std::int64_t out_f = fc->out_features();
      shape = Shape{out_f};
      const QuantizedTensor wq = quantize(fc->weight().value);  // [out, in]
      Op& op = mac(Kind::kLinear, wq.scale, fc->bias(), next, fused, shape);
      // The MMU streams activations against [in, out] weights.
      std::vector<std::int8_t> wt(wq.values.size());
      for (std::int64_t o = 0; o < out_f; ++o) {
        for (std::int64_t i = 0; i < in_f; ++i) {
          wt[static_cast<std::size_t>(i * out_f + o)] =
              wq.values[static_cast<std::size_t>(o * in_f + i)];
        }
      }
      op.weights = plan_.backend->prepare_i8(wt.data(), in_f, out_f,
                                             core::PreparedI8::Side::kRight);
    } else if (dynamic_cast<nn::ReLU*>(&m) != nullptr) {
      if (!fused) {
        Op& op = emit(Kind::kRelu, shape);
        op.lock_index = locks_ ? activation_ : -1;
      }
      fused = false;
      ++activation_;
    } else if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) {
      expect(shape.rank() == 3 && shape.dim(0) == bn->channels(),
             bn->name() + " does not fit input " + shape.to_string());
      emit(Kind::kBatchNorm, shape).bn = bn;
    } else if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&m)) {
      window(Kind::kMaxPool, pool->kernel(), pool->stride(), shape);
    } else if (auto* apool = dynamic_cast<nn::AvgPool2d*>(&m)) {
      window(Kind::kAvgPool, apool->kernel(), apool->stride(), shape);
    } else if (dynamic_cast<nn::Flatten*>(&m) != nullptr) {
      shape = Shape{shape.numel()};
      emit(Kind::kFlatten, shape);
    } else if (dynamic_cast<nn::GlobalAvgPool*>(&m) != nullptr) {
      expect(shape.rank() == 3, "global pooling needs a [C, H, W] input");
      shape = Shape{shape.dim(0)};
      emit(Kind::kGlobalAvgPool, shape);
    } else if (dynamic_cast<nn::Dropout*>(&m) == nullptr) {  // identity
      HPNN_CHECK(false,
                 "trusted device cannot execute module '" + m.name() + "'");
    }
  }

 private:
  static void expect(bool ok, const std::string& what) {
    if (!ok) {
      throw SerializationError("artifact rejected by the device: " + what);
    }
  }

  /// A stride-1 conv reads its zero-bordered [C, Hp, Wp] input plane:
  /// row (c, ky, kx) of the window starts at (c * Hp + ky) * Wp + kx. Any
  /// other stride reads the dense im2col matrix, one row per p.
  static std::vector<std::int64_t> window_offsets(
      const ops::Conv2dGeometry& g) {
    const std::int64_t ckk = g.in_channels * g.kernel * g.kernel;
    if (g.stride != 1) {
      return core::dense_window_offsets(ckk, g.out_h() * g.out_w());
    }
    const std::int64_t hp = g.in_h + 2 * g.padding;
    const std::int64_t wp = g.in_w + 2 * g.padding;
    std::vector<std::int64_t> offsets;
    offsets.reserve(static_cast<std::size_t>(ckk));
    for (std::int64_t c = 0; c < g.in_channels; ++c) {
      for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
        for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
          offsets.push_back((c * hp + ky) * wp + kx);
        }
      }
    }
    return offsets;
  }

  Op& emit(Kind kind, const Shape& out_shape) {
    Op& op = plan_.ops.emplace_back();
    op.kind = kind;
    op.out_shape = out_shape;
    return op;
  }

  /// A MAC op with its bias expanded per output element and its static
  /// scale bound; decides the ReLU fusion and the accumulator lock.
  Op& mac(Kind kind, float weight_scale, nn::Parameter* bias,
          nn::Module* next, bool& fused, const Shape& out_shape) {
    Op& op = emit(kind, out_shape);
    op.weight_scale = weight_scale;
    op.mac_index = mac_++;
    if (op.mac_index < static_cast<std::int64_t>(scales_.size())) {
      op.static_scale = scales_[static_cast<std::size_t>(op.mac_index)];
    }
    const std::int64_t channels = out_shape.dim(0);
    const std::int64_t per_channel = out_shape.numel() / channels;
    op.bias.reserve(static_cast<std::size_t>(out_shape.numel()));
    for (std::int64_t c = 0; c < channels; ++c) {
      op.bias.insert(op.bias.end(), static_cast<std::size_t>(per_channel),
                     bias != nullptr ? bias->value.at(c) : 0.0f);
    }
    op.sign_bias = op.bias;
    if (dynamic_cast<nn::ReLU*>(next) != nullptr) {
      op.relu = true;
      fused = true;
      op.lock_index = locks_ ? activation_ : -1;
    }
    return op;
  }

  void window(Kind kind, std::int64_t kernel, std::int64_t stride,
              Shape& shape) {
    expect(shape.rank() == 3 && kernel >= 1 && stride >= 1 &&
               shape.dim(1) >= kernel && shape.dim(2) >= kernel,
           "pooling window does not fit input " + shape.to_string());
    shape = Shape{shape.dim(0), (shape.dim(1) - kernel) / stride + 1,
                  (shape.dim(2) - kernel) / stride + 1};
    Op& op = emit(kind, shape);
    op.geometry.kernel = kernel;
    op.geometry.stride = stride;
  }

  DevicePlan& plan_;
  const std::vector<float>& scales_;
  bool locks_;
  std::int64_t activation_ = 0;
  std::int64_t mac_ = 0;
};

/// Quantizes a MAC layer's input into `q` and returns the activation scale
/// as the drain reads it back: the calibrated static scale when the
/// artifact ships one, the dynamic per-batch scale otherwise. An injected
/// fault corrupts the static scale register before use (a zero scale trips
/// the positive-scale invariant) and the dynamic one after quantization.
float quantize_input(const Op& op, const Tensor& x,
                     const core::ComputeBackend& be, FaultInjector* fault,
                     std::int8_t* q) {
  float scale = 0.0f;
  if (op.static_scale) {
    scale = *op.static_scale;
    if (fault != nullptr) {
      scale = fault->corrupt_scale(scale, op.mac_index);
    }
    HPNN_CHECK(scale > 0.0f, "quantization scale must be positive");
  } else {
    scale = dynamic_scale(x.data(), x.numel());
  }
  be.quantize_i8(x.data(), x.numel(), 1.0f / scale, q);
  if (!op.static_scale && fault != nullptr) {
    scale = fault->corrupt_scale(scale, op.mac_index);
  }
  return scale;
}

Tensor run_conv(const Op& op, const Tensor& x, const core::ComputeBackend& be,
                Mmu& mmu, FaultInjector* fault) {
  const auto& g = op.geometry;
  const std::int64_t batch = x.dim(0);
  const std::int64_t ckk = op.weights.cols;
  const std::int64_t out_w = g.out_w();
  const std::int64_t cols = g.out_h() * out_w;
  const std::int64_t in_sample = x.numel() / batch;
  const std::int64_t out_sample = op.out_shape.numel();
  const std::int64_t pad = g.padding;
  const std::int64_t hp = g.in_h + 2 * pad;
  const std::int64_t wp = g.in_w + 2 * pad;
  // What the window reads per sample: the zero-bordered input plane
  // (stride 1; the quantized sample itself when unpadded) or the im2col
  // matrix (any other stride).
  const bool unit_stride = g.stride == 1;
  const std::int64_t operand =
      unit_stride ? g.in_channels * hp * wp : ckk * cols;
  core::ScratchArena::Scope scope;
  auto* xq = reinterpret_cast<std::int8_t*>(
      scope.bytes(static_cast<std::size_t>(x.numel())));
  const float out_scale =
      op.weight_scale * quantize_input(op, x, be, fault, xq);
  Tensor out(Shape{batch, op.out_shape.dim(0), g.out_h(), out_w});
  // Per-sample MMU tiles are independent, so the batch fans out over the
  // pool with per-chunk scratch; integer arithmetic is exact, so results do
  // not depend on the partition. With a fault injector attached the loop
  // stays serial: fault draws consume the injector's RNG in GEMM issue
  // order, which must match the single-threaded campaigns.
  auto sample_range = [&](std::int64_t n0, std::int64_t n1) {
    core::ScratchArena::Scope chunk;
    std::int8_t* buf = nullptr;
    if (!unit_stride || pad > 0) {
      buf = reinterpret_cast<std::int8_t*>(
          chunk.bytes(static_cast<std::size_t>(operand)));
    }
    if (unit_stride && pad > 0) {
      // The border stays zero; each sample overwrites only the interior.
      std::fill(buf, buf + operand, std::int8_t{0});
    }
    auto* acc = reinterpret_cast<std::int32_t*>(chunk.bytes(
        static_cast<std::size_t>(out_sample) * sizeof(std::int32_t)));
    core::I8Window window{buf, static_cast<std::size_t>(operand), cols,
                          op.window.data(), unit_stride ? out_w : cols,
                          unit_stride ? wp : cols};
    for (std::int64_t n = n0; n < n1; ++n) {
      const std::int8_t* sample = xq + n * in_sample;
      if (!unit_stride) {
        ops::im2col(sample, g, buf);
      } else if (pad == 0) {
        window.data = sample;
      } else {
        for (std::int64_t c = 0; c < g.in_channels; ++c) {
          for (std::int64_t y = 0; y < g.in_h; ++y) {
            const std::int8_t* src = sample + (c * g.in_h + y) * g.in_w;
            std::copy(src, src + g.in_w, buf + (c * hp + y + pad) * wp + pad);
          }
        }
      }
      mmu.matmul_i8_prepared(op.weights, window, op.negate,
                             op.locked_outputs,
                             {acc, static_cast<std::size_t>(out_sample)});
      be.drain_i32(acc, out_sample, out_scale, op.sign_bias.data(), op.relu,
                   out.data() + n * out_sample);
    }
  };
  if (fault != nullptr || batch == 1) {
    sample_range(0, batch);
  } else {
    core::parallel_for(0, batch, 1, sample_range);
  }
  return out;
}

Tensor run_linear(const Op& op, const Tensor& x,
                  const core::ComputeBackend& be, Mmu& mmu,
                  FaultInjector* fault) {
  const std::int64_t batch = x.dim(0);
  const std::int64_t out_f = op.weights.cols;
  const auto outputs = static_cast<std::size_t>(batch * out_f);
  core::ScratchArena::Scope scope;
  auto* xq = reinterpret_cast<std::int8_t*>(
      scope.bytes(static_cast<std::size_t>(x.numel())));
  const float out_scale =
      op.weight_scale * quantize_input(op, x, be, fault, xq);
  // The per-sample key bits, tiled across the batch rows.
  std::span<const std::uint8_t> negate;
  if (!op.negate.empty()) {
    auto* tiled = reinterpret_cast<std::uint8_t*>(scope.bytes(outputs));
    for (std::int64_t n = 0; n < batch; ++n) {
      std::copy(op.negate.begin(), op.negate.end(), tiled + n * out_f);
    }
    negate = {tiled, outputs};
  }
  auto* acc = reinterpret_cast<std::int32_t*>(
      scope.bytes(outputs * sizeof(std::int32_t)));
  const core::I8Window rows{xq, static_cast<std::size_t>(x.numel()), batch};
  mmu.matmul_i8_prepared(op.weights, rows, negate,
                         op.locked_outputs * static_cast<std::uint64_t>(batch),
                         {acc, outputs});
  Tensor out(Shape{batch, out_f});
  for (std::int64_t n = 0; n < batch; ++n) {
    be.drain_i32(acc + n * out_f, out_f, out_scale, op.sign_bias.data(),
                 op.relu, out.data() + n * out_f);
  }
  return out;
}

/// The on-chip activation module, with the lock sign applied at its input
/// when the activation is fed by a vector-unit op.
void run_relu(const Op& op, Tensor& x) {
  const std::int64_t per_sample = op.out_shape.numel();
  float* d = x.data();
  for (std::int64_t n = 0; n < x.dim(0); ++n, d += per_sample) {
    for (std::int64_t i = 0; i < per_sample; ++i) {
      const float v = op.mask.empty() ? d[i] : d[i] * op.mask[i];
      d[i] = std::max(v, 0.0f);
    }
  }
}

}  // namespace

std::unique_ptr<DevicePlan> compile_plan(std::shared_ptr<nn::Sequential> net,
                                         std::int64_t in_channels,
                                         std::int64_t image_size,
                                         const std::vector<float>& scales,
                                         bool activation_locks,
                                         const core::ComputeBackend& backend) {
  auto plan = std::make_unique<DevicePlan>();
  plan->backend = &backend;
  plan->in_channels = in_channels;
  plan->image_size = image_size;
  Shape shape{in_channels, image_size, image_size};
  Lowering(*plan, scales, activation_locks).sequential(*net, shape);
  plan->net = std::move(net);
  return plan;
}

Tensor run_plan(const DevicePlan& plan, const Tensor& images, Mmu& mmu,
                FaultInjector* fault) {
  const core::ComputeBackend& be = *plan.backend;
  const std::int64_t batch = images.dim(0);
  Tensor x = images;
  std::vector<Tensor> skips;
  for (const Op& op : plan.ops) {
    switch (op.kind) {
      case Kind::kConv:
        x = run_conv(op, x, be, mmu, fault);
        break;
      case Kind::kLinear:
        x = run_linear(op, x, be, mmu, fault);
        break;
      case Kind::kRelu:
        run_relu(op, x);
        break;
      case Kind::kBatchNorm:
        // Stateless running-stats normalization owned by nn::BatchNorm2d.
        x = op.bn->eval_forward(x);
        break;
      case Kind::kMaxPool:
        x = ops::maxpool2d_values(x, op.geometry.kernel, op.geometry.stride);
        break;
      case Kind::kAvgPool:
        x = ops::avgpool2d_forward(x, op.geometry.kernel, op.geometry.stride);
        break;
      case Kind::kGlobalAvgPool:
        x = ops::global_avgpool_forward(x);
        break;
      case Kind::kFlatten:
        x = x.reshaped(Shape{batch, op.out_shape.numel()});
        break;
      case Kind::kFork:
        skips.push_back(x);
        break;
      case Kind::kSwap:
        std::swap(x, skips.back());
        break;
      case Kind::kJoin:
        x.add_(skips.back());  // main branch += skip, on the vector unit
        skips.pop_back();
        break;
    }
  }
  return x;
}

}  // namespace hpnn::hw
