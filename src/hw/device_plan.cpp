#include "hw/device_plan.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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
      finite(conv->weight().value, conv->name() + " weight");
      finite(conv->bias(), conv->name() + " bias");
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
      finite(fc->weight().value, fc->name() + " weight");
      finite(fc->bias(), fc->name() + " bias");
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
      finite(bn->gamma().value, bn->name() + " gamma");
      finite(bn->beta().value, bn->name() + " beta");
      finite(bn->running_mean(), bn->name() + " running mean");
      finite(bn->running_var(), bn->name() + " running variance");
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

  /// A NaN or infinite parameter would reach the drain as a NaN activation
  /// (0 * inf), which int8 max-pooling does not order like float.
  static void finite(const Tensor& t, const std::string& what) {
    expect(std::all_of(t.data(), t.data() + t.numel(),
                       [](float v) { return std::isfinite(v); }),
           what + " is not finite");
  }
  static void finite(const nn::Parameter* p, const std::string& what) {
    if (p != nullptr) {
      finite(p->value, what);
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
      const float scale = scales_[static_cast<std::size_t>(op.mac_index)];
      expect(scale > 0.0f && std::isfinite(scale),
             "activation scale " + std::to_string(op.mac_index) +
                 " is not a finite positive number");
      op.static_scale = scale;
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

/// One output row of a 2x2/2 max-pool over the int8 rows r0 and r1.
/// x86-64's baseline SSE2 has no signed byte max, so a compare and select
/// makes the vertical max and 16-bit lanes the horizontal one: 8 outputs
/// per vector, which suits the short rows of a conv's output planes.
void maxpool_row_2x2(const std::int8_t* r0, const std::int8_t* r1,
                     std::int8_t* o, std::int64_t ow) {
  std::int64_t x = 0;
#if defined(__SSE2__)
  for (; x + 8 <= ow; x += 8) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + 2 * x));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1 + 2 * x));
    const __m128i gt = _mm_cmpgt_epi8(a, b);
    const __m128i t =
        _mm_or_si128(_mm_and_si128(gt, a), _mm_andnot_si128(gt, b));
    const __m128i even = _mm_srai_epi16(_mm_slli_epi16(t, 8), 8);
    const __m128i odd = _mm_srai_epi16(t, 8);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(o + x),
                     _mm_packs_epi16(_mm_max_epi16(even, odd),
                                     _mm_setzero_si128()));
  }
#endif
  for (; x < ow; ++x) {
    o[x] = std::max(std::max(r0[2 * x], r0[2 * x + 1]),
                    std::max(r1[2 * x], r1[2 * x + 1]));
  }
}

bool is_mac(const Op& op) {
  return op.kind == Kind::kConv || op.kind == Kind::kLinear;
}

/// Dense layout of a [C, H, W] or flat [F] activation.
DevicePlan::I8Layout dense_layout(const Shape& shape) {
  const bool planar = shape.rank() == 3;
  const std::int64_t h = planar ? shape.dim(1) : 1;
  const std::int64_t w = planar ? shape.dim(2) : 1;
  return {shape.numel(), h * w, w, 0, false};
}

/// The layout MAC op `consumer` reads an int8 input of `shape` in: a
/// stride-1 conv its zero-bordered input plane (the window offsets' base),
/// anything else the dense activation.
DevicePlan::I8Layout input_layout(const Op& consumer, const Shape& shape) {
  const auto& g = consumer.geometry;
  if (consumer.kind != Kind::kConv || g.stride != 1 || g.padding == 0) {
    return dense_layout(shape);
  }
  const std::int64_t hp = g.in_h + 2 * g.padding;
  const std::int64_t wp = g.in_w + 2 * g.padding;
  return {g.in_channels * hp * wp, hp * wp, wp, g.padding * wp + g.padding,
          true};
}

/// Decides every activation edge's format (see DevicePlan): marks each
/// int8 chain MAC -> {max-pool, flatten}* -> static-scale MAC, gives its
/// ops alternating buffers, and lays the chain's last write out as its
/// consumer reads it.
void plan_edges(DevicePlan& plan) {
  auto& ops = plan.ops;
  const auto count = static_cast<std::int64_t>(ops.size());
  for (std::int64_t i = 0; i < count; ++i) {
    if (!is_mac(ops[i])) {
      continue;
    }
    // Every zoo architecture pools 2x2/2; another window keeps the edge
    // float rather than carry a second int8 pool loop.
    const auto pool2 = [](const Op& op) {
      return op.kind == Kind::kMaxPool && op.geometry.kernel == 2 &&
             op.geometry.stride == 2;
    };
    std::int64_t j = i + 1;
    while (j < count && (pool2(ops[j]) || ops[j].kind == Kind::kFlatten)) {
      ++j;
    }
    if (j == count || !is_mac(ops[j]) || !ops[j].static_scale) {
      continue;
    }
    ops[i].next_mac = j;
    // A MAC op writes the buffer it does not read; each pool flips again.
    int slot = i > 0 && ops[i - 1].i8_out ? 1 - ops[i - 1].slot : 0;
    std::int64_t writer = i;
    for (std::int64_t k = i; k < j; ++k) {
      if (k > i && ops[k].kind == Kind::kMaxPool) {
        slot = 1 - slot;
        writer = k;
      }
      ops[k].i8_out = true;
      ops[k].slot = slot;
      ops[k].layout = dense_layout(ops[k].out_shape);
    }
    const DevicePlan::I8Layout in =
        input_layout(ops[j], ops[writer].out_shape);
    for (std::int64_t k = writer; k < j; ++k) {
      ops[k].layout = in;  // the writer and the flattens after it
    }
    for (std::int64_t k = i; k < j; ++k) {
      std::int64_t& bytes = plan.slot_bytes[ops[k].slot];
      bytes = std::max(bytes, ops[k].layout.sample);
    }
  }
}

/// One inference's state: the float activation register (the caller's
/// images until an op replaces them), the int8 buffers and the scale the
/// pending int8 edge was quantized with.
class Run {
 public:
  Run(const DevicePlan& plan, const Tensor& images, Mmu& mmu,
      FaultInjector* fault)
      : plan_(plan),
        be_(*plan.backend),
        mmu_(mmu),
        fault_(fault),
        batch_(images.dim(0)),
        x_(&images) {
    for (int s = 0; s < 2; ++s) {
      if (plan.slot_bytes[s] > 0) {
        slots_[s] = reinterpret_cast<std::int8_t*>(scope_.bytes(
            static_cast<std::size_t>(batch_ * plan.slot_bytes[s])));
      }
    }
  }

  Tensor run() {
    const Op* prev = nullptr;
    for (const Op& op : plan_.ops) {
      step(op, prev);
      prev = &op;
    }
    if (x_ != &owned_) {
      return *x_;
    }
    return std::move(owned_);
  }

 private:
  void step(const Op& op, const Op* prev) {
    const bool i8_in = prev != nullptr && prev->i8_out;
    switch (op.kind) {
      case Kind::kConv:
        conv(op, i8_in ? prev : nullptr);
        break;
      case Kind::kLinear:
        linear(op, i8_in ? prev : nullptr);
        break;
      case Kind::kRelu:
        relu(op, own());
        break;
      case Kind::kBatchNorm:
        // Stateless running-stats normalization owned by nn::BatchNorm2d.
        set(op.bn->eval_forward(*x_));
        break;
      case Kind::kMaxPool:
        if (i8_in) {
          maxpool_i8(op, *prev);
        } else {
          set(ops::maxpool2d_values(*x_, op.geometry.kernel,
                                    op.geometry.stride));
        }
        break;
      case Kind::kAvgPool:
        set(ops::avgpool2d_forward(*x_, op.geometry.kernel,
                                   op.geometry.stride));
        break;
      case Kind::kGlobalAvgPool:
        set(ops::global_avgpool_forward(*x_));
        break;
      case Kind::kFlatten:
        if (!i8_in) {  // an int8 flatten moves nothing
          set(x_->reshaped(Shape{batch_, op.out_shape.numel()}));
        }
        break;
      case Kind::kFork:
        skips_.push_back(*x_);
        break;
      case Kind::kSwap:
        std::swap(own(), skips_.back());
        break;
      case Kind::kJoin:
        own().add_(skips_.back());  // main branch += skip, on the vector unit
        skips_.pop_back();
        break;
    }
  }

  void set(Tensor t) {
    owned_ = std::move(t);
    x_ = &owned_;
  }

  /// The float activation, copied out of the caller's images before an op
  /// changes it in place.
  Tensor& own() {
    if (x_ != &owned_) {
      set(*x_);
    }
    return owned_;
  }

  /// Per-sample work of one op: fans out over the pool, or runs serially
  /// with a fault injector (its draws follow GEMM issue order) or one
  /// sample.
  template <typename Fn>
  void samples(Fn&& fn) {
    if (fault_ != nullptr || batch_ == 1) {
      fn(std::int64_t{0}, batch_);
    } else {
      core::parallel_for(0, batch_, 1, fn);
    }
  }

  /// Op `mac`'s static scale register as the datapath reads it: faulted
  /// once per call, before its first use.
  float static_scale(const Op& mac) const {
    float scale = *mac.static_scale;
    if (fault_ != nullptr) {
      scale = fault_->corrupt_scale(scale, mac.mac_index);
    }
    HPNN_CHECK(scale > 0.0f, "quantization scale must be positive");
    return scale;
  }

  /// A MAC op's input scale and, for a float input, the inverse scale to
  /// quantize it with: the static scale when the artifact ships one, else
  /// the dynamic per-batch scale, faulted after quantization. An int8
  /// input arrives quantized with the scale its producer read.
  struct InputScale {
    float drain = 0.0f;
    float inv = 0.0f;
  };
  InputScale input_scale(const Op& op, bool i8_in) const {
    if (i8_in) {
      return {i8_scale_, 0.0f};
    }
    if (op.static_scale) {
      const float scale = static_scale(op);
      return {scale, 1.0f / scale};
    }
    const float scale = dynamic_scale(x_->data(), x_->numel());
    return {fault_ != nullptr ? fault_->corrupt_scale(scale, op.mac_index)
                              : scale,
            1.0f / scale};
  }

  /// Where a MAC op's output goes: for an int8 edge, the next MAC layer's
  /// scale (read now, before its first use) and its inverse; for a float
  /// edge, a new [N, out_shape] tensor.
  struct Output {
    Tensor tensor;
    float scale = 0.0f;
    float inv = 0.0f;
  };
  Output open_output(const Op& op) const {
    Output out;
    if (op.i8_out) {
      out.scale =
          static_scale(plan_.ops[static_cast<std::size_t>(op.next_mac)]);
      out.inv = 1.0f / out.scale;
      return out;
    }
    // Every per-sample shape in a plan is [F] or [C, H, W].
    const Shape& s = op.out_shape;
    out.tensor = Tensor(s.rank() == 1
                            ? Shape{batch_, s.dim(0)}
                            : Shape{batch_, s.dim(0), s.dim(1), s.dim(2)});
    return out;
  }

  /// Commits a MAC op's output: the float tensor, or the scale its int8
  /// edge now carries.
  void finish(const Op& op, Output& out) {
    if (op.i8_out) {
      i8_scale_ = out.scale;
    } else {
      set(std::move(out.tensor));
    }
  }

  /// Drains sample n's accumulators [rows of op.out_shape] with the
  /// epilogue: requantized into its int8 buffer as op.layout lays it out,
  /// or into the float output.
  void drain(const Op& op, const std::int32_t* acc, std::int64_t n,
             float scale, Output& out) const {
    const std::int64_t numel = op.out_shape.numel();
    const float inv = out.inv;
    if (!op.i8_out) {
      be_.drain_i32(acc, numel, scale, op.sign_bias.data(), op.relu,
                    out.tensor.data() + n * numel);
      return;
    }
    const DevicePlan::I8Layout& l = op.layout;
    std::int8_t* dst = slots_[op.slot] + n * l.sample;
    if (!l.bordered) {
      be_.drain_i8(acc, numel, scale, op.sign_bias.data(), op.relu, inv, dst);
      return;
    }
    std::fill(dst, dst + l.sample, std::int8_t{0});
    const std::int64_t h = op.out_shape.dim(1);
    const std::int64_t w = op.out_shape.dim(2);
    for (std::int64_t r = 0; r < op.out_shape.dim(0) * h; ++r) {
      be_.drain_i8(acc + r * w, w, scale, op.sign_bias.data() + r * w,
                   op.relu, inv,
                   dst + l.origin + (r / h) * l.channel + (r % h) * l.pitch);
    }
  }

  void conv(const Op& op, const Op* i8_src) {
    const auto& g = op.geometry;
    const std::int64_t ckk = op.weights.cols;
    const std::int64_t out_w = g.out_w();
    const std::int64_t cols = g.out_h() * out_w;
    const std::int64_t out_sample = op.out_shape.numel();
    const std::int64_t pad = g.padding;
    const std::int64_t hp = g.in_h + 2 * pad;
    const std::int64_t wp = g.in_w + 2 * pad;
    const std::int64_t in_sample = g.in_channels * g.in_h * g.in_w;
    // What the window reads per sample: the zero-bordered input plane
    // (stride 1; the quantized sample itself when unpadded) or the im2col
    // matrix (any other stride).
    const bool unit_stride = g.stride == 1;
    const std::int64_t operand =
        unit_stride ? g.in_channels * hp * wp : ckk * cols;
    const InputScale in = input_scale(op, i8_src != nullptr);
    Output out = open_output(op);
    const float out_scale = op.weight_scale * in.drain;
    // Per-sample MMU tiles are independent, so the batch fans out with
    // per-chunk scratch; integer arithmetic is exact, so results do not
    // depend on the partition.
    samples([&](std::int64_t n0, std::int64_t n1) {
      core::ScratchArena::Scope chunk;
      // A float input is quantized per sample: straight into the padded
      // plane's interior (its border stays zero across samples), or into a
      // dense sample an unpadded or strided conv reads.
      std::int8_t* plane = nullptr;
      std::int8_t* dense = nullptr;
      if (i8_src == nullptr && unit_stride && pad > 0) {
        plane = reinterpret_cast<std::int8_t*>(
            chunk.bytes(static_cast<std::size_t>(operand)));
        std::fill(plane, plane + operand, std::int8_t{0});
      } else if (i8_src == nullptr) {
        dense = reinterpret_cast<std::int8_t*>(
            chunk.bytes(static_cast<std::size_t>(in_sample)));
      }
      std::int8_t* cols_buf = nullptr;
      if (!unit_stride) {
        cols_buf = reinterpret_cast<std::int8_t*>(
            chunk.bytes(static_cast<std::size_t>(operand)));
      }
      auto* acc = reinterpret_cast<std::int32_t*>(chunk.bytes(
          static_cast<std::size_t>(out_sample) * sizeof(std::int32_t)));
      for (std::int64_t n = n0; n < n1; ++n) {
        const std::int8_t* sample = nullptr;
        if (i8_src != nullptr) {
          sample = slots_[i8_src->slot] + n * i8_src->layout.sample;
        } else if (plane != nullptr) {
          const float* x = x_->data() + n * in_sample;
          for (std::int64_t r = 0; r < g.in_channels * g.in_h; ++r) {
            const std::int64_t c = r / g.in_h;
            be_.quantize_i8(x + r * g.in_w, g.in_w, in.inv,
                            plane + (c * hp + r % g.in_h + pad) * wp + pad);
          }
          sample = plane;
        } else {
          be_.quantize_i8(x_->data() + n * in_sample, in_sample, in.inv,
                          dense);
          sample = dense;
        }
        if (!unit_stride) {
          ops::im2col(sample, g, cols_buf);
          sample = cols_buf;
        }
        const core::I8Window window{sample,
                                    static_cast<std::size_t>(operand),
                                    cols,
                                    op.window.data(),
                                    unit_stride ? out_w : cols,
                                    unit_stride ? wp : cols};
        mmu_.matmul_i8_prepared(op.weights, window, op.negate,
                                op.locked_outputs,
                                {acc, static_cast<std::size_t>(out_sample)});
        drain(op, acc, n, out_scale, out);
      }
    });
    finish(op, out);
  }

  void linear(const Op& op, const Op* i8_src) {
    const std::int64_t in_f = op.weights.rows;
    const std::int64_t out_f = op.weights.cols;
    const auto outputs = static_cast<std::size_t>(batch_ * out_f);
    core::ScratchArena::Scope scope;
    const InputScale in = input_scale(op, i8_src != nullptr);
    const std::int8_t* rows = nullptr;
    if (i8_src != nullptr) {
      rows = slots_[i8_src->slot];
    } else {
      auto* xq = reinterpret_cast<std::int8_t*>(
          scope.bytes(static_cast<std::size_t>(batch_ * in_f)));
      be_.quantize_i8(x_->data(), batch_ * in_f, in.inv, xq);
      rows = xq;
    }
    Output out = open_output(op);
    // The per-sample key bits, tiled across the batch rows.
    std::span<const std::uint8_t> negate;
    if (!op.negate.empty()) {
      auto* tiled = reinterpret_cast<std::uint8_t*>(scope.bytes(outputs));
      for (std::int64_t n = 0; n < batch_; ++n) {
        std::copy(op.negate.begin(), op.negate.end(), tiled + n * out_f);
      }
      negate = {tiled, outputs};
    }
    auto* acc = reinterpret_cast<std::int32_t*>(
        scope.bytes(outputs * sizeof(std::int32_t)));
    const core::I8Window window{
        rows, static_cast<std::size_t>(batch_ * in_f), batch_};
    mmu_.matmul_i8_prepared(
        op.weights, window, negate,
        op.locked_outputs * static_cast<std::uint64_t>(batch_),
        {acc, outputs});
    for (std::int64_t n = 0; n < batch_; ++n) {
      drain(op, acc + n * out_f, n, op.weight_scale * in.drain, out);
    }
    finish(op, out);
  }

  /// 2x2/2 max-pools the int8 activation `src` left, sample by sample,
  /// into op's buffer. quantize_i8 is monotone (scale, clamp, round) on
  /// every value but NaN, and a drain never produces NaN from the finite
  /// parameters load admits, so this equals pooling in float and then
  /// quantizing.
  void maxpool_i8(const Op& op, const Op& src) {
    const DevicePlan::I8Layout& li = src.layout;
    const DevicePlan::I8Layout& lo = op.layout;
    const std::int64_t rows = op.out_shape.dim(0) * op.out_shape.dim(1);
    const std::int64_t oh = op.out_shape.dim(1);
    const std::int64_t ow = op.out_shape.dim(2);
    samples([&](std::int64_t n0, std::int64_t n1) {
      for (std::int64_t n = n0; n < n1; ++n) {
        const std::int8_t* in = slots_[src.slot] + n * li.sample + li.origin;
        std::int8_t* out = slots_[op.slot] + n * lo.sample;
        if (lo.bordered) {
          std::fill(out, out + lo.sample, std::int8_t{0});
        }
        out += lo.origin;
        for (std::int64_t r = 0; r < rows; ++r) {
          const std::int64_t c = r / oh;
          const std::int64_t y = r % oh;
          const std::int8_t* r0 = in + c * li.channel + 2 * y * li.pitch;
          maxpool_row_2x2(r0, r0 + li.pitch,
                          out + c * lo.channel + y * lo.pitch, ow);
        }
      }
    });
  }

  /// The on-chip activation module, with the lock sign applied at its
  /// input when the activation is fed by a vector-unit op.
  static void relu(const Op& op, Tensor& x) {
    const std::int64_t per_sample = op.out_shape.numel();
    float* d = x.data();
    for (std::int64_t n = 0; n < x.dim(0); ++n, d += per_sample) {
      for (std::int64_t i = 0; i < per_sample; ++i) {
        const float v = op.mask.empty() ? d[i] : d[i] * op.mask[i];
        d[i] = std::max(v, 0.0f);
      }
    }
  }

  core::ScratchArena::Scope scope_;  // holds the int8 buffers
  const DevicePlan& plan_;
  const core::ComputeBackend& be_;
  Mmu& mmu_;
  FaultInjector* fault_;
  std::int64_t batch_;
  const Tensor* x_;  // the float activation
  Tensor owned_;
  std::vector<Tensor> skips_;
  std::int8_t* slots_[2] = {nullptr, nullptr};
  float i8_scale_ = 0.0f;  // the pending int8 edge's activation scale
};

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
  plan_edges(*plan);
  plan->net = std::move(net);
  return plan;
}

Tensor run_plan(const DevicePlan& plan, const Tensor& images, Mmu& mmu,
                FaultInjector* fault) {
  return Run(plan, images, mmu, fault).run();
}

}  // namespace hpnn::hw
