#include "replay.hpp"

#include <array>
#include <chrono>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "hpnn/locked_activation.hpp"
#include "hw/mmu.hpp"
#include "hw/quant.hpp"
#include "nn/layers.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using namespace hpnn;

namespace {

enum Primitive { kQuantize, kIm2col, kMatmul, kDequantize, kMaxpool, kCount };

constexpr const char* kNames[kCount] = {"hw.quantize", "tensor.im2col",
                                        "hw.mmu_matmul", "hw.dequantize",
                                        "tensor.maxpool"};

/// One MAC or pooling layer of the owner's network with its input.
struct Layer {
  nn::Module* module = nullptr;
  Tensor input;
  std::int64_t mac_index = -1;       // -1 for pooling layers
  hw::QuantizedTensor weights;       // conv [F, CKK]; linear [in, out]
  std::vector<std::uint8_t> negate;  // per-sample lock pattern, or empty
};

std::vector<std::uint8_t> pseudo_mask(std::int64_t n, Rng& rng) {
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(n));
  for (auto& m : mask) {
    m = rng.bernoulli(0.5) ? 1 : 0;
  }
  return mask;
}

std::vector<Layer> capture_layers(nn::Sequential& net, const Tensor& images) {
  std::vector<Layer> layers;
  Rng rng(7);
  Tensor x = images;
  std::int64_t mac = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    nn::Module& m = net.at(i);
    // The device keys a MAC layer's accumulators when a locked activation
    // follows it directly.
    const bool locked =
        i + 1 < net.size() &&
        dynamic_cast<obf::LockedActivation*>(&net.at(i + 1)) != nullptr;
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&m)) {
      Layer l{&m, x, mac++, hw::quantize(conv->weight().value), {}};
      const auto& g = conv->geometry();
      if (locked) {
        l.negate = pseudo_mask(conv->out_channels() * g.out_h() * g.out_w(),
                               rng);
      }
      layers.push_back(std::move(l));
    } else if (auto* fc = dynamic_cast<nn::Linear*>(&m)) {
      const hw::QuantizedTensor wq = hw::quantize(fc->weight().value);
      const std::int64_t in_f = fc->in_features();
      const std::int64_t out_f = fc->out_features();
      Layer l{&m, x, mac++, wq, {}};
      for (std::int64_t o = 0; o < out_f; ++o) {
        for (std::int64_t k = 0; k < in_f; ++k) {
          l.weights.values[static_cast<std::size_t>(k * out_f + o)] =
              wq.values[static_cast<std::size_t>(o * in_f + k)];
        }
      }
      if (locked) {
        l.negate = pseudo_mask(x.dim(0) * out_f, rng);
      }
      layers.push_back(std::move(l));
    } else if (dynamic_cast<nn::MaxPool2d*>(&m) != nullptr) {
      layers.push_back(Layer{&m, x, -1, {}, {}});
    }
    x = m.forward(x);
  }
  return layers;
}

/// Times `fn` and records it as a span named `name`; returns its duration
/// in µs.
template <typename Fn>
double timed(Tracer& tracer, const char* name, std::uint64_t rep, Fn&& fn) {
  Tracer::Span span(tracer, name, rep);
  const SteadyTime t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double us_between(SteadyTime a, SteadyTime b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Replays a conv layer on the device's schedule: one whole-batch
/// quantize, then one fused per-sample pass (im2col, keyed MMU matmul,
/// int32 drain) with per-chunk scratch, split over the pool when the batch
/// has more than one sample. Each sample times its three stages on its own
/// lane; the pass's wall time is divided among them in proportion to those
/// lane times, so the rows add up to the wall time the pass took.
void replay_conv(const Layer& l, float scale, Tracer& tracer,
                 std::uint64_t rep, hw::Mmu& mmu, double* t) {
  auto& conv = static_cast<nn::Conv2d&>(*l.module);
  const auto& g = conv.geometry();
  const std::int64_t batch = l.input.dim(0);
  const std::int64_t filters = conv.out_channels();
  const std::int64_t pixels = g.out_h() * g.out_w();
  const std::int64_t ckk = g.in_channels * g.kernel * g.kernel;
  const std::int64_t in_sample = g.in_channels * g.in_h * g.in_w;
  hw::QuantizedTensor xq;
  t[kQuantize] += timed(tracer, kNames[kQuantize], rep, [&] {
    xq = hw::quantize_with_scale(l.input, scale);
  });
  Tensor out(Shape{batch, filters, g.out_h(), g.out_w()});
  const float out_scale = l.weights.scale * xq.scale;
  const nn::Parameter* bias = conv.bias();
  // Lane time of im2col, matmul and drain for each sample.
  std::vector<std::array<double, 3>> lane(static_cast<std::size_t>(batch));
  auto sample_range = [&](std::int64_t n0, std::int64_t n1) {
    std::vector<std::int8_t> cols(static_cast<std::size_t>(ckk * pixels));
    std::vector<std::int32_t> acc(static_cast<std::size_t>(filters * pixels));
    for (std::int64_t n = n0; n < n1; ++n) {
      const SteadyTime t0 = std::chrono::steady_clock::now();
      ops::im2col(xq.values.data() + n * in_sample, g, cols.data());
      const SteadyTime t1 = std::chrono::steady_clock::now();
      mmu.matmul_i8(std::span<const std::int8_t>(l.weights.values), filters,
                    ckk, std::span<const std::int8_t>(cols), pixels,
                    std::span<const std::uint8_t>(l.negate),
                    std::span<std::int32_t>(acc));
      const SteadyTime t2 = std::chrono::steady_clock::now();
      float* dst = out.data() + n * filters * pixels;
      for (std::int64_t f = 0; f < filters; ++f) {
        const float b = bias ? bias->value.at(f) : 0.0f;
        for (std::int64_t p = 0; p < pixels; ++p) {
          const std::int64_t idx = f * pixels + p;
          const float sign =
              (!l.negate.empty() && l.negate[static_cast<std::size_t>(idx)])
                  ? -1.0f
                  : 1.0f;
          dst[idx] = static_cast<float>(acc[static_cast<std::size_t>(idx)]) *
                         out_scale +
                     sign * b;
        }
      }
      const SteadyTime t3 = std::chrono::steady_clock::now();
      lane[static_cast<std::size_t>(n)] = {us_between(t0, t1),
                                           us_between(t1, t2),
                                           us_between(t2, t3)};
    }
  };
  const double pass_us = timed(tracer, "replay.conv_pass", rep, [&] {
    if (batch == 1) {
      sample_range(0, 1);
    } else {
      core::parallel_for(0, batch, 1, sample_range);
    }
  });
  double stage[3] = {};
  for (const auto& s : lane) {
    for (std::size_t i = 0; i < 3; ++i) {
      stage[i] += s[i];
    }
  }
  const double lanes = stage[0] + stage[1] + stage[2];
  if (lanes > 0.0) {
    t[kIm2col] += pass_us * stage[0] / lanes;
    t[kMatmul] += pass_us * stage[1] / lanes;
    t[kDequantize] += pass_us * stage[2] / lanes;
  }
}

void replay_linear(const Layer& l, float scale, Tracer& tracer,
                   std::uint64_t rep, hw::Mmu& mmu,
                   double* t) {
  auto& fc = static_cast<nn::Linear&>(*l.module);
  const std::int64_t batch = l.input.dim(0);
  const std::int64_t in_f = fc.in_features();
  const std::int64_t out_f = fc.out_features();
  hw::QuantizedTensor xq;
  t[kQuantize] += timed(tracer, kNames[kQuantize], rep, [&] {
    xq = hw::quantize_with_scale(l.input.reshaped(Shape{batch, in_f}), scale);
  });
  std::vector<std::int32_t> acc(static_cast<std::size_t>(batch * out_f));
  t[kMatmul] += timed(tracer, kNames[kMatmul], rep, [&] {
    mmu.matmul_i8(std::span<const std::int8_t>(xq.values), batch, in_f,
                  std::span<const std::int8_t>(l.weights.values), out_f,
                  std::span<const std::uint8_t>(l.negate),
                  std::span<std::int32_t>(acc));
  });
  Tensor out(Shape{batch, out_f});
  const float out_scale = l.weights.scale * xq.scale;
  const nn::Parameter* bias = fc.bias();
  t[kDequantize] += timed(tracer, kNames[kDequantize], rep, [&] {
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t o = 0; o < out_f; ++o) {
        const std::size_t idx = static_cast<std::size_t>(n * out_f + o);
        const float b = bias ? bias->value.at(o) : 0.0f;
        const float sign = (!l.negate.empty() && l.negate[idx]) ? -1.0f : 1.0f;
        out.at(n, o) = static_cast<float>(acc[idx]) * out_scale + sign * b;
      }
    }
  });
}

}  // namespace

ReplayTimes replay_primitives(Artifact& artifact, const Tensor& images,
                              int reps, Tracer& tracer) {
  nn::Sequential& net = artifact.model->network();
  net.set_training(false);
  const std::vector<Layer> layers = capture_layers(net, images);
  hw::Mmu mmu;

  std::vector<double> per_rep[kCount];
  for (int rep = 0; rep < reps; ++rep) {
    const auto id = static_cast<std::uint64_t>(rep);
    double t[kCount] = {};
    Tracer::Span root(tracer, "replay", id);
    for (const Layer& l : layers) {
      if (auto* pool = dynamic_cast<nn::MaxPool2d*>(l.module)) {
        t[kMaxpool] += timed(tracer, kNames[kMaxpool], id,
                             [&] { (void)pool->forward(l.input); });
        continue;
      }
      const float scale =
          artifact.activation_scales.at(static_cast<std::size_t>(l.mac_index));
      if (dynamic_cast<nn::Conv2d*>(l.module) != nullptr) {
        replay_conv(l, scale, tracer, id, mmu, t);
      } else {
        replay_linear(l, scale, tracer, id, mmu, t);
      }
    }
    for (int p = 0; p < kCount; ++p) {
      per_rep[p].push_back(t[p]);
    }
  }
  ReplayTimes out;
  out.quantize_us = median(per_rep[kQuantize]);
  out.im2col_us = median(per_rep[kIm2col]);
  out.mmu_matmul_us = median(per_rep[kMatmul]);
  out.dequantize_us = median(per_rep[kDequantize]);
  out.maxpool_us = median(per_rep[kMaxpool]);
  return out;
}

}  // namespace perfbench
