// Microbenchmarks of the computational primitives (google-benchmark):
// GEMM, conv2d, locked vs plain activation, keyed accumulator fidelities,
// MMU int8 GEMM, the trusted device's CNN3 inference and per-layer conv
// GEMMs, and key expansion. These quantify the simulator itself —
// e.g. that the lock factor costs one multiply per activation on the float
// path and nothing on the integer path.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/compute_backend.hpp"
#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "hpnn/calibration.hpp"
#include "hpnn/locked_activation.hpp"
#include "hpnn/model_io.hpp"
#include "hpnn/scheduler.hpp"
#include "hw/accumulator.hpp"
#include "hw/device.hpp"
#include "hw/mmu.hpp"
#include "nn/layers.hpp"
#include "tensor/backend.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace hpnn;

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::normal(Shape{n, n}, rng);
  const Tensor b = Tensor::normal(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    ops::gemm(a, ops::Trans::kNo, b, ops::Trans::kNo, c, 1.0f, 0.0f);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// All four transpose combinations at one size. The packed kernel absorbs
// the transposes into the pack-stage strides (no materialized copies), so
// the variants should cluster — the historical T-paths paid an extra
// transpose2d allocation + copy each call.
void BM_GemmTrans(benchmark::State& state) {
  const auto ta = state.range(0) != 0 ? ops::Trans::kYes : ops::Trans::kNo;
  const auto tb = state.range(1) != 0 ? ops::Trans::kYes : ops::Trans::kNo;
  const std::int64_t n = 256;
  Rng rng(1);
  const Tensor a = Tensor::normal(Shape{n, n}, rng);
  const Tensor b = Tensor::normal(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    ops::gemm(a, ta, b, tb, c, 1.0f, 0.0f);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  state.SetLabel(std::string(ta == ops::Trans::kYes ? "T" : "N") +
                 (tb == ops::Trans::kYes ? "T" : "N"));
}
BENCHMARK(BM_GemmTrans)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

// Same GEMM at an explicit pool size — the scaling curve of the
// deterministic thread pool (outputs are bit-identical at every size).
void BM_GemmThreads(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  core::set_thread_count(threads);
  Rng rng(1);
  const Tensor a = Tensor::normal(Shape{n, n}, rng);
  const Tensor b = Tensor::normal(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    ops::gemm(a, ops::Trans::kNo, b, ops::Trans::kNo, c, 1.0f, 0.0f);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  state.SetLabel(std::to_string(threads) + " thread(s)");
  core::set_thread_count(0);  // restore the HPNN_THREADS default
}
BENCHMARK(BM_GemmThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8});

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(2);
  const ops::Conv2dGeometry g{16, 28, 28, 3, 1, 1};
  const Tensor x = Tensor::normal(Shape{8, 16, 28, 28}, rng);
  const Tensor w = Tensor::normal(Shape{32, 16, 3, 3}, rng);
  const Tensor b = Tensor::normal(Shape{32}, rng);
  for (auto _ : state) {
    Tensor out = ops::conv2d_forward(x, w, b, g);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dForwardThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  core::set_thread_count(threads);
  Rng rng(2);
  const ops::Conv2dGeometry g{16, 28, 28, 3, 1, 1};
  const Tensor x = Tensor::normal(Shape{8, 16, 28, 28}, rng);
  const Tensor w = Tensor::normal(Shape{32, 16, 3, 3}, rng);
  const Tensor b = Tensor::normal(Shape{32}, rng);
  for (auto _ : state) {
    Tensor out = ops::conv2d_forward(x, w, b, g);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(std::to_string(threads) + " thread(s)");
  core::set_thread_count(0);
}
BENCHMARK(BM_Conv2dForwardThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Conv backward (dW, db and dX) on one thread at the training shapes of
/// CNN3 width 0.5 on 32x32 inputs, batch 32: arg 0 is 3->12 @32, 1 is
/// 12->8 @16, 2 is 8->7 @8 (3x3, stride 1, padding 1).
void BM_Conv2dBackward(benchmark::State& state) {
  struct Layer {
    std::int64_t in_ch, size, filters;
  };
  constexpr Layer kLayers[] = {{3, 32, 12}, {12, 16, 8}, {8, 8, 7}};
  const Layer& l = kLayers[state.range(0)];
  core::set_thread_count(1);
  Rng rng(6);
  const ops::Conv2dGeometry g{l.in_ch, l.size, l.size, 3, 1, 1};
  const Tensor x = Tensor::normal(Shape{32, l.in_ch, l.size, l.size}, rng);
  const Tensor w = Tensor::normal(Shape{l.filters, l.in_ch, 3, 3}, rng);
  const Tensor gout =
      Tensor::normal(Shape{32, l.filters, l.size, l.size}, rng);
  Tensor gw(w.shape());
  Tensor gb(Shape{l.filters});
  for (auto _ : state) {
    Tensor gx = ops::conv2d_backward(x, w, gout, g, gw, gb);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetLabel(std::to_string(l.in_ch) + "->" + std::to_string(l.filters) +
                 " @" + std::to_string(l.size));
  core::set_thread_count(0);
}
BENCHMARK(BM_Conv2dBackward)->Arg(0)->Arg(1)->Arg(2);

void BM_PlainRelu(benchmark::State& state) {
  Rng rng(3);
  nn::ReLU relu;
  const Tensor x = Tensor::normal(Shape{32, 4096}, rng);
  for (auto _ : state) {
    Tensor y = relu.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_PlainRelu);

void BM_LockedRelu(benchmark::State& state) {
  Rng rng(4);
  Tensor mask(Shape{4096});
  for (auto& v : mask.span()) {
    v = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  }
  obf::LockedActivation act("act", mask);
  const Tensor x = Tensor::normal(Shape{32, 4096}, rng);
  for (auto _ : state) {
    Tensor y = act.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_LockedRelu);

void BM_KeyedAccumulatorFast(benchmark::State& state) {
  hw::KeyedAccumulator acc(true, hw::Fidelity::kFast);
  std::int16_t p = 12345;
  for (auto _ : state) {
    acc.accumulate(p);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_KeyedAccumulatorFast);

void BM_KeyedAccumulatorBitLevel(benchmark::State& state) {
  hw::KeyedAccumulator acc(true, hw::Fidelity::kBitAccurate);
  std::int16_t p = 12345;
  for (auto _ : state) {
    acc.accumulate(p);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_KeyedAccumulatorBitLevel);

void BM_MmuGemmI8(benchmark::State& state) {
  const bool locked = state.range(0) != 0;
  Rng rng(5);
  const std::int64_t m = 32, k = 256, n = 256;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> w(static_cast<std::size_t>(k * n));
  for (auto& v : a) {
    v = static_cast<std::int8_t>(rng.uniform_index(255)) - 127;
  }
  for (auto& v : w) {
    v = static_cast<std::int8_t>(rng.uniform_index(255)) - 127;
  }
  std::vector<std::uint8_t> negate;
  if (locked) {
    negate.assign(static_cast<std::size_t>(m * n), 0);
    for (std::size_t i = 0; i < negate.size(); i += 2) {
      negate[i] = 1;
    }
  }
  std::vector<std::int32_t> out(static_cast<std::size_t>(m * n));
  hw::Mmu mmu;
  for (auto _ : state) {
    mmu.matmul_i8(a, m, k, w, n, negate, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(locked ? "locked" : "unlocked");
}
BENCHMARK(BM_MmuGemmI8)->Arg(0)->Arg(1);

void BM_KeyExpansion(benchmark::State& state) {
  Rng rng(6);
  const obf::HpnnKey key = obf::HpnnKey::random(rng);
  const obf::Scheduler sched(42);
  const obf::LockSpec spec{"act", 3, Shape{64, 28, 28}};
  for (auto _ : state) {
    Tensor mask = sched.lock_mask(spec, key);
    benchmark::DoNotOptimize(mask.data());
  }
  state.SetItemsProcessed(state.iterations() * spec.neuron_count());
}
BENCHMARK(BM_KeyExpansion);

// Per-backend variants of the two kernels whose implementation tiers
// differ most (float GEMM microtile, MMU int8 datapath). The registry is
// populated at runtime, so these register through RegisterBenchmark in
// main() rather than the static BENCHMARK macro — one row per supported
// backend, e.g. BM_GemmBackend/avx512/256.
void gemm_backend_body(benchmark::State& state, const std::string& backend) {
  ops::set_backend(backend);
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::normal(Shape{n, n}, rng);
  const Tensor b = Tensor::normal(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    ops::gemm(a, ops::Trans::kNo, b, ops::Trans::kNo, c, 1.0f, 0.0f);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}

/// The MMU's int8 GEMM on `backend`: hw::Mmu::matmul_i8, which lays the
/// weights out on every call, or with `prepared` the kernel alone against
/// weights laid out once, as a model load does.
void mmu_backend_body(benchmark::State& state, const std::string& backend,
                      bool prepared) {
  ops::set_backend(backend);
  Rng rng(5);
  const std::int64_t m = 32, k = 256, n = 256;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> w(static_cast<std::size_t>(k * n));
  for (auto& v : a) {
    v = static_cast<std::int8_t>(rng.uniform_index(255)) - 127;
  }
  for (auto& v : w) {
    v = static_cast<std::int8_t>(rng.uniform_index(255)) - 127;
  }
  std::vector<std::int32_t> out(static_cast<std::size_t>(m * n));
  hw::Mmu mmu;
  const core::PreparedI8 weights = ops::backend().prepare_i8(
      w.data(), k, n, core::PreparedI8::Side::kRight);
  for (auto _ : state) {
    if (prepared) {
      mmu.matmul_i8_prepared(weights, core::I8Window{a.data(), a.size(), m},
                             {}, 0, out);
    } else {
      mmu.matmul_i8(a, m, k, w, n, {}, out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}

/// End-to-end trusted-device inference on the perfbench geometry: a
/// sign-locked CNN3 (width 0.5, 3x32x32, calibrated static scales), loaded
/// while `backend` is active, served a batch of state.range(0) images.
void device_cnn3_body(benchmark::State& state, const std::string& backend) {
  ops::set_backend(backend);
  models::ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.image_size = 32;
  cfg.width_mult = 0.5;
  cfg.init_seed = 3;
  Rng rng(17);
  const obf::HpnnKey key = obf::HpnnKey::random(rng);
  obf::Scheduler sched(99);
  obf::LockedModel owner(models::Architecture::kCnn3, cfg, key, sched);
  const auto scales = obf::calibrate_activation_scales(
      owner, Tensor::normal(Shape{16, 3, 32, 32}, rng, 0.0f, 0.5f));
  std::stringstream ss;
  obf::publish_model(ss, owner, scales);
  hw::TrustedDevice device(key, 99);
  device.load_model(obf::read_published_model(ss));
  const std::int64_t batch = state.range(0);
  const Tensor images =
      Tensor::normal(Shape{batch, 3, 32, 32}, rng, 0.0f, 0.5f);
  for (auto _ : state) {
    Tensor logits = device.infer(images);
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

/// One CNN3 (width 0.5, 3x32x32) conv layer's keyed GEMM for one sample
/// on `backend`'s prepared path: conv 1-3 is state.range(0). With
/// state.range(1) == 1 the GEMM reads the zero-bordered input plane
/// through the conv window, as the device runs it; with 0 it reads the
/// prebuilt im2col matrix as the one-run window, the dense kernel. The
/// pair shows the window kernel's cost over the dense one; building the
/// operand (plane copy or im2col) is outside the timed loop.
void device_conv_cnn3_body(benchmark::State& state,
                           const std::string& backend) {
  struct Layer {
    std::int64_t channels, size, filters;
  };
  constexpr Layer kLayers[] = {{3, 32, 12}, {12, 16, 8}, {8, 8, 7}};
  const Layer& l = kLayers[state.range(0) - 1];
  const bool window = state.range(1) != 0;
  ops::Conv2dGeometry g;
  g.in_channels = l.channels;
  g.in_h = l.size;
  g.in_w = l.size;
  g.kernel = 3;
  g.padding = 1;
  const std::int64_t ckk = l.channels * 9;
  const std::int64_t n = l.size * l.size;
  const std::int64_t wp = l.size + 2;
  Rng rng(23);
  const auto random_bytes = [&rng](std::int64_t count) {
    std::vector<std::int8_t> v(static_cast<std::size_t>(count));
    for (auto& x : v) {
      x = static_cast<std::int8_t>(rng.uniform_index(255)) - 127;
    }
    return v;
  };
  const auto input = random_bytes(l.channels * n);
  const auto weights = random_bytes(l.filters * ckk);
  std::vector<std::uint8_t> negate(static_cast<std::size_t>(l.filters * n));
  for (auto& b : negate) {
    b = static_cast<std::uint8_t>(rng.uniform_index(2));
  }
  std::vector<std::int8_t> operand;
  std::vector<std::int64_t> offsets;
  core::I8Window x;
  if (window) {
    operand.assign(static_cast<std::size_t>(l.channels * wp * wp), 0);
    for (std::int64_t row = 0; row < l.channels * l.size; ++row) {
      const std::int64_t c = row / l.size;
      const std::int64_t y = row % l.size;
      std::copy(input.begin() + row * l.size,
                input.begin() + (row + 1) * l.size,
                operand.begin() + (c * wp + y + 1) * wp + 1);
    }
    for (std::int64_t c = 0; c < l.channels; ++c) {
      for (std::int64_t ky = 0; ky < 3; ++ky) {
        for (std::int64_t kx = 0; kx < 3; ++kx) {
          offsets.push_back((c * wp + ky) * wp + kx);
        }
      }
    }
    x = {operand.data(), operand.size(), n, offsets.data(), l.size, wp};
  } else {
    operand.resize(static_cast<std::size_t>(ckk * n));
    ops::im2col(input.data(), g, operand.data());
    offsets = core::dense_window_offsets(ckk, n);
    x = {operand.data(), operand.size(), n, offsets.data(), n, n};
  }
  const core::ComputeBackend& be = *ops::find_backend(backend);
  const core::PreparedI8 w = be.prepare_i8(weights.data(), l.filters, ckk,
                                           core::PreparedI8::Side::kLeft);
  std::vector<std::int32_t> out(static_cast<std::size_t>(l.filters * n));
  for (auto _ : state) {
    be.matmul_i8_prepared(w, x, negate.data(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * l.filters * ckk * n);
}

void register_backend_benchmarks() {
  for (const std::string& name : ops::backend_names()) {
    if (!ops::find_backend(name)->supported()) {
      continue;
    }
    benchmark::RegisterBenchmark(
        ("BM_GemmBackend/" + name).c_str(),
        [name](benchmark::State& state) { gemm_backend_body(state, name); })
        ->Arg(256);
    benchmark::RegisterBenchmark(
        ("BM_MmuGemmI8Backend/" + name).c_str(),
        [name](benchmark::State& state) {
          mmu_backend_body(state, name, false);
        });
    benchmark::RegisterBenchmark(
        ("BM_MmuGemmI8Prepared/" + name).c_str(),
        [name](benchmark::State& state) {
          mmu_backend_body(state, name, true);
        });
    benchmark::RegisterBenchmark(
        ("BM_DeviceInferCnn3/" + name).c_str(),
        [name](benchmark::State& state) { device_cnn3_body(state, name); })
        ->Arg(1)
        ->Arg(8);
    benchmark::RegisterBenchmark(
        ("BM_DeviceConvCnn3/" + name).c_str(),
        [name](benchmark::State& state) {
          device_conv_cnn3_body(state, name);
        })
        ->ArgNames({"conv", "window"})
        ->ArgsProduct({{1, 2, 3}, {0, 1}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The auto-picked default stays active for the static BM_* suite above
  // (so BM_Gemm/256 remains the regression-gate baseline); the per-backend
  // rows pin their own tier, and the default is restored afterward.
  const std::string default_backend = ops::backend().name();
  register_backend_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ops::set_backend(default_backend);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
