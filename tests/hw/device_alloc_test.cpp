// Heap allocations per TrustedDevice::infer() after warm-up.
//
// The device's activation buffers are sized at load and carved per call
// from the calling thread's scratch arena, so once the arena (and every
// pool worker's arena) has grown to the plan's high-water mark, serving a
// request allocates only the returned logits. This binary replaces the
// global operator new with a counting one, so it is its own test target:
// the count covers every thread, pool workers included.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "hpnn/calibration.hpp"
#include "hpnn/model_io.hpp"
#include "hpnn/owner.hpp"
#include "hw/device.hpp"
#include "tensor/backend.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) {
    size = 1;
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    size = (size + align - 1) / align * align;
    p = std::aligned_alloc(align, size);
  }
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hpnn::hw {
namespace {

constexpr int kWarmup = 3;
constexpr int kMeasured = 8;
constexpr int kWindows = 20;

/// Heap allocations per infer() of `images` once `kWarmup` calls have
/// grown the arenas the call touches: the fewest over up to `kWindows`
/// windows of `kMeasured` calls. A pool worker's arena grows the first
/// time that worker runs a chunk of an op, and which worker runs which
/// chunk is up to the OS scheduler, so on a loaded host that warm-up can
/// spill into later calls; an allocation every request makes shows in
/// every window.
double allocations_per_infer(const TrustedDevice& device,
                             const Tensor& images) {
  for (int i = 0; i < kWarmup; ++i) {
    (void)device.infer(images);
  }
  double fewest = 0.0;
  for (int w = 0; w < kWindows; ++w) {
    const std::uint64_t before = g_allocations.load();
    for (int i = 0; i < kMeasured; ++i) {
      (void)device.infer(images);
    }
    const double per_call =
        static_cast<double>(g_allocations.load() - before) / kMeasured;
    fewest = w == 0 ? per_call : std::min(fewest, per_call);
    if (fewest <= 1.0) {
      break;
    }
  }
  return fewest;
}

TEST(DeviceAllocationTest, Cnn3StaticScalesAllocateOnlyTheLogits) {
  models::ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.image_size = 16;
  cfg.init_seed = 5;
  cfg.width_mult = 0.5;
  Rng rng(93);
  const obf::HpnnKey key = obf::HpnnKey::random(rng);
  obf::Scheduler sched(515);
  obf::LockedModel owner(models::Architecture::kCnn3, cfg, key, sched);
  owner.network().set_training(false);
  const auto scales = obf::calibrate_activation_scales(
      owner, Tensor::normal(Shape{8, 3, 16, 16}, rng, 0.0f, 0.5f));
  std::stringstream ss;
  obf::publish_model(ss, owner, scales);
  const obf::PublishedModel artifact = obf::read_published_model(ss);
  const Tensor single = Tensor::normal(Shape{1, 3, 16, 16}, rng, 0.0f, 0.5f);
  const Tensor batch = Tensor::normal(Shape{8, 3, 16, 16}, rng, 0.0f, 0.5f);

  const std::string restore = ops::backend().name();
  for (const std::string& name : ops::backend_names()) {
    if (!ops::find_backend(name)->supported()) {
      continue;
    }
    ops::set_backend(name);
    TrustedDevice device(key, 515);
    device.load_model(artifact);
    EXPECT_LE(allocations_per_infer(device, single), 1.0)
        << "backend " << name << ", batch 1";
    EXPECT_LE(allocations_per_infer(device, batch), 1.0)
        << "backend " << name << ", batch 8";
  }
  ops::set_backend(restore);
}

}  // namespace
}  // namespace hpnn::hw
