// Concurrent TrustedDevice::infer() on one device. The execution plan is
// immutable after load_model and inference keeps no per-request state on
// the device, so four threads serving through one device at once must get
// logits byte-identical to the same requests served serially. Runs under
// TSan via the `threading` ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "hpnn/calibration.hpp"
#include "hpnn/model_io.hpp"
#include "hpnn/owner.hpp"
#include "hw/device.hpp"

namespace hpnn::hw {
namespace {

constexpr int kThreads = 4;
constexpr int kRequestsPerThread = 6;

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

void check_concurrent_infer(models::Architecture arch, double width) {
  models::ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.image_size = 16;
  cfg.init_seed = 4;
  cfg.width_mult = width;
  Rng rng(61);
  const obf::HpnnKey key = obf::HpnnKey::random(rng);
  obf::Scheduler sched(808);
  obf::LockedModel owner(arch, cfg, key, sched);
  const Shape calib_shape{8, 3, 16, 16};
  owner.network().set_training(true);  // batch-norm running statistics
  (void)owner.network().forward(Tensor::normal(calib_shape, rng, 0.0f, 0.5f));
  owner.network().set_training(false);
  const auto scales = obf::calibrate_activation_scales(
      owner, Tensor::normal(calib_shape, rng, 0.0f, 0.5f));
  std::stringstream ss;
  obf::publish_model(ss, owner, scales);
  TrustedDevice device(key, 808);
  device.load_model(obf::read_published_model(ss));

  // Batch 1 and batch 8 requests interleaved: batch 8 also fans out over
  // the thread pool from inside each concurrent call.
  std::vector<Tensor> requests;
  for (int i = 0; i < kThreads * kRequestsPerThread; ++i) {
    requests.push_back(Tensor::normal(Shape{i % 2 == 0 ? 1 : 8, 3, 16, 16},
                                      rng, 0.0f, 0.5f));
  }
  std::vector<Tensor> serial;
  for (const Tensor& images : requests) {
    serial.push_back(device.infer(images));
  }
  const std::uint64_t serial_macs = device.mmu_stats().mac_ops;
  device.reset_stats();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const auto r = static_cast<std::size_t>(t * kRequestsPerThread + i);
        if (!same_bytes(device.infer(requests[r]), serial[r])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0) << models::arch_name(arch);
  // The MMU's counters are exact sums under concurrency too.
  EXPECT_EQ(device.mmu_stats().mac_ops, serial_macs);
}

TEST(DeviceReentrancyTest, ConcurrentInferMatchesSerialBytesCnn3) {
  check_concurrent_infer(models::Architecture::kCnn3, 0.5);
}

TEST(DeviceReentrancyTest, ConcurrentInferMatchesSerialBytesResNet18) {
  // Batch-norm, residual skips and vector-unit locks share the plan too.
  check_concurrent_infer(models::Architecture::kResNet18, 0.125);
}

}  // namespace
}  // namespace hpnn::hw
