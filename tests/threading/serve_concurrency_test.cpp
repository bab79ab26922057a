// Concurrency contract of the serving supervisor: 8 threads hammer one
// supervisor while a sealed-key SEU lands mid-run. Run under TSan via the
// `threading` ctest label. Success criteria: no data race (TSan), zero
// wrong answers, and a pool whose books balance after the final
// maintenance pump.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "hw/fault.hpp"
#include "hpnn/keychain.hpp"
#include "serve/chaos.hpp"
#include "serve/supervisor.hpp"

namespace hpnn::serve {
namespace {

TEST(ServeConcurrencyTest, EightThreadsWithMidRunSeuServeNoWrongAnswers) {
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 4;

  const ChaosModelBundle bundle = make_chaos_model(33);
  core::SimulatedClock clock(0);
  SupervisorConfig config;
  config.replicas = 4;
  config.clock = &clock;
  ServingSupervisor supervisor(bundle.master, bundle.model_id,
                               bundle.artifact, bundle.challenge, config);

  // Precompute per-thread inputs and reference answers serially (the
  // reference device itself is not a shared-state participant).
  hw::TrustedDevice reference(
      obf::derive_model_key(bundle.master, bundle.model_id),
      obf::derive_schedule_seed(bundle.master, bundle.model_id),
      config.device);
  reference.load_model(bundle.artifact);
  std::vector<Tensor> inputs;
  std::vector<std::vector<std::int64_t>> expected;
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(1000 + static_cast<std::uint64_t>(t));
    inputs.push_back(Tensor::normal(Shape{1, bundle.artifact.in_channels,
                                          bundle.artifact.image_size,
                                          bundle.artifact.image_size},
                                    rng, 0.0f, 0.25f));
    expected.push_back(reference.classify(inputs.back()));
  }

  hw::FaultPlan seu;
  seu.key_bits = {129};
  hw::FaultInjector injector(seu);

  std::atomic<int> wrong{0};
  std::atomic<int> succeeded{0};
  std::atomic<int> typed_failures{0};
  std::latch start(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int r = 0; r < kRequestsPerThread; ++r) {
        if (t == 0 && r == 1) {
          // SEU weather from inside the storm: corrupt replica 0's sealed
          // key while the other threads keep the pool saturated.
          supervisor.pool().with_replica(0, [&](hw::TrustedDevice& device) {
            device.attach_fault_injector(&injector);
          });
        }
        try {
          const RequestResult result =
              supervisor.submit(inputs[static_cast<std::size_t>(t)]);
          succeeded.fetch_add(1, std::memory_order_relaxed);
          if (result.classes != expected[static_cast<std::size_t>(t)]) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const TimeoutError&) {
          typed_failures.fetch_add(1, std::memory_order_relaxed);
        } catch (const DeviceUnavailableError&) {
          typed_failures.fetch_add(1, std::memory_order_relaxed);
        } catch (const RetryExhaustedError&) {
          typed_failures.fetch_add(1, std::memory_order_relaxed);
        }
        clock.advance(50);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(succeeded.load() + typed_failures.load(),
            kThreads * kRequestsPerThread);
  // Under degrade-to-subset with 3 clean replicas, the SEU should cost
  // retries at most — every request is expected to eventually succeed.
  EXPECT_EQ(succeeded.load(), kThreads * kRequestsPerThread);

  // Final maintenance pump: heal whatever is still sick, then the books
  // must balance — one successful re-provision per quarantine.
  DevicePool& pool = supervisor.pool();
  for (int round = 0; round < 16; ++round) {
    bool sick = false;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const BreakerState s = pool.state(i);
      sick = sick || s == BreakerState::kOpen || s == BreakerState::kQuarantined;
    }
    if (!sick) {
      break;
    }
    clock.advance(config.breaker.open_cooldown_us + 1);
    pool.run_maintenance(clock.now_us());
  }
  EXPECT_EQ(pool.admitting_count(), pool.size());
  const PoolStats stats = pool.stats();
  EXPECT_GE(stats.quarantines, 1u);  // the SEU must have been caught
  EXPECT_EQ(stats.reprovisions, stats.quarantines);
}

}  // namespace
}  // namespace hpnn::serve
