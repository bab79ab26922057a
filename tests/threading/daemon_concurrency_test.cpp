// ServeDaemon in threaded mode (real worker threads, SteadyClock):
// concurrent producers against concurrent batch workers, graceful drain as
// the join barrier, and hard-stop failing whatever is still queued. Runs
// under TSan via the `threading` ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "hpnn/keychain.hpp"
#include "serve/chaos.hpp"
#include "serve/daemon/daemon.hpp"

namespace hpnn::serve {
namespace {

struct ThreadedHarness {
  ChaosModelBundle bundle = make_chaos_model(/*seed=*/33);
  std::unique_ptr<ServingSupervisor> supervisor;
  std::unique_ptr<ServeDaemon> daemon;
  // infer() is const and reentrant, so every producer classifies through
  // this one reference device concurrently.
  std::unique_ptr<hw::TrustedDevice> reference;

  explicit ThreadedHarness(DaemonConfig daemon_config) {
    SupervisorConfig config;
    config.replicas = 2;
    supervisor = std::make_unique<ServingSupervisor>(
        bundle.master, bundle.model_id, bundle.artifact, bundle.challenge,
        config);
    daemon = std::make_unique<ServeDaemon>(*supervisor, bundle.master,
                                           bundle.model_id, daemon_config);
    reference = std::make_unique<hw::TrustedDevice>(
        obf::derive_model_key(bundle.master, bundle.model_id),
        obf::derive_schedule_seed(bundle.master, bundle.model_id),
        config.device);
    reference->load_model(bundle.artifact);
  }

  std::vector<std::int64_t> reference_classes(const Tensor& images) const {
    return reference->classify(images);
  }

  Tensor batch(std::uint64_t seed) const {
    Rng rng(seed);
    return Tensor::normal(Shape{1, bundle.artifact.in_channels,
                                bundle.artifact.image_size,
                                bundle.artifact.image_size},
                          rng, 0.0f, 0.25f);
  }
};

DaemonConfig threaded_config(std::size_t workers) {
  DaemonConfig config;
  config.workers = workers;
  config.batcher.max_batch_rows = 4;
  config.batcher.max_linger_us = 500;
  config.queue.capacity = 256;
  return config;
}

TEST(DaemonConcurrencyTest, ConcurrentProducersAllGetCorrectAnswers) {
  ThreadedHarness h(threaded_config(2));
  h.daemon->start();

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 6;
  std::atomic<int> correct{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::uint64_t seed =
            static_cast<std::uint64_t>(p) * 100 + static_cast<std::uint64_t>(i);
        const Tensor images = h.batch(seed);
        const Reply reply =
            h.daemon->submit("tenant" + std::to_string(p), images);
        if (reply.classes == h.reference_classes(images)) {
          correct.fetch_add(1);
        }
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  h.daemon->drain();

  EXPECT_EQ(correct.load(), kProducers * kPerProducer);
  const DaemonStats stats = h.daemon->stats();
  EXPECT_EQ(stats.completed,
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GE(stats.batches, 1u);
}

TEST(DaemonConcurrencyTest, DrainWhileProducersRacingTheClosedDoor) {
  ThreadedHarness h(threaded_config(2));
  h.daemon->start();

  // Producers race the drain: every submit either completes or is turned
  // away at the closed door — nothing hangs, nothing is silently dropped.
  std::atomic<int> resolved{0};
  std::atomic<int> turned_away{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < 8; ++i) {
        try {
          (void)h.daemon->submit(
              "t" + std::to_string(p),
              h.batch(static_cast<std::uint64_t>(p * 50 + i)));
          resolved.fetch_add(1);
        } catch (const Error&) {
          turned_away.fetch_add(1);
        }
      }
    });
  }
  h.daemon->drain();
  for (auto& producer : producers) {
    producer.join();
  }

  EXPECT_EQ(resolved.load() + turned_away.load(), 24);
  EXPECT_EQ(h.daemon->stats().queue_depth, 0u);
}

TEST(DaemonConcurrencyTest, StopFailsQueuedRequestsInsteadOfHanging) {
  // No workers started: async submits just sit in the queue until stop()
  // fails them all; take() then rethrows instead of blocking forever.
  ThreadedHarness h(threaded_config(1));

  auto a = h.daemon->submit_async("a", h.batch(1));
  auto b = h.daemon->submit_async("b", h.batch(2));
  h.daemon->stop();

  ASSERT_TRUE(a->done() && b->done());
  EXPECT_THROW((void)a->take(), Error);
  EXPECT_THROW((void)b->take(), Error);
  EXPECT_EQ(h.daemon->stats().failed, 2u);
}

}  // namespace
}  // namespace hpnn::serve
