// ServeDaemon in threaded mode (real worker threads, SteadyClock):
// concurrent producers against concurrent batch workers, graceful drain as
// the join barrier, and hard-stop failing whatever is still queued. Runs
// under TSan via the `threading` ctest label.
//
// Answers are checked at the granularity the artifact makes sound. With
// dynamic int8 scales a request's logits depend on which requests share
// its batch, so the oracle re-infers each coalesced tensor. With static
// (calibrated) scales every request must get the logits of its image
// served alone, whatever batch it rode in.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "hpnn/calibration.hpp"
#include "hpnn/keychain.hpp"
#include "serve/chaos.hpp"
#include "serve/daemon/daemon.hpp"

namespace hpnn::serve {
namespace {

/// The chaos bundle's CNN1, published with calibrated static activation
/// scales (as the device re-entrancy test builds its artifact).
ChaosModelBundle make_static_scale_model(std::uint64_t seed) {
  ChaosModelBundle bundle;
  Rng rng(seed);
  bundle.master = obf::HpnnKey::random(rng);
  bundle.model_id = "static-cnn1";
  obf::Scheduler scheduler(
      obf::derive_schedule_seed(bundle.master, bundle.model_id));
  models::ModelConfig cfg;
  cfg.in_channels = 1;
  cfg.image_size = 16;
  cfg.init_seed = seed + 7;
  obf::LockedModel model(models::Architecture::kCnn1, cfg,
                         obf::derive_model_key(bundle.master, bundle.model_id),
                         scheduler);
  const Shape calib_shape{8, 1, 16, 16};
  model.network().set_training(true);  // batch-norm running statistics
  (void)model.network().forward(Tensor::normal(calib_shape, rng, 0.0f, 0.5f));
  model.network().set_training(false);
  const auto scales = obf::calibrate_activation_scales(
      model, Tensor::normal(calib_shape, rng, 0.0f, 0.5f));
  std::stringstream ss;
  obf::publish_model(ss, model, scales);
  bundle.artifact = obf::read_published_model(ss);
  Rng probe_rng = rng.split();
  bundle.challenge = obf::make_challenge(model, 16, probe_rng);
  bundle.challenge.min_agreement = 0.6;
  return bundle;
}

struct ThreadedHarness {
  ChaosModelBundle bundle;
  std::unique_ptr<ServingSupervisor> supervisor;
  std::unique_ptr<ServeDaemon> daemon;
  // infer() is const and reentrant, so every producer classifies through
  // this one reference device concurrently.
  std::unique_ptr<hw::TrustedDevice> reference;

  explicit ThreadedHarness(DaemonConfig daemon_config,
                           ChaosModelBundle model = make_chaos_model(33))
      : bundle(std::move(model)) {
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
  config.queue.capacity = 256;
  return config;
}

TEST(DaemonConcurrencyTest, ConcurrentProducersAllGetCorrectAnswers) {
  ThreadedHarness h(threaded_config(2));
  // Dynamic scales: the reference re-infers the exact coalesced tensor and
  // records each request's slice of its answer.
  std::mutex expected_mutex;
  std::map<std::uint64_t, std::vector<std::int64_t>> expected;
  std::atomic<int> wrong_batches{0};
  h.daemon->set_batch_observer([&](const Tensor& images,
                                   const RequestResult& result,
                                   const auto& requests) {
    const std::vector<std::int64_t> classes = h.reference->classify(images);
    if (classes != result.classes) {
      wrong_batches.fetch_add(1);
    }
    std::lock_guard<std::mutex> lock(expected_mutex);
    auto row = classes.begin();
    for (const auto& request : requests) {
      expected[request->id()].assign(row, row + request->rows());
      row += request->rows();
    }
  });
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
        auto pending =
            h.daemon->submit_async("tenant" + std::to_string(p), h.batch(seed));
        pending->wait();
        const Reply reply = pending->take();
        // The observer ran before the reply was released.
        std::lock_guard<std::mutex> lock(expected_mutex);
        const auto it = expected.find(pending->id());
        if (it != expected.end() && it->second == reply.classes) {
          correct.fetch_add(1);
        }
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  h.daemon->drain();

  EXPECT_EQ(wrong_batches.load(), 0);
  EXPECT_EQ(correct.load(), kProducers * kPerProducer);
  const DaemonStats stats = h.daemon->stats();
  EXPECT_EQ(stats.completed,
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GE(stats.batches, 1u);
}

TEST(DaemonConcurrencyTest, StaticScaleRepliesMatchTheImageServedAlone) {
  ThreadedHarness h(threaded_config(2), make_static_scale_model(33));
  // Static scales: a request's logits are those of its image served alone,
  // bit for bit, whichever requests shared its batch.
  std::atomic<int> mismatches{0};
  std::atomic<bool> coalesced{false};
  h.daemon->set_batch_observer([&](const Tensor& images,
                                   const RequestResult& result,
                                   const auto& requests) {
    const std::int64_t classes = result.logits.dim(1);
    std::int64_t row = 0;
    for (const auto& request : requests) {
      const Tensor alone = h.reference->infer(request->images());
      if (std::memcmp(alone.data(), result.logits.data() + row * classes,
                      static_cast<std::size_t>(alone.numel()) *
                          sizeof(float)) != 0) {
        mismatches.fetch_add(1);
      }
      row += request->rows();
    }
    if (images.dim(0) > 1) {
      coalesced.store(true);
    }
  });

  // Requests queued before the workers start coalesce into full batches;
  // the producers after them race the two workers.
  std::vector<std::shared_ptr<PendingRequest>> early;
  for (std::uint64_t i = 0; i < 8; ++i) {
    early.push_back(h.daemon->submit_async("early", h.batch(900 + i)));
  }
  h.daemon->start();

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 6;
  std::atomic<int> correct{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const Tensor images = h.batch(static_cast<std::uint64_t>(p * 100 + i));
        const Reply reply =
            h.daemon->submit("tenant" + std::to_string(p), images);
        if (reply.classes == h.reference->classify(images)) {
          correct.fetch_add(1);
        }
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  h.daemon->drain();
  for (std::uint64_t i = 0; i < early.size(); ++i) {
    EXPECT_EQ(early[i]->take().classes,
              h.reference->classify(h.batch(900 + i)));
  }

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(correct.load(), kProducers * kPerProducer);
  EXPECT_TRUE(coalesced.load());
  EXPECT_EQ(h.daemon->stats().completed,
            static_cast<std::uint64_t>(8 + kProducers * kPerProducer));
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
      std::string tenant = "t";
      tenant += std::to_string(p);
      for (int i = 0; i < 8; ++i) {
        try {
          (void)h.daemon->submit(
              tenant, h.batch(static_cast<std::uint64_t>(p * 50 + i)));
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
