// Serving-path observability contract: while the trusted device classifies
// requests, the metrics layer must record (a) exactly as many latency
// samples as requests served, (b) a MAC count that matches the analytic
// count derived from the published architecture, and (c) a deterministic
// snapshot that is byte-identical across two identical single-threaded runs.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/metrics.hpp"
#include "core/threadpool.hpp"
#include "hpnn/model_io.hpp"
#include "hpnn/owner.hpp"
#include "hpnn/locked_activation.hpp"
#include "hw/device.hpp"
#include "nn/layers.hpp"

namespace hpnn::hw {
namespace {

struct PublishedSetup {
  obf::HpnnKey key;
  std::uint64_t schedule_seed = 12345;
  obf::PublishedModel artifact;
};

PublishedSetup make_published(models::Architecture arch,
                              const models::ModelConfig& cfg,
                              std::uint64_t key_seed) {
  PublishedSetup s;
  Rng rng(key_seed);
  s.key = obf::HpnnKey::random(rng);
  obf::Scheduler sched(s.schedule_seed);
  obf::LockedModel model(arch, cfg, s.key, sched);
  std::stringstream ss;
  obf::publish_model(ss, model);
  s.artifact = obf::read_published_model(ss);
  return s;
}

models::ModelConfig cnn1_cfg() {
  models::ModelConfig cfg;
  cfg.in_channels = 1;
  cfg.image_size = 16;
  cfg.init_seed = 7;
  return cfg;
}

/// MACs the device's int8 datapath issues for one batch of `batch` images,
/// derived from the published architecture alone. The Mmu performs one
/// matmul per sample per conv layer (m = filters, k = C*K*K, n = oh*ow)
/// and one batched matmul per linear layer (m = batch, k = in, n = out).
std::uint64_t analytic_macs(const obf::PublishedModel& artifact,
                            std::int64_t batch) {
  const auto net = obf::instantiate_baseline(artifact);
  std::uint64_t macs = 0;
  for (std::size_t i = 0; i < net->size(); ++i) {
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&net->at(i))) {
      const auto& g = conv->geometry();
      const std::uint64_t per_sample =
          static_cast<std::uint64_t>(conv->out_channels()) *
          static_cast<std::uint64_t>(g.in_channels * g.kernel * g.kernel) *
          static_cast<std::uint64_t>(g.out_h() * g.out_w());
      macs += static_cast<std::uint64_t>(batch) * per_sample;
    } else if (const auto* fc = dynamic_cast<const nn::Linear*>(&net->at(i))) {
      macs += static_cast<std::uint64_t>(batch) *
              static_cast<std::uint64_t>(fc->in_features()) *
              static_cast<std::uint64_t>(fc->out_features());
    }
  }
  return macs;
}

Tensor request_batch(std::int64_t batch, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::normal(Shape{batch, 1, 16, 16}, rng, 0.0f, 0.25f);
}

/// Single-threaded pool for the duration of a test: scheduling-dependent
/// counters (caller chunks, queue waits) are only reproducible when the
/// inline execution path handles every chunk.
class ServingMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!metrics::enabled()) {
      GTEST_SKIP() << "metrics disabled";
    }
    core::set_thread_count(1);
  }
  void TearDown() override { core::set_thread_count(0); }
};

TEST_F(ServingMetricsTest, MacCounterMatchesAnalyticCount) {
  auto s = make_published(models::Architecture::kCnn1, cnn1_cfg(), 19);
  TrustedDevice device(s.key, s.schedule_seed);
  device.load_model(s.artifact);

  metrics::MetricsRegistry::instance().reset();
  device.reset_stats();

  constexpr std::int64_t kBatch = 4;
  constexpr int kRequests = 3;
  for (int r = 0; r < kRequests; ++r) {
    (void)device.classify(request_batch(kBatch, 100 + r));
  }

  const std::uint64_t expected = kRequests * analytic_macs(s.artifact, kBatch);
  // Device-local hardware stats and the global metrics counter must agree
  // with each other and with the architecture-derived count.
  EXPECT_EQ(device.mmu_stats().mac_ops, expected);
  EXPECT_EQ(metrics::MetricsRegistry::instance()
                .counter("hw.mmu.mac_ops")
                .value(),
            expected);
}

/// The MMU's key bookkeeping for one batch of `batch` images, derived from
/// the owner's lock masks: every MAC layer that feeds a locked ReLU runs
/// its set key bits through keyed accumulators once per sample, and each
/// keyed output toggles the XOR gates of all k partial products.
struct KeyBookkeeping {
  std::uint64_t locked_outputs = 0;
  std::uint64_t xor_gate_toggles = 0;
};

KeyBookkeeping analytic_key_bookkeeping(const obf::LockedModel& owner,
                                        std::int64_t batch) {
  KeyBookkeeping expected;
  std::uint64_t k = 0;  // contraction depth of the latest MAC layer
  const nn::Sequential& net = owner.network();
  for (std::size_t i = 0; i < net.size(); ++i) {
    const nn::Module& m = net.at(i);
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&m)) {
      const auto& g = conv->geometry();
      k = static_cast<std::uint64_t>(g.in_channels * g.kernel * g.kernel);
    } else if (const auto* fc = dynamic_cast<const nn::Linear*>(&m)) {
      k = static_cast<std::uint64_t>(fc->in_features());
    } else if (const auto* act =
                   dynamic_cast<const obf::LockedActivation*>(&m)) {
      std::uint64_t set_bits = 0;
      for (std::int64_t j = 0; j < act->lock().numel(); ++j) {
        set_bits += act->lock().at(j) < 0.0f;
      }
      expected.locked_outputs += static_cast<std::uint64_t>(batch) * set_bits;
      expected.xor_gate_toggles +=
          static_cast<std::uint64_t>(batch) * set_bits * k;
    }
  }
  return expected;
}

TEST_F(ServingMetricsTest, KeyBookkeepingMatchesAnalyticCount) {
  struct Case {
    models::Architecture arch;
    std::int64_t channels;
    double width;
  };
  for (const Case& c : {Case{models::Architecture::kCnn1, 1, 1.0},
                        Case{models::Architecture::kCnn3, 3, 0.5}}) {
    models::ModelConfig cfg = cnn1_cfg();
    cfg.in_channels = c.channels;
    cfg.width_mult = c.width;
    Rng key_rng(47);
    const obf::HpnnKey key = obf::HpnnKey::random(key_rng);
    const std::uint64_t schedule_seed = 12345;
    const obf::LockedModel owner(c.arch, cfg, key,
                                 obf::Scheduler(schedule_seed));
    std::stringstream ss;
    obf::publish_model(ss, owner);
    TrustedDevice device(key, schedule_seed);
    device.load_model(obf::read_published_model(ss));

    for (const std::int64_t batch : {1, 4}) {
      SCOPED_TRACE(models::arch_name(c.arch) + " batch " +
                   std::to_string(batch));
      metrics::MetricsRegistry::instance().reset();
      device.reset_stats();
      Rng rng(static_cast<std::uint64_t>(400 + batch));
      (void)device.infer(Tensor::normal(Shape{batch, c.channels, 16, 16}, rng,
                                        0.0f, 0.25f));

      const KeyBookkeeping expected = analytic_key_bookkeeping(owner, batch);
      ASSERT_GT(expected.locked_outputs, 0u);
      auto& reg = metrics::MetricsRegistry::instance();
      EXPECT_EQ(device.mmu_stats().locked_outputs, expected.locked_outputs);
      EXPECT_EQ(reg.counter("hw.mmu.locked_outputs").value(),
                expected.locked_outputs);
      EXPECT_EQ(reg.counter("hw.mmu.xor_gate_toggles").value(),
                expected.xor_gate_toggles);
    }
  }
}

TEST_F(ServingMetricsTest, LatencyHistogramCountsEveryRequest) {
  auto s = make_published(models::Architecture::kCnn1, cnn1_cfg(), 23);
  TrustedDevice device(s.key, s.schedule_seed);
  device.load_model(s.artifact);

  metrics::MetricsRegistry::instance().reset();

  constexpr int kRequests = 5;
  constexpr std::int64_t kBatch = 2;
  for (int r = 0; r < kRequests; ++r) {
    (void)device.infer(request_batch(kBatch, 200 + r));
  }

  auto& reg = metrics::MetricsRegistry::instance();
  EXPECT_EQ(reg.counter("hw.device.infer.requests").value(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(reg.counter("hw.device.infer.samples").value(),
            static_cast<std::uint64_t>(kRequests * kBatch));
  // One latency observation per request — never dropped, never doubled.
  EXPECT_EQ(reg.histogram("hw.device.infer.latency_us").count(),
            static_cast<std::uint64_t>(kRequests));
  const metrics::Snapshot snap = reg.snapshot();
  for (const auto& h : snap.histograms) {
    if (h.name == "hw.device.infer.latency_us") {
      EXPECT_LE(h.p50, h.p95);
      EXPECT_LE(h.p95, h.p99);
      EXPECT_LE(h.p99, h.max);
    }
  }
}

TEST_F(ServingMetricsTest, DeterministicSnapshotIsByteIdenticalAcrossRuns) {
  auto s = make_published(models::Architecture::kCnn1, cnn1_cfg(), 29);

  const auto serve_and_snapshot = [&s]() {
    metrics::MetricsRegistry::instance().reset();
    TrustedDevice device(s.key, s.schedule_seed);
    device.load_model(s.artifact);
    for (int r = 0; r < 3; ++r) {
      (void)device.classify(request_batch(2, 300 + r));
    }
    std::ostringstream os;
    metrics::write_json(os, metrics::MetricsRegistry::instance().snapshot(),
                        /*deterministic=*/true);
    return os.str();
  };

  const std::string first = serve_and_snapshot();
  const std::string second = serve_and_snapshot();
  EXPECT_EQ(first, second)
      << "deterministic snapshot differed between identical runs";
  // Sanity: the snapshot actually carries serving counters.
  EXPECT_NE(first.find("hw.mmu.mac_ops"), std::string::npos);
  EXPECT_NE(first.find("hw.device.infer.requests"), std::string::npos);
}

}  // namespace
}  // namespace hpnn::hw
