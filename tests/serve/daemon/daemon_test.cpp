// ServeDaemon end-to-end in pump mode on a SimulatedClock: correct answers
// through coalesced batches, overload shedding with honored retry_after
// hints, graceful drain, config reload, and session revocation when the
// hardware under a batch trips an integrity quarantine. The deterministic
// 2x-overload acceptance scenario (byte-identical reruns) rides the load
// generator at the bottom.
#include "serve/daemon/daemon.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "hw/fault.hpp"
#include "hpnn/keychain.hpp"
#include "serve/chaos.hpp"
#include "serve/daemon/load_gen.hpp"

namespace hpnn::serve {
namespace {

/// Chaos-bundle harness with a daemon in pump mode over the supervisor.
struct Harness {
  ChaosModelBundle bundle = make_chaos_model(/*seed=*/33);
  core::SimulatedClock clock{0};
  std::vector<std::unique_ptr<hw::FaultInjector>> injectors;
  std::mutex injectors_mutex;
  std::unique_ptr<ServingSupervisor> supervisor;
  std::unique_ptr<ServeDaemon> daemon;
  std::unique_ptr<hw::TrustedDevice> reference;

  void start(DaemonConfig daemon_config, SupervisorConfig config = {},
             std::vector<ChaosReplicaPlan> plans = {}) {
    config.clock = &clock;
    config.provision = [this, plans](hw::TrustedDevice& device,
                                     std::size_t replica, bool reprovision) {
      if (replica >= plans.size()) {
        return;
      }
      const auto& slot = reprovision ? plans[replica].after_reprovision
                                     : plans[replica].initial;
      if (!slot.has_value()) {
        return;
      }
      std::lock_guard<std::mutex> lock(injectors_mutex);
      injectors.push_back(std::make_unique<hw::FaultInjector>(*slot));
      device.attach_fault_injector(injectors.back().get());
    };
    supervisor = std::make_unique<ServingSupervisor>(
        bundle.master, bundle.model_id, bundle.artifact, bundle.challenge,
        config);
    daemon_config.workers = 0;  // pump mode
    daemon = std::make_unique<ServeDaemon>(*supervisor, bundle.master,
                                           bundle.model_id, daemon_config);
    reference = std::make_unique<hw::TrustedDevice>(
        obf::derive_model_key(bundle.master, bundle.model_id),
        obf::derive_schedule_seed(bundle.master, bundle.model_id),
        config.device);
    reference->load_model(bundle.artifact);
  }

  Tensor batch(std::uint64_t seed, std::int64_t n = 1) const {
    Rng rng(seed);
    return Tensor::normal(Shape{n, bundle.artifact.in_channels,
                                bundle.artifact.image_size,
                                bundle.artifact.image_size},
                          rng, 0.0f, 0.25f);
  }
};

DaemonConfig pump_config() {
  DaemonConfig config;
  config.batcher.max_batch_rows = 8;
  config.batcher.slo_p99_us = 20'000;
  config.queue.capacity = 64;
  config.sim_service_base_us = 400;
  config.sim_service_per_row_us = 100;
  return config;
}

TEST(ServeDaemonTest, BlockingSubmitServesWithExactVirtualTimeAccounting) {
  Harness h;
  h.start(pump_config());

  const Tensor images = h.batch(1);
  const Reply reply = h.daemon->submit("alice", images);

  // Alone with the worker free: served the instant it is submitted, so
  // the latency is exactly the simulated 400 + 100 * 1 service time.
  EXPECT_EQ(reply.classes, h.reference->classify(images));
  EXPECT_EQ(reply.queue_wait_us, 0u);
  EXPECT_EQ(reply.latency_us, 500u);
  EXPECT_EQ(reply.batch_rows, 1);
  EXPECT_EQ(reply.attempts, 1);
  EXPECT_FALSE(reply.degraded);
  EXPECT_FALSE(reply.session_fingerprint.empty());

  const DaemonStats stats = h.daemon->stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServeDaemonTest, CoalescedBatchSlicesRepliesInRowOrder) {
  Harness h;
  h.start(pump_config());

  // The oracle runs at coalesced-batch granularity (dynamic int8 scales
  // depend on batch content), hung on the daemon's batch observer.
  int batches_seen = 0;
  h.daemon->set_batch_observer([&](const Tensor& images,
                                   const RequestResult& result,
                                   const auto& requests) {
    ++batches_seen;
    EXPECT_EQ(result.classes, h.reference->classify(images));
    std::int64_t rows = 0;
    for (const auto& request : requests) {
      rows += request->rows();
    }
    EXPECT_EQ(images.dim(0), rows);
  });

  auto a = h.daemon->submit_async("alice", h.batch(1, 2));
  auto b = h.daemon->submit_async("bob", h.batch(2, 3));
  auto c = h.daemon->submit_async("alice", h.batch(3, 3));
  h.daemon->pump_until_idle();
  ASSERT_TRUE(a->done() && b->done() && c->done());

  // 2 + 3 + 3 rows fill one 8-row batch; each reply gets its row slice of
  // the batch result, in fair-rotation order (alice#1, bob, alice#2).
  const Reply ra = a->take();
  const Reply rb = b->take();
  const Reply rc = c->take();
  EXPECT_EQ(batches_seen, 1);
  EXPECT_EQ(ra.batch_id, rb.batch_id);
  EXPECT_EQ(rb.batch_id, rc.batch_id);
  EXPECT_EQ(ra.batch_rows, 8);
  EXPECT_EQ(ra.classes.size(), 2u);
  EXPECT_EQ(rb.classes.size(), 3u);
  EXPECT_EQ(rc.classes.size(), 3u);

  // The slices partition the batch result exactly.
  std::vector<std::int64_t> joined;
  joined.insert(joined.end(), ra.classes.begin(), ra.classes.end());
  joined.insert(joined.end(), rb.classes.begin(), rb.classes.end());
  joined.insert(joined.end(), rc.classes.begin(), rc.classes.end());
  EXPECT_EQ(joined.size(), 8u);
}

TEST(ServeDaemonTest, BacklogLeavesInFullBatchesInFairOrder) {
  Harness h;
  h.start(pump_config());

  std::vector<std::vector<std::uint64_t>> batches;
  h.daemon->set_batch_observer([&](const Tensor& images,
                                   const RequestResult& result,
                                   const auto& requests) {
    EXPECT_EQ(result.classes, h.reference->classify(images));
    batches.emplace_back();
    for (const auto& request : requests) {
      batches.back().push_back(request->id());
    }
  });

  // Ten 1-row requests queued at one instant: alice sends six (ids 1-6),
  // then bob four (ids 7-10).
  std::vector<std::shared_ptr<PendingRequest>> pending;
  for (std::uint64_t i = 0; i < 10; ++i) {
    pending.push_back(
        h.daemon->submit_async(i < 6 ? "alice" : "bob", h.batch(i)));
  }
  h.daemon->pump_until_idle();

  // The first cut takes a full 8-row batch alternating between the lanes;
  // what alice has left ships next, once the worker is free again.
  const std::vector<std::vector<std::uint64_t>> expected{
      {1, 7, 2, 8, 3, 9, 4, 10}, {5, 6}};
  EXPECT_EQ(batches, expected);
  const Reply first = pending[0]->take();
  EXPECT_EQ(first.batch_rows, 8);
  EXPECT_EQ(first.queue_wait_us, 0u);
  EXPECT_EQ(first.latency_us, 1'200u);  // 400 + 100 * 8
  const Reply last = pending[5]->take();
  EXPECT_EQ(last.batch_rows, 2);
  EXPECT_EQ(last.queue_wait_us, 1'200u);
  EXPECT_EQ(last.latency_us, 1'800u);  // waited out batch one, + 400 + 200
}

TEST(ServeDaemonTest, MismatchedSampleShapeIsRejectedSynchronously) {
  Harness h;
  h.start(pump_config());
  (void)h.daemon->submit("alice", h.batch(1));

  // Wrong rank and wrong sample shape both fail at submit time — they must
  // never ride into (and poison) a coalesced batch.
  EXPECT_THROW((void)h.daemon->submit_async("bob", Tensor(Shape{2, 2})),
               ShapeError);
  const auto& art = h.bundle.artifact;
  EXPECT_THROW(
      (void)h.daemon->submit_async(
          "bob", Tensor(Shape{1, art.in_channels, art.image_size + 1,
                              art.image_size})),
      ShapeError);
  EXPECT_EQ(h.daemon->stats().submitted, 1u);
}

TEST(ServeDaemonTest, ShedsAtHighWatermarkWithHonoredRetryAfterHints) {
  Harness h;
  DaemonConfig config = pump_config();
  config.queue.capacity = 32;
  config.admission.high_watermark = 8;
  config.admission.low_watermark = 2;
  config.admission.initial_drain_us_per_request = 700;
  h.start(config);

  // Flood one burst of 2-row requests past the high watermark, no pumping:
  // 8 are admitted (depth reaches the watermark), the rest shed.
  int admitted = 0;
  std::uint64_t first_hint = 0;
  std::vector<std::shared_ptr<PendingRequest>> accepted;
  for (int i = 0; i < 10; ++i) {
    std::string tenant = "t";
    tenant += std::to_string(i % 3);
    try {
      accepted.push_back(h.daemon->submit_async(tenant, h.batch(i, /*n=*/2)));
      ++admitted;
    } catch (const AdmissionRejectedError& e) {
      first_hint = e.retry_after_us();
    }
  }
  EXPECT_EQ(admitted, 8);
  ASSERT_GT(first_hint, 0u);
  EXPECT_TRUE(h.daemon->admission().shedding());

  // A client that honors the hint: sleep retry_after, let one batch pump,
  // retry. Hints must never grow while the queue drains (monotone
  // non-increasing), and the client must eventually be admitted.
  std::vector<std::uint64_t> hints{first_hint};
  std::shared_ptr<PendingRequest> retried;
  for (int attempt = 0; attempt < 32 && retried == nullptr; ++attempt) {
    h.clock.advance(hints.back());
    (void)h.daemon->pump();  // one scheduler step: at most one batch
    try {
      retried = h.daemon->submit_async("late", h.batch(99, /*n=*/2));
    } catch (const AdmissionRejectedError& e) {
      EXPECT_LE(e.retry_after_us(), hints.back())
          << "retry_after grew while draining";
      hints.push_back(e.retry_after_us());
    }
  }
  ASSERT_NE(retried, nullptr) << "honored hints never got the client in";
  // The queue drained partially per step, so at least one retry saw a
  // smaller (not equal) hint before admission reopened.
  EXPECT_GE(hints.size(), 2u);
  h.daemon->pump_until_idle();
  EXPECT_EQ(retried->take().classes.size(), 2u);
  for (const auto& request : accepted) {
    EXPECT_TRUE(request->done());
  }
  EXPECT_FALSE(h.daemon->admission().shedding());
  EXPECT_GE(h.daemon->stats().admission.shed_watermark, 2u);
}

TEST(ServeDaemonTest, QueueBoundBacksUpAdmissionAsTheHardStop) {
  Harness h;
  DaemonConfig config = pump_config();
  config.queue.capacity = 4;
  config.admission.high_watermark = 100;  // admission asleep at the switch
  config.admission.low_watermark = 50;
  h.start(config);

  for (int i = 0; i < 4; ++i) {
    (void)h.daemon->submit_async("a", h.batch(i));
  }
  EXPECT_THROW((void)h.daemon->submit_async("a", h.batch(9)),
               QueueFullError);
  h.daemon->pump_until_idle();
}

TEST(ServeDaemonTest, GracefulDrainCompletesInFlightAndClosesTheDoor) {
  Harness h;
  h.start(pump_config());

  auto a = h.daemon->submit_async("alice", h.batch(1, 2));
  auto b = h.daemon->submit_async("bob", h.batch(2));
  h.daemon->drain();

  // Everything in flight completed (not failed), and the front door is
  // closed: new submits throw instead of queueing forever.
  ASSERT_TRUE(a->done() && b->done());
  EXPECT_EQ(a->take().classes, h.reference->classify(h.batch(1, 2)));
  EXPECT_EQ(b->take().classes.size(), 1u);
  EXPECT_TRUE(h.daemon->queue().closed());
  EXPECT_THROW((void)h.daemon->submit_async("late", h.batch(3)), Error);
  const DaemonStats stats = h.daemon->stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServeDaemonTest, ReloadSwapsPolicyKeepingSessionsAndQueue) {
  Harness h;
  h.start(pump_config());

  const std::string fingerprint =
      h.daemon->submit("alice", h.batch(1)).session_fingerprint;

  DaemonConfig tighter = pump_config();
  tighter.queue.capacity = 2;
  tighter.batcher.max_batch_rows = 1;
  tighter.admission.high_watermark = 2;
  tighter.admission.low_watermark = 1;
  h.daemon->reload(tighter);

  EXPECT_EQ(h.daemon->queue().capacity(), 2u);
  // Cached session keys survive the reload: same fingerprint, a cache hit.
  const Reply after = h.daemon->submit("alice", h.batch(2));
  EXPECT_EQ(after.session_fingerprint, fingerprint);
  EXPECT_GE(h.daemon->stats().sessions.hits, 1u);
  // New batcher policy in force: two queued rows leave one per batch.
  auto x = h.daemon->submit_async("alice", h.batch(3));
  auto y = h.daemon->submit_async("bob", h.batch(4));
  EXPECT_EQ(h.daemon->pump(), 1u);
  EXPECT_EQ(h.daemon->pump(), 1u);
  EXPECT_EQ(x->take().batch_rows, 1);
  EXPECT_EQ(y->take().batch_rows, 1);
}

TEST(ServeDaemonTest, IntegrityQuarantineRevokesTheBatchTenantsSessions) {
  // Replica 0 boots with a flipped sealed-key bit: the first batch trips
  // an integrity quarantine, the supervisor retries onto healthy hardware
  // (the answer stays correct), and the daemon revokes the session of
  // every tenant whose traffic rode the compromised batch.
  Harness h;
  SupervisorConfig config;
  config.replicas = 2;
  config.retry.jitter = 0.0;
  std::vector<ChaosReplicaPlan> plans(1);
  plans[0].initial = hw::FaultPlan{};
  plans[0].initial->key_bits = {17};
  h.start(pump_config(), config, plans);

  const Tensor images = h.batch(1);
  const SessionTicket before = h.daemon->sessions().ticket("alice");
  const Reply reply = h.daemon->submit("alice", images);

  EXPECT_EQ(reply.classes, h.reference->classify(images));
  EXPECT_EQ(reply.attempts, 2);
  // The reply carries the fingerprint issued at admission time...
  EXPECT_EQ(reply.session_fingerprint, before.fingerprint);
  // ...but the tenant's next session rides a rotated key.
  const SessionTicket after = h.daemon->sessions().ticket("alice");
  EXPECT_EQ(after.epoch, before.epoch + 1);
  EXPECT_NE(after.fingerprint, before.fingerprint);
  EXPECT_EQ(h.daemon->stats().sessions.revocations, 1u);
  EXPECT_EQ(h.supervisor->pool().stats().quarantines, 1u);
}

TEST(ServeDaemonTest, OverloadAcceptanceSheddingKeepsSloAndDeterminism) {
  // The issue's acceptance scenario: 2x sustainable offered load, bursty
  // arrivals, a mid-storm replica quarantine. The daemon must shed (with
  // positive retry_after hints), keep admitted p99 under the SLO, serve
  // zero wrong answers, and produce byte-identical reports when rerun.
  const ChaosModelBundle bundle =
      make_chaos_model(33, 16, 0.6, /*with_logit_digest=*/true);

  LoadScenario scenario;
  scenario.requests = 240;
  scenario.batch = 1;
  scenario.tenants = 4;
  scenario.seed = 1;
  scenario.burst = 8;
  scenario.config.replicas = 4;
  scenario.config.verify = VerifyMode::kDigest;
  scenario.daemon.batcher.max_batch_rows = 8;
  scenario.daemon.batcher.slo_p99_us = 20'000;
  scenario.daemon.queue.capacity = 64;
  scenario.daemon.queue.max_queue_wait_us = 20'000;
  scenario.daemon.admission.high_watermark = 48;
  scenario.daemon.admission.low_watermark = 24;
  scenario.daemon.sim_service_base_us = 400;
  scenario.daemon.sim_service_per_row_us = 100;
  scenario.offered_qps = 2.0 * sustainable_qps(scenario);
  scenario.quarantine_at_request = scenario.requests / 2;

  const LoadReport report = run_load_scenario(bundle, scenario);

  // Graceful degradation: shedding, not corruption or collapse.
  EXPECT_EQ(report.offered, 240);
  EXPECT_GT(report.shed, 0);
  EXPECT_GT(report.min_retry_after_us, 0u);
  EXPECT_LE(report.min_retry_after_us, report.max_retry_after_us);
  EXPECT_EQ(report.wrong, 0);
  EXPECT_EQ(report.failed, 0);
  EXPECT_LE(report.p99_latency_us, scenario.daemon.batcher.slo_p99_us);
  EXPECT_EQ(report.accepted + report.shed + report.queue_full,
            report.offered);
  EXPECT_EQ(report.completed + report.expired, report.accepted);
  // The mid-storm capacity loss registered and healed.
  EXPECT_GE(report.pool.quarantines, 1u);
  // Graceful drain: nothing left queued, the queue ended closed.
  EXPECT_EQ(report.daemon.queue_depth, 0u);

  // Determinism: the scenario is a pure function of its parameters — the
  // rerun matches field-for-field and byte-for-byte in metrics.
  const LoadReport rerun = run_load_scenario(bundle, scenario);
  EXPECT_EQ(rerun.accepted, report.accepted);
  EXPECT_EQ(rerun.shed, report.shed);
  EXPECT_EQ(rerun.p50_latency_us, report.p50_latency_us);
  EXPECT_EQ(rerun.p99_latency_us, report.p99_latency_us);
  EXPECT_EQ(rerun.min_retry_after_us, report.min_retry_after_us);
  EXPECT_EQ(rerun.max_retry_after_us, report.max_retry_after_us);
  EXPECT_EQ(rerun.virtual_elapsed_us, report.virtual_elapsed_us);
  EXPECT_EQ(rerun.metrics_json, report.metrics_json);
}

}  // namespace
}  // namespace hpnn::serve
