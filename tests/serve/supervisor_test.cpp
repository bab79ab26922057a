// ServingSupervisor behavior on a simulated clock: happy-path bitwise
// stability, the exact analytic recovery trace for key-store SEUs, witness
// arbitration of datapath faults, the overlapped witness (a fault on either
// side of the overlap follows the serial protocol's trace), and every
// degradation/exhaustion path of the serving error taxonomy.
#include "serve/supervisor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <vector>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "core/threadpool.hpp"
#include "hw/fault.hpp"
#include "hpnn/attestation.hpp"
#include "hpnn/keychain.hpp"
#include "serve/chaos.hpp"

namespace hpnn::serve {
namespace {

std::uint64_t counter_value(const char* name) {
  if (!metrics::enabled()) {
    return 0;
  }
  return metrics::MetricsRegistry::instance().counter(name).value();
}

/// The chaos bundle with MAC layer 0 on a static scale: the probes' own
/// dynamic scale, so attestation agrees as before, and the golden digest
/// (when recorded) re-taken. A static-scale register is what a scale fault
/// can zero, which trips the device's positive-scale invariant mid-run.
ChaosModelBundle static_scale_bundle(bool with_logit_digest) {
  ChaosModelBundle bundle = make_chaos_model(
      /*seed=*/33, /*num_probes=*/16, /*min_agreement=*/0.6,
      with_logit_digest);
  const Tensor& probes = bundle.challenge.probes;
  float max_abs = 0.0f;
  for (std::int64_t i = 0; i < probes.numel(); ++i) {
    max_abs = std::max(max_abs, std::abs(probes.data()[i]));
  }
  bundle.artifact.activation_scales = {max_abs / 127.0f};
  if (with_logit_digest) {
    hw::TrustedDevice golden(
        obf::derive_model_key(bundle.master, bundle.model_id),
        obf::derive_schedule_seed(bundle.master, bundle.model_id));
    golden.load_model(bundle.artifact);
    bundle.challenge.logit_digest_hex =
        obf::logit_digest_hex(golden.infer(probes));
  }
  return bundle;
}

/// Zeroes MAC layer 0's static-scale register: every inference on the
/// faulted device throws InvariantError at its first layer.
std::vector<ChaosReplicaPlan> zeroed_scale_on(std::size_t replica) {
  std::vector<ChaosReplicaPlan> plans(replica + 1);
  plans[replica].initial = hw::FaultPlan{};
  plans[replica].initial->scale_relative_error = -1.0;
  plans[replica].initial->scale_layers = {0};
  return plans;
}

/// Builds a supervisor over the deterministic chaos model bundle, wiring
/// per-replica FaultPlans through the provision hook (the injectors outlive
/// the devices; the hook can run concurrently from maintenance workers).
struct Harness {
  ChaosModelBundle bundle = make_chaos_model(/*seed=*/33);
  core::SimulatedClock clock{0};
  std::vector<std::unique_ptr<hw::FaultInjector>> injectors;
  std::mutex injectors_mutex;
  std::unique_ptr<ServingSupervisor> supervisor;
  std::unique_ptr<hw::TrustedDevice> reference;

  void start(SupervisorConfig config,
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
    if (metrics::enabled()) {
      metrics::MetricsRegistry::instance().reset();
    }
    supervisor = std::make_unique<ServingSupervisor>(
        bundle.master, bundle.model_id, bundle.artifact, bundle.challenge,
        config);
    reference = std::make_unique<hw::TrustedDevice>(
        obf::derive_model_key(bundle.master, bundle.model_id),
        obf::derive_schedule_seed(bundle.master, bundle.model_id),
        config.device);
    reference->load_model(bundle.artifact);
  }

  Tensor batch(std::uint64_t seed, std::int64_t n = 2) const {
    Rng rng(seed);
    return Tensor::normal(Shape{n, bundle.artifact.in_channels,
                                bundle.artifact.image_size,
                                bundle.artifact.image_size},
                          rng, 0.0f, 0.25f);
  }
};

TEST(SupervisorTest, HealthyPoolMatchesReferenceBitwise) {
  Harness h;
  SupervisorConfig config;
  config.replicas = 2;
  h.start(config);

  const Tensor images = h.batch(1, 3);
  const Tensor expected_logits = h.reference->infer(images);

  const RequestResult first = h.supervisor->submit(images);
  EXPECT_EQ(first.attempts, 1);
  EXPECT_FALSE(first.degraded);
  EXPECT_TRUE(bitwise_equal(first.logits, expected_logits));
  EXPECT_EQ(first.classes, h.reference->classify(images));

  // Replica rotation must not change the answer: healthy replicas are
  // bit-identical executors of the same sealed key.
  const RequestResult second = h.supervisor->submit(images);
  EXPECT_NE(second.replica, first.replica);
  EXPECT_TRUE(bitwise_equal(second.logits, expected_logits));
}

TEST(SupervisorTest, KeySeuRecoveryFollowsTheAnalyticTrace) {
  // Two of four replicas start with a single flipped sealed-key bit. The
  // analytic trace: request 1 lands on replica 0 (integrity pre-check
  // quarantines it), retries onto replica 1 after maintenance re-provisions
  // replica 0 (quarantining replica 1 the same way), and succeeds on
  // replica 2 at attempt 3. Every later request is a clean single attempt.
  Harness h;
  SupervisorConfig config;
  config.replicas = 4;
  config.retry.jitter = 0.0;  // exact virtual-time arithmetic below
  std::vector<ChaosReplicaPlan> plans(2);
  plans[0].initial = hw::FaultPlan{};
  plans[0].initial->key_bits = {17};
  plans[1].initial = hw::FaultPlan{};
  plans[1].initial->key_bits = {203};
  h.start(config, plans);

  constexpr int kRequests = 6;
  int total_attempts = 0;
  for (int r = 0; r < kRequests; ++r) {
    h.clock.advance(100);
    const Tensor images = h.batch(100 + static_cast<std::uint64_t>(r));
    const RequestResult result = h.supervisor->submit(images);
    total_attempts += result.attempts;
    EXPECT_EQ(result.classes, h.reference->classify(images)) << "request " << r;
    EXPECT_EQ(result.attempts, r == 0 ? 3 : 1) << "request " << r;
    EXPECT_FALSE(result.degraded);
    if (r == 0) {
      EXPECT_EQ(result.replica, 2u);
      // Two exact backoff sleeps: 500us then 1000us (jitter disabled).
      EXPECT_EQ(result.latency_us, 1500u);
    }
  }

  EXPECT_EQ(total_attempts, kRequests + 2);
  const PoolStats stats = h.supervisor->pool().stats();
  EXPECT_EQ(stats.quarantines, 2u);
  EXPECT_EQ(stats.reprovisions, 2u);
  EXPECT_EQ(stats.reprovision_failures, 0u);
  EXPECT_EQ(stats.probes, 0u);       // quarantine skips the probe path
  EXPECT_EQ(stats.breaker_trips, 0u);
  EXPECT_EQ(h.supervisor->pool().reprovision_count(0), 1u);
  EXPECT_EQ(h.supervisor->pool().reprovision_count(1), 1u);
  EXPECT_EQ(h.supervisor->pool().admitting_count(), 4u);

  if (metrics::enabled()) {
    EXPECT_EQ(counter_value("serve.requests"), 6u);
    EXPECT_EQ(counter_value("serve.success"), 6u);
    EXPECT_EQ(counter_value("serve.attempts"), 8u);
    EXPECT_EQ(counter_value("serve.retries"), 2u);
    EXPECT_EQ(counter_value("serve.attempt_fail.integrity"), 2u);
    EXPECT_EQ(counter_value("serve.backoff.sleeps"), 2u);
    EXPECT_EQ(counter_value("serve.witness.runs"), 6u);
    EXPECT_EQ(counter_value("serve.witness.mismatches"), 0u);
    EXPECT_EQ(counter_value("serve.degraded_success"), 0u);
  }
}

TEST(SupervisorTest, WitnessArbitratesDeterministicDatapathFault) {
  // Bit 12 of every keyed accumulator flips on replica 0: deterministic
  // corruption that an echo cannot see (both runs corrupt identically) but
  // a witness catches on the first differing bit. The ±2^12 perturbation
  // sits right at the scale of the logit gaps, so the attestation replay
  // scrambles enough probe classes to pin the fault on the primary (a
  // bit-30 flip would shift every logit yet preserve most argmaxes and
  // leave attestation inconclusive — see the echo test below).
  Harness h;
  SupervisorConfig config;
  config.replicas = 2;
  config.retry.jitter = 0.0;
  h.start(config);

  hw::FaultPlan corrupt;
  corrupt.accumulator_flip_rate = 1.0;
  corrupt.accumulator_bit = 12;
  corrupt.seed = 99;
  auto injector = std::make_unique<hw::FaultInjector>(corrupt);
  h.supervisor->pool().with_replica(0, [&](hw::TrustedDevice& device) {
    device.attach_fault_injector(injector.get());
  });

  const Tensor images = h.batch(7);
  const RequestResult result = h.supervisor->submit(images);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(result.classes, h.reference->classify(images));

  const PoolStats stats = h.supervisor->pool().stats();
  EXPECT_EQ(stats.quarantines, 1u);   // the primary failed attestation
  EXPECT_EQ(stats.reprovisions, 1u);  // healed before the retry
  if (metrics::enabled()) {
    EXPECT_EQ(counter_value("serve.witness.mismatches"), 1u);
    EXPECT_EQ(counter_value("serve.attempt_fail.mismatch"), 1u);
  }
}

TEST(SupervisorTest, PrimaryFaultWithWitnessInFlightFollowsTheSerialTrace) {
  // Replica 0 throws at its first layer. Attempt 1: primary 0, witness 1
  // already posted; the primary's throw discards the witness's answer,
  // penalizes replica 0 and releases both leases. Attempt 2: primary 1,
  // witness 0, which throws on its side of the overlap: replica 0 is
  // penalized again and the request falls back to the digest check (an
  // echo here: the bundle records no digest). Every counter and pool
  // transition is the serial protocol's, whichever thread ran the witness.
  Harness h;
  h.bundle = static_scale_bundle(/*with_logit_digest=*/false);
  SupervisorConfig config;
  config.replicas = 2;
  config.retry.jitter = 0.0;
  h.start(config, zeroed_scale_on(0));

  const Tensor images = h.batch(21);
  const RequestResult result = h.supervisor->submit(images);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(result.replica, 1u);
  EXPECT_TRUE(bitwise_equal(result.logits, h.reference->infer(images)));

  const PoolStats stats = h.supervisor->pool().stats();
  EXPECT_EQ(stats.quarantines, 0u);
  EXPECT_EQ(stats.breaker_trips, 0u);  // two failures, below the threshold
  EXPECT_EQ(stats.probes, 0u);
  EXPECT_EQ(stats.reprovisions, 0u);
  EXPECT_EQ(h.supervisor->pool().admitting_count(), 2u);
  // No lease leaked: both replicas are free again.
  for (std::size_t other : {0u, 1u}) {
    const DevicePool::Lease lease =
        h.supervisor->pool().acquire_witness(other);
    EXPECT_TRUE(lease.valid()) << "replica " << 1 - other << " still leased";
  }
  if (metrics::enabled()) {
    EXPECT_EQ(counter_value("serve.attempts"), 2u);
    EXPECT_EQ(counter_value("serve.retries"), 1u);
    EXPECT_EQ(counter_value("serve.attempt_fail.error"), 1u);
    EXPECT_EQ(counter_value("serve.witness.runs"), 1u);
    EXPECT_EQ(counter_value("serve.witness.mismatches"), 0u);
    EXPECT_EQ(counter_value("serve.echo.runs"), 1u);
    EXPECT_EQ(counter_value("serve.success"), 1u);
  }
}

TEST(SupervisorTest, WitnessFaultMidRunFallsBackToTheDigestCheck) {
  // The witness (replica 1) throws while the primary's answer is good:
  // the witness is penalized, and the primary's answer is verified by its
  // golden-digest replay instead, in the same attempt.
  Harness h;
  h.bundle = static_scale_bundle(/*with_logit_digest=*/true);
  SupervisorConfig config;
  config.replicas = 2;
  h.start(config, zeroed_scale_on(1));

  const Tensor images = h.batch(23);
  const RequestResult result = h.supervisor->submit(images);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.replica, 0u);
  EXPECT_TRUE(bitwise_equal(result.logits, h.reference->infer(images)));

  const PoolStats stats = h.supervisor->pool().stats();
  EXPECT_EQ(stats.quarantines, 0u);
  EXPECT_EQ(stats.breaker_trips, 0u);
  if (metrics::enabled()) {
    EXPECT_EQ(counter_value("serve.witness.runs"), 1u);
    EXPECT_EQ(counter_value("serve.digest.runs"), 1u);
    EXPECT_EQ(counter_value("serve.digest.mismatches"), 0u);
    EXPECT_EQ(counter_value("serve.attempt_fail.error"), 0u);
  }
}

TEST(SupervisorTest, LaneAndCallerWitnessRunsServeTheSameAnswers) {
  // Whether a lane ran the witness or the caller took it back is up to the
  // OS; the answer, the pool's books and the deterministic counters are
  // not. Every witness join is accounted to exactly one of the two paths.
  Harness h;
  SupervisorConfig config;
  config.replicas = 3;
  h.start(config);

  constexpr int kRequests = 24;
  for (int r = 0; r < kRequests; ++r) {
    const Tensor images = h.batch(300 + static_cast<std::uint64_t>(r),
                                  1 + r % 4);
    const RequestResult result = h.supervisor->submit(images);
    EXPECT_EQ(result.attempts, 1) << "request " << r;
    EXPECT_TRUE(bitwise_equal(result.logits, h.reference->infer(images)))
        << "request " << r;
  }
  const PoolStats stats = h.supervisor->pool().stats();
  EXPECT_EQ(stats.quarantines, 0u);
  EXPECT_EQ(stats.breaker_trips, 0u);
  EXPECT_EQ(stats.probes, 0u);
  if (metrics::enabled()) {
    auto& registry = metrics::MetricsRegistry::instance();
    EXPECT_EQ(counter_value("serve.witness.runs"),
              static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(counter_value("serve.witness.mismatches"), 0u);
    EXPECT_EQ(registry.counter("serve.witness.ran_inline").value() +
                  registry.histogram("serve.witness.wait_us").count(),
              static_cast<std::uint64_t>(kRequests));
  }
}

TEST(SupervisorTest, EchoCannotCatchDeterministicFaults) {
  // The documented limitation that makes kWitness the default: a
  // deterministic datapath fault reproduces exactly on an echo replay, so
  // echo verification serves corrupted logits without noticing. (A bit-30
  // flip shifts every logit by ±2^30 quanta yet tends to preserve the
  // argmax, so the damage here is to the logits, not the classes — which
  // is exactly why nothing class-based flags it either.)
  Harness h;
  SupervisorConfig config;
  config.replicas = 1;
  config.verify = VerifyMode::kEcho;
  h.start(config);

  hw::FaultPlan corrupt;
  corrupt.accumulator_flip_rate = 1.0;
  corrupt.seed = 99;
  auto injector = std::make_unique<hw::FaultInjector>(corrupt);
  h.supervisor->pool().with_replica(0, [&](hw::TrustedDevice& device) {
    device.attach_fault_injector(injector.get());
  });

  const Tensor images = h.batch(9);
  const RequestResult result = h.supervisor->submit(images);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_FALSE(bitwise_equal(result.logits, h.reference->infer(images)));
  if (metrics::enabled()) {
    EXPECT_EQ(counter_value("serve.echo.mismatches"), 0u);
  }
}

TEST(SupervisorTest, DigestCatchesTheBit30FaultEchoMisses) {
  // Regression for the echo blind spot above: the *same* deterministic
  // bit-30 accumulator fault (flip_rate 1.0), but the bundle carries the
  // provision-time golden logit digest and verification runs kDigest. The
  // corrupted probe logits cannot reproduce the golden digest, so the
  // primary is quarantined and the retry serves bit-exact logits from
  // healed hardware — the fault class kEcho provably serves through.
  Harness h;
  h.bundle = make_chaos_model(/*seed=*/33, /*num_probes=*/16,
                              /*min_agreement=*/0.6,
                              /*with_logit_digest=*/true);
  SupervisorConfig config;
  config.replicas = 2;
  config.verify = VerifyMode::kDigest;
  config.retry.jitter = 0.0;
  h.start(config);

  hw::FaultPlan corrupt;
  corrupt.accumulator_flip_rate = 1.0;  // bit 30, the default
  corrupt.seed = 99;
  auto injector = std::make_unique<hw::FaultInjector>(corrupt);
  h.supervisor->pool().with_replica(0, [&](hw::TrustedDevice& device) {
    device.attach_fault_injector(injector.get());
  });

  const Tensor images = h.batch(9);
  const RequestResult result = h.supervisor->submit(images);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_TRUE(bitwise_equal(result.logits, h.reference->infer(images)));
  EXPECT_EQ(result.classes, h.reference->classify(images));

  const PoolStats stats = h.supervisor->pool().stats();
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.reprovisions, 1u);
  if (metrics::enabled()) {
    EXPECT_EQ(counter_value("serve.digest.runs"), 2u);
    EXPECT_EQ(counter_value("serve.digest.mismatches"), 1u);
    EXPECT_EQ(counter_value("serve.attempt_fail.mismatch"), 1u);
  }
}

TEST(SupervisorTest, DigestWithoutGoldenFallsBackToEcho) {
  // kDigest on a bundle provisioned without a golden digest degrades to
  // echo verification — and inherits echo's documented blind spot.
  Harness h;  // default bundle: no logit digest recorded
  SupervisorConfig config;
  config.replicas = 1;
  config.verify = VerifyMode::kDigest;
  h.start(config);

  hw::FaultPlan corrupt;
  corrupt.accumulator_flip_rate = 1.0;
  corrupt.seed = 99;
  auto injector = std::make_unique<hw::FaultInjector>(corrupt);
  h.supervisor->pool().with_replica(0, [&](hw::TrustedDevice& device) {
    device.attach_fault_injector(injector.get());
  });

  const Tensor images = h.batch(9);
  const RequestResult result = h.supervisor->submit(images);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_FALSE(bitwise_equal(result.logits, h.reference->infer(images)));
  if (metrics::enabled()) {
    EXPECT_EQ(counter_value("serve.digest.runs"), 0u);
    EXPECT_EQ(counter_value("serve.echo.mismatches"), 0u);
  }
}

TEST(SupervisorTest, RetryExhaustionCarriesTheCauseHistory) {
  // A single replica whose replacement hardware is just as corrupt: the
  // first attempt quarantines it, re-provisioning keeps failing, and the
  // remaining attempts drain against an empty pool.
  Harness h;
  SupervisorConfig config;
  config.replicas = 1;
  config.retry.max_attempts = 3;
  config.retry.jitter = 0.0;
  std::vector<ChaosReplicaPlan> plans(1);
  plans[0].initial = hw::FaultPlan{};
  plans[0].initial->key_bits = {42};
  plans[0].after_reprovision = plans[0].initial;
  h.start(config, plans);

  const Tensor images = h.batch(11);
  try {
    (void)h.supervisor->submit(images);
    FAIL() << "expected RetryExhaustedError";
  } catch (const RetryExhaustedError& e) {
    ASSERT_EQ(e.attempts(), 3);
    EXPECT_NE(e.history()[0].find("integrity"), std::string::npos);
    EXPECT_NE(e.history()[1].find("no healthy replica"), std::string::npos);
    EXPECT_NE(e.history()[2].find("no healthy replica"), std::string::npos);
  }
  const PoolStats stats = h.supervisor->pool().stats();
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.reprovisions, 0u);
  EXPECT_EQ(stats.reprovision_failures, 2u);  // attempts 2 and 3 both tried
}

TEST(SupervisorTest, DeadlineCutsOffBeforeBackoffWouldOverrun) {
  Harness h;
  SupervisorConfig config;
  config.replicas = 1;
  config.retry.jitter = 0.0;  // first backoff is exactly base_backoff_us
  std::vector<ChaosReplicaPlan> plans(1);
  plans[0].initial = hw::FaultPlan{};
  plans[0].initial->key_bits = {42};
  plans[0].after_reprovision = plans[0].initial;
  h.start(config, plans);

  RequestOptions options;
  options.deadline_us = 400;  // < base backoff of 500us
  try {
    (void)h.supervisor->submit(h.batch(13), options);
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& e) {
    EXPECT_EQ(e.budget_us(), 400u);
    EXPECT_GE(e.elapsed_us(), 500u);  // elapsed-if-slept projection
  }
}

TEST(SupervisorTest, FailClosedRefusesDegradedPool) {
  Harness h;
  SupervisorConfig config;
  config.replicas = 2;
  config.degradation = DegradationPolicy::kFailClosed;
  config.retry.jitter = 0.0;
  std::vector<ChaosReplicaPlan> plans(1);
  plans[0].initial = hw::FaultPlan{};
  plans[0].initial->key_bits = {7};
  plans[0].after_reprovision = plans[0].initial;  // stays sick
  h.start(config, plans);

  // Attempt 1 quarantines replica 0; re-provisioning fails, so attempt 2
  // sees 1 of 2 replicas unhealthy and fail-closed refuses outright.
  EXPECT_THROW((void)h.supervisor->submit(h.batch(17)),
               DeviceUnavailableError);
  EXPECT_EQ(h.supervisor->pool().admitting_count(), 1u);
}

TEST(SupervisorTest, RejectWithRetryAfterGivesBackpressureHint) {
  Harness h;
  SupervisorConfig config;
  config.replicas = 1;
  config.degradation = DegradationPolicy::kRejectWithRetryAfter;
  h.start(config);

  // Trip the lone replica's breaker (3 consecutive reported failures); the
  // cooldown clock now dictates when maintenance can probe it again.
  for (int i = 0; i < 3; ++i) {
    h.supervisor->pool().report_failure(0);
  }
  ASSERT_EQ(h.supervisor->pool().state(0), BreakerState::kOpen);

  try {
    (void)h.supervisor->submit(h.batch(19));
    FAIL() << "expected DeviceUnavailableError";
  } catch (const DeviceUnavailableError& e) {
    EXPECT_EQ(e.retry_after_us(), config.breaker.open_cooldown_us);
  }
}

}  // namespace
}  // namespace hpnn::serve
