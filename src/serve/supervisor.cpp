#include "serve/supervisor.hpp"

#include <chrono>
#include <cstring>
#include <utility>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "serve/attest.hpp"

namespace hpnn::serve {
namespace {

std::vector<std::int64_t> argmax_rows(const Tensor& logits) {
  const std::int64_t n = logits.dim(0);
  const std::int64_t classes = logits.dim(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(n), 0);
  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < classes; ++j) {
      if (logits.at(i, j) > logits.at(i, best)) {
        best = j;
      }
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

std::string replica_tag(std::size_t index) {
  return "replica " + std::to_string(index);
}

/// Records how a witness join went: the caller took the job back, or it
/// waited for the lane since `joined_at`. Both measure how the OS
/// scheduled the lane, not the work done, so they stay out of the
/// deterministic snapshot (DESIGN.md §9).
void observe_witness_join(bool ran_inline,
                          std::chrono::steady_clock::time_point joined_at) {
  if (!metrics::enabled()) {
    return;
  }
  auto& registry = metrics::MetricsRegistry::instance();
  if (ran_inline) {
    static metrics::Counter& inline_runs = registry.counter(
        "serve.witness.ran_inline", metrics::Determinism::kSchedulingDependent);
    inline_runs.add(1);
    return;
  }
  static metrics::Histogram& wait_us = registry.histogram(
      "serve.witness.wait_us", {}, metrics::Determinism::kSchedulingDependent);
  wait_us.observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - joined_at)
          .count()));
}

}  // namespace

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return false;
  }
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

ServingSupervisor::ServingSupervisor(const obf::HpnnKey& master_key,
                                     const std::string& model_id,
                                     const obf::PublishedModel& artifact,
                                     obf::AttestationChallenge challenge,
                                     SupervisorConfig config)
    : config_(std::move(config)),
      clock_(config_.clock != nullptr ? config_.clock
                                      : &core::SteadyClock::instance()),
      pool_(master_key, model_id, artifact, std::move(challenge),
            PoolConfig{config_.replicas, config_.device, config_.breaker},
            *clock_, config_.provision),
      backoff_rng_(config_.backoff_seed),
      lanes_(config_.replicas) {
  HPNN_CHECK(config_.retry.max_attempts >= 1,
             "retry policy must allow at least one attempt");
}

std::uint64_t ServingSupervisor::next_backoff_us(int failed_attempts) {
  std::lock_guard<std::mutex> lock(backoff_mutex_);
  return backoff_delay_us(config_.retry, failed_attempts, backoff_rng_);
}

RequestResult ServingSupervisor::submit(const Tensor& images,
                                        const RequestOptions& options) {
  const std::uint64_t start = clock_->now_us();
  const std::uint64_t budget = options.deadline_us != 0
                                   ? options.deadline_us
                                   : config_.default_deadline_us;
  HPNN_METRIC_COUNT("serve.requests", 1);
  std::vector<std::string> history;

  for (int attempt = 1;; ++attempt) {
    // Heal before routing: re-provision quarantined replicas and probe
    // tripped ones whose cooldown elapsed, so a retry can land on hardware
    // that was sick one attempt ago.
    pool_.run_maintenance(clock_->now_us());

    const std::uint64_t elapsed = clock_->now_us() - start;
    if (budget != 0 && elapsed >= budget) {
      HPNN_METRIC_COUNT("serve.fail.timeout", 1);
      throw TimeoutError("request deadline exceeded after " +
                             std::to_string(history.size()) +
                             " failed attempt(s)",
                         elapsed, budget);
    }

    const std::size_t admitting = pool_.admitting_count();
    if (config_.degradation == DegradationPolicy::kFailClosed &&
        admitting < pool_.size()) {
      HPNN_METRIC_COUNT("serve.fail.unavailable", 1);
      throw DeviceUnavailableError(
          "fail-closed policy: " +
          std::to_string(pool_.size() - admitting) + " of " +
          std::to_string(pool_.size()) + " replicas unhealthy");
    }

    Attempt attempt_result;
    if (admitting == 0) {
      if (config_.degradation == DegradationPolicy::kRejectWithRetryAfter) {
        const std::uint64_t now = clock_->now_us();
        const std::uint64_t due = pool_.next_maintenance_due_us(now);
        HPNN_METRIC_COUNT("serve.fail.unavailable", 1);
        throw DeviceUnavailableError("no healthy replica available",
                                     due > now ? due - now : 0);
      }
      HPNN_METRIC_COUNT("serve.attempts", 1);
      HPNN_METRIC_COUNT("serve.attempt_fail.unavailable", 1);
      attempt_result.cause = "no healthy replica available";
    } else {
      HPNN_METRIC_COUNT("serve.attempts", 1);
      attempt_result = try_once(images);
    }

    if (attempt_result.ok) {
      RequestResult result;
      result.logits = std::move(attempt_result.logits);
      result.classes = argmax_rows(result.logits);
      result.attempts = attempt;
      result.replica = attempt_result.replica;
      result.latency_us = clock_->now_us() - start;
      result.degraded = pool_.admitting_count() < pool_.size();
      HPNN_METRIC_COUNT("serve.success", 1);
      if (result.degraded) {
        HPNN_METRIC_COUNT("serve.degraded_success", 1);
      }
      HPNN_METRIC_OBSERVE("serve.request.latency_us", result.latency_us);
      if (metrics::enabled()) {
        static metrics::Histogram& attempts_hist =
            metrics::MetricsRegistry::instance().histogram(
                "serve.request.attempts",
                {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0});
        attempts_hist.observe(static_cast<double>(attempt));
      }
      return result;
    }

    history.push_back(std::move(attempt_result.cause));
    if (attempt >= config_.retry.max_attempts) {
      HPNN_METRIC_COUNT("serve.fail.retry_exhausted", 1);
      throw RetryExhaustedError("inference request failed", history);
    }

    const std::uint64_t delay = next_backoff_us(attempt);
    if (budget != 0 && (clock_->now_us() - start) + delay >= budget) {
      HPNN_METRIC_COUNT("serve.fail.timeout", 1);
      throw TimeoutError(
          "deadline would elapse during backoff (last cause: " +
              history.back() + ")",
          (clock_->now_us() - start) + delay, budget);
    }
    HPNN_METRIC_COUNT("serve.backoff.sleeps", 1);
    HPNN_METRIC_COUNT("serve.backoff.slept_us", delay);
    clock_->sleep_us(delay);
    HPNN_METRIC_COUNT("serve.retries", 1);
  }
}

ServingSupervisor::Attempt ServingSupervisor::try_once(const Tensor& images) {
  Attempt result;
  DevicePool::Lease primary = pool_.acquire();
  if (!primary.valid()) {
    // Raced to zero healthy replicas between the availability check and
    // the acquire; treated like any other unavailable attempt.
    HPNN_METRIC_COUNT("serve.attempt_fail.unavailable", 1);
    result.cause = "no healthy replica available";
    return result;
  }
  result.replica = primary.index;

  // Integrity pre-check: a key-store SEU must never reach the datapath.
  // infer() itself does not re-verify the digest (the paper's device fails
  // closed at load/self-test), so the supervisor gates every attempt.
  if (!primary.device->key_store().integrity_ok()) {
    pool_.quarantine(primary.index);
    HPNN_METRIC_COUNT("serve.attempt_fail.integrity", 1);
    result.cause = replica_tag(primary.index) +
                   ": key-store integrity check failed";
    return result;
  }

  try {
    return run_verified(primary, images);
  } catch (const ShapeError&) {
    throw;  // malformed request — a caller bug, never retried
  } catch (const KeyError& e) {
    pool_.quarantine(primary.index);
    HPNN_METRIC_COUNT("serve.attempt_fail.integrity", 1);
    result.cause = replica_tag(primary.index) + ": " + e.what();
    return result;
  } catch (const Error& e) {
    // Datapath malfunction mid-inference (e.g. a corrupted scale register
    // tripping a device invariant): penalize and retry elsewhere.
    pool_.report_failure(primary.index);
    HPNN_METRIC_COUNT("serve.attempt_fail.error", 1);
    result.cause = replica_tag(primary.index) + ": " + e.what();
    return result;
  }
}

DevicePool::Lease ServingSupervisor::lease_witness(std::size_t primary) {
  for (std::size_t guard = 0; guard < pool_.size(); ++guard) {
    DevicePool::Lease witness = pool_.acquire_witness(primary);
    if (!witness.valid() || witness.device->key_store().integrity_ok()) {
      return witness;
    }
    pool_.quarantine(witness.index);  // not offered again
  }
  return {};
}

ServingSupervisor::Attempt ServingSupervisor::run_verified(
    DevicePool::Lease& primary, const Tensor& images) {
  Attempt result;
  result.replica = primary.index;

  // kWitness: lease a second replica whose key store is intact before the
  // primary runs, and hand its inference to a lane so the two devices run
  // side by side. The lease and the result are declared before the job, so
  // they outlive it: an early return or a throw below finishes the job
  // first (its answer is then discarded). A posted witness thus always
  // runs exactly once, and every replica's fault draws follow the request
  // sequence, not the lane's timing.
  DevicePool::Lease witness;
  if (config_.verify == VerifyMode::kWitness) {
    witness = lease_witness(primary.index);
  }
  Tensor witness_logits;
  auto run_witness = [&] { witness_logits = witness.device->infer(images); };
  ExecutionLanes::Job witness_job(run_witness);
  if (witness.valid()) {
    lanes_.post(witness_job);
  }

  Tensor logits = primary.device->infer(images);

  // Post-check: catches an SEU that landed while the request was on the
  // datapath (long batches on real hardware).
  if (!primary.device->key_store().integrity_ok()) {
    pool_.quarantine(primary.index);
    HPNN_METRIC_COUNT("serve.attempt_fail.integrity", 1);
    result.cause = replica_tag(primary.index) +
                   ": key-store integrity check failed after inference";
    return result;
  }

  if (config_.verify == VerifyMode::kNone) {
    pool_.report_success(primary.index);
    result.ok = true;
    result.logits = std::move(logits);
    return result;
  }
  if (config_.verify == VerifyMode::kEcho) {
    return echo_check(primary, std::move(logits), images);
  }
  if (config_.verify == VerifyMode::kDigest) {
    return digest_check(primary, std::move(logits), images);
  }

  if (!witness.valid()) {
    // Single healthy replica (or all peers busy): degrade to the digest
    // self-witness (itself degrading to an echo when no digest exists).
    return digest_check(primary, std::move(logits), images);
  }

  HPNN_METRIC_COUNT("serve.witness.runs", 1);
  const auto joined_at = std::chrono::steady_clock::now();
  observe_witness_join(lanes_.finish(witness_job), joined_at);
  // A KeyError is an Error like any other here: TrustedDevice::infer does
  // not check key-store integrity, lease_witness checked the witness's
  // before it ran, and a key that flips during the run shows as a logit
  // mismatch, which the attestation arbitration below settles.
  try {
    witness_job.rethrow_error();
  } catch (const ShapeError&) {
    throw;
  } catch (const Error&) {
    pool_.report_failure(witness.index);
    witness = {};
    return digest_check(primary, std::move(logits), images);
  }

  if (bitwise_equal(logits, witness_logits)) {
    // Healthy replicas are bit-identical executors; exact agreement is the
    // expected case, not a lucky one.
    pool_.report_success(primary.index);
    pool_.report_success(witness.index);
    result.ok = true;
    result.logits = std::move(logits);
    return result;
  }

  // One of the two is faulty. Arbitrate by replaying the artifact's
  // attestation challenge on both replicas (class agreement plus the golden
  // logit digest when the challenge records one — the digest makes faults
  // that preserve the argmax, like a stuck bit 30, decisively attributable).
  HPNN_METRIC_COUNT("serve.witness.mismatches", 1);
  const auto attest = [this](DevicePool::Lease& lease) {
    try {
      return attestation_probe(*lease.device, pool_.challenge()).passed;
    } catch (const Error&) {
      return false;  // KeyError => integrity gone => failed attestation
    }
  };
  const bool primary_passed = attest(primary);
  const bool witness_passed = attest(witness);
  if (!primary_passed) {
    pool_.quarantine(primary.index);
  }
  if (!witness_passed) {
    pool_.quarantine(witness.index);
  }

  if (primary_passed && !witness_passed) {
    // The witness was the liar; the primary's answer stands.
    pool_.report_success(primary.index);
    result.ok = true;
    result.logits = std::move(logits);
    return result;
  }

  HPNN_METRIC_COUNT("serve.attempt_fail.mismatch", 1);
  if (primary_passed && witness_passed) {
    // Transient fault, cannot attribute: penalize both, retry elsewhere.
    pool_.report_failure(primary.index);
    pool_.report_failure(witness.index);
    result.cause = replica_tag(primary.index) + " and " +
                   replica_tag(witness.index) +
                   " disagreed; attestation inconclusive";
  } else {
    result.cause = replica_tag(primary.index) +
                   ": failed attestation after witness mismatch";
  }
  return result;
}

ServingSupervisor::Attempt ServingSupervisor::echo_check(
    DevicePool::Lease& primary, Tensor logits, const Tensor& images) {
  Attempt result;
  result.replica = primary.index;

  HPNN_METRIC_COUNT("serve.echo.runs", 1);
  const Tensor replay = primary.device->infer(images);
  if (bitwise_equal(logits, replay)) {
    pool_.report_success(primary.index);
    result.ok = true;
    result.logits = std::move(logits);
    return result;
  }

  // The device contradicted itself: a transient datapath fault fired in at
  // least one of the two runs.
  HPNN_METRIC_COUNT("serve.echo.mismatches", 1);
  HPNN_METRIC_COUNT("serve.attempt_fail.mismatch", 1);
  bool passed = false;
  try {
    passed = primary.device->self_test(pool_.challenge()).passed;
  } catch (const Error&) {
    passed = false;
  }
  if (passed) {
    pool_.report_failure(primary.index);
    result.cause = replica_tag(primary.index) +
                   ": echo mismatch (transient datapath fault suspected)";
  } else {
    pool_.quarantine(primary.index);
    result.cause = replica_tag(primary.index) +
                   ": echo mismatch and failed attestation";
  }
  return result;
}

ServingSupervisor::Attempt ServingSupervisor::digest_check(
    DevicePool::Lease& primary, Tensor logits, const Tensor& images) {
  if (pool_.challenge().logit_digest_hex.empty()) {
    // Artifact published before golden digests existed: the strongest
    // single-replica check left is the echo.
    return echo_check(primary, std::move(logits), images);
  }

  Attempt result;
  result.replica = primary.index;

  HPNN_METRIC_COUNT("serve.digest.runs", 1);
  ProbeResult probe;
  try {
    probe = attestation_probe(*primary.device, pool_.challenge());
  } catch (const KeyError& e) {
    pool_.quarantine(primary.index);
    HPNN_METRIC_COUNT("serve.attempt_fail.integrity", 1);
    result.cause = replica_tag(primary.index) + ": " + e.what();
    return result;
  } catch (const Error& e) {
    pool_.report_failure(primary.index);
    HPNN_METRIC_COUNT("serve.attempt_fail.error", 1);
    result.cause = replica_tag(primary.index) +
                   ": probe replay failed: " + e.what();
    return result;
  }

  if (probe.passed) {
    pool_.report_success(primary.index);
    result.ok = true;
    result.logits = std::move(logits);
    return result;
  }

  // The replica no longer reproduces the owner's golden probe logits: its
  // datapath (or key material) is corrupt right now, whether or not the
  // fault is deterministic. The answer it just served is not trustworthy.
  HPNN_METRIC_COUNT("serve.digest.mismatches", 1);
  HPNN_METRIC_COUNT("serve.attempt_fail.mismatch", 1);
  pool_.quarantine(primary.index);
  result.cause = replica_tag(primary.index) +
                 ": probe logits diverged from golden digest (class "
                 "agreement " +
                 std::to_string(probe.agreement) + ")";
  return result;
}

}  // namespace hpnn::serve
