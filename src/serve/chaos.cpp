#include "serve/chaos.hpp"

#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "hpnn/attestation.hpp"
#include "hpnn/keychain.hpp"
#include "hpnn/locked_model.hpp"
#include "hpnn/model_io.hpp"

namespace hpnn::serve {

ChaosModelBundle make_chaos_model(std::uint64_t seed, std::int64_t num_probes,
                                  double min_agreement,
                                  bool with_logit_digest) {
  ChaosModelBundle bundle;
  Rng rng(seed);
  bundle.master = obf::HpnnKey::random(rng);
  bundle.model_id = "chaos-cnn1";

  const obf::HpnnKey model_key =
      obf::derive_model_key(bundle.master, bundle.model_id);
  const std::uint64_t schedule_seed =
      obf::derive_schedule_seed(bundle.master, bundle.model_id);

  models::ModelConfig cfg;
  cfg.in_channels = 1;
  cfg.image_size = 16;
  cfg.init_seed = seed + 7;
  obf::Scheduler scheduler(schedule_seed);
  obf::LockedModel model(models::Architecture::kCnn1, cfg, model_key,
                         scheduler);

  std::stringstream ss;
  obf::publish_model(ss, model);
  bundle.artifact = obf::read_published_model(ss);

  Rng probe_rng = rng.split();
  bundle.challenge = obf::make_challenge(model, num_probes, probe_rng);
  bundle.challenge.min_agreement = min_agreement;
  if (with_logit_digest) {
    // The owner holds the master key, so it can provision a golden device
    // and record the exact int8 probe logits every healthy replica must
    // reproduce bit-for-bit (same key, schedule seed and DeviceConfig).
    hw::TrustedDevice golden(model_key, schedule_seed, hw::DeviceConfig{});
    golden.load_model(bundle.artifact);
    bundle.challenge.logit_digest_hex =
        obf::logit_digest_hex(golden.infer(bundle.challenge.probes));
  }
  return bundle;
}

ChaosReport run_chaos_scenario(const ChaosModelBundle& bundle,
                               const ChaosScenario& scenario) {
  if (metrics::enabled()) {
    metrics::MetricsRegistry::instance().reset();
  }

  core::SimulatedClock clock(0);
  // Injectors outlive the devices they are attached to; the hook may run
  // concurrently from maintenance workers, so appends are serialized.
  std::vector<std::unique_ptr<hw::FaultInjector>> injectors;
  std::mutex injectors_mutex;

  SupervisorConfig config = scenario.config;
  config.clock = &clock;
  config.provision = [&](hw::TrustedDevice& device, std::size_t replica,
                         bool reprovision) {
    if (replica >= scenario.plans.size()) {
      return;
    }
    const auto& slot = reprovision ? scenario.plans[replica].after_reprovision
                                   : scenario.plans[replica].initial;
    if (!slot.has_value()) {
      return;
    }
    std::lock_guard<std::mutex> lock(injectors_mutex);
    injectors.push_back(std::make_unique<hw::FaultInjector>(*slot));
    device.attach_fault_injector(injectors.back().get());
  };

  ServingSupervisor supervisor(bundle.master, bundle.model_id,
                               bundle.artifact, bundle.challenge, config);

  // Un-faulted oracle: same diversified key, same artifact, no injector.
  hw::TrustedDevice reference(
      obf::derive_model_key(bundle.master, bundle.model_id),
      obf::derive_schedule_seed(bundle.master, bundle.model_id),
      config.device);
  reference.load_model(bundle.artifact);

  Rng input_rng(scenario.seed);
  Rng seu_rng(scenario.seed ^ 0x5e05eedULL);

  ChaosReport report;
  report.requests = scenario.requests;
  DevicePool& pool = supervisor.pool();

  for (int r = 0; r < scenario.requests; ++r) {
    clock.advance(scenario.inter_request_us);

    // SEU weather: maybe flip one key bit on a random healthy replica.
    if (scenario.key_seu_rate > 0.0 &&
        seu_rng.bernoulli(scenario.key_seu_rate)) {
      std::vector<std::size_t> closed;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (pool.state(i) == BreakerState::kClosed) {
          closed.push_back(i);
        }
      }
      if (!closed.empty()) {
        const std::size_t target =
            closed[seu_rng.uniform_index(closed.size())];
        hw::FaultPlan seu;
        seu.key_bits = {static_cast<std::size_t>(seu_rng.uniform_index(256))};
        hw::FaultInjector* raw = nullptr;
        {
          std::lock_guard<std::mutex> lock(injectors_mutex);
          injectors.push_back(std::make_unique<hw::FaultInjector>(seu));
          raw = injectors.back().get();
        }
        pool.with_replica(target, [raw](hw::TrustedDevice& device) {
          device.attach_fault_injector(raw);
        });
        ++report.seus_injected;
      }
    }

    const Tensor batch = Tensor::normal(
        Shape{scenario.batch, bundle.artifact.in_channels,
              bundle.artifact.image_size, bundle.artifact.image_size},
        input_rng, 0.0f, 0.25f);
    const std::vector<std::int64_t> expected = reference.classify(batch);

    try {
      const RequestResult result = supervisor.submit(batch);
      ++report.succeeded;
      report.attempts += result.attempts;
      report.retries += result.attempts - 1;
      report.degraded += result.degraded ? 1 : 0;
      if (result.classes != expected) {
        ++report.wrong;
      }
    } catch (const TimeoutError&) {
      ++report.timeouts;
    } catch (const DeviceUnavailableError&) {
      ++report.unavailable;
    } catch (const RetryExhaustedError& e) {
      ++report.retry_exhausted;
      report.attempts += e.attempts();
      report.retries += e.attempts() - 1;
    }
  }

  // Final maintenance pump: give quarantined/tripped replicas enough
  // virtual time to finish healing, so end-of-run accounting closes the
  // loop (every quarantine should end in a successful re-provision when
  // replacement hardware is clean).
  for (int round = 0; round < 16; ++round) {
    bool sick = false;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const BreakerState s = pool.state(i);
      if (s == BreakerState::kOpen || s == BreakerState::kQuarantined) {
        sick = true;
      }
    }
    if (!sick) {
      break;
    }
    clock.advance(config.breaker.open_cooldown_us + 1);
    pool.run_maintenance(clock.now_us());
  }

  report.pool = pool.stats();
  report.virtual_elapsed_us = clock.now_us();
  if (metrics::enabled()) {
    std::ostringstream os;
    metrics::write_json(os, metrics::MetricsRegistry::instance().snapshot(),
                        /*deterministic=*/true);
    report.metrics_json = os.str();
  }
  return report;
}

void write_chaos_json(std::ostream& os, const ChaosScenario& scenario,
                      const ChaosReport& report) {
  os << "{\"bench\":\"serve_chaos\""
     << ",\"replicas\":" << scenario.config.replicas
     << ",\"requests\":" << report.requests
     << ",\"batch\":" << scenario.batch
     << ",\"seed\":" << scenario.seed
     << ",\"key_seu_rate\":" << scenario.key_seu_rate
     << ",\"degradation\":\""
     << degradation_policy_name(scenario.config.degradation) << "\""
     << ",\"verify\":\"" << verify_mode_name(scenario.config.verify) << "\""
     << ",\"succeeded\":" << report.succeeded
     << ",\"wrong\":" << report.wrong
     << ",\"timeouts\":" << report.timeouts
     << ",\"unavailable\":" << report.unavailable
     << ",\"retry_exhausted\":" << report.retry_exhausted
     << ",\"degraded\":" << report.degraded
     << ",\"attempts\":" << report.attempts
     << ",\"retries\":" << report.retries
     << ",\"seus_injected\":" << report.seus_injected
     << ",\"quarantines\":" << report.pool.quarantines
     << ",\"reprovisions\":" << report.pool.reprovisions
     << ",\"reprovision_failures\":" << report.pool.reprovision_failures
     << ",\"probes\":" << report.pool.probes
     << ",\"probe_failures\":" << report.pool.probe_failures
     << ",\"breaker_trips\":" << report.pool.breaker_trips
     << ",\"virtual_elapsed_us\":" << report.virtual_elapsed_us
     << ",\"metrics\":"
     << (report.metrics_json.empty() ? "null" : report.metrics_json) << "}";
}

}  // namespace hpnn::serve
