#include "serve/daemon/load_gen.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "hpnn/keychain.hpp"
#include "hw/fault.hpp"

namespace hpnn::serve {
namespace {

std::uint64_t percentile(std::vector<std::uint64_t>& samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(std::llround(
      p / 100.0 * static_cast<double>(samples.size() - 1)));
  return samples[idx];
}

}  // namespace

double sustainable_qps(const LoadScenario& scenario) {
  const std::uint64_t base = scenario.daemon.sim_service_base_us;
  const std::uint64_t per_row = scenario.daemon.sim_service_per_row_us;
  if (base == 0 && per_row == 0) {
    return 0.0;
  }
  const std::int64_t rows = scenario.daemon.batcher.max_batch_rows;
  const double service_us = static_cast<double>(
      base + per_row * static_cast<std::uint64_t>(rows));
  const double requests_per_batch =
      static_cast<double>(rows) / static_cast<double>(scenario.batch);
  return requests_per_batch / (service_us * 1e-6);
}

LoadReport run_load_scenario(const ChaosModelBundle& bundle,
                             const LoadScenario& scenario) {
  HPNN_CHECK(scenario.offered_qps > 0.0, "offered_qps must be positive");
  HPNN_CHECK(scenario.burst >= 1, "burst must be at least 1");
  HPNN_CHECK(scenario.tenants >= 1, "need at least one tenant");
  if (metrics::enabled()) {
    metrics::MetricsRegistry::instance().reset();
  }

  core::SimulatedClock clock(0);
  std::vector<std::unique_ptr<hw::FaultInjector>> injectors;
  std::mutex injectors_mutex;

  SupervisorConfig config = scenario.config;
  config.clock = &clock;
  config.provision = {};

  ServingSupervisor supervisor(bundle.master, bundle.model_id,
                               bundle.artifact, bundle.challenge, config);
  DaemonConfig daemon_config = scenario.daemon;
  daemon_config.workers = 0;  // pump mode: determinism is the contract here
  ServeDaemon daemon(supervisor, bundle.master, bundle.model_id,
                     daemon_config);

  // Batch-granular correctness oracle: an un-faulted reference device
  // infers the identical coalesced tensor (same dynamic int8 scales).
  hw::TrustedDevice reference(
      obf::derive_model_key(bundle.master, bundle.model_id),
      obf::derive_schedule_seed(bundle.master, bundle.model_id),
      config.device);
  reference.load_model(bundle.artifact);

  LoadReport report;
  daemon.set_batch_observer(
      [&](const Tensor& images, const RequestResult& result,
          const std::vector<std::shared_ptr<PendingRequest>>&) {
        if (reference.classify(images) != result.classes) {
          ++report.wrong;
        }
      });

  Rng input_rng(scenario.seed);
  Rng seu_rng(scenario.seed ^ 0x10adULL);
  DevicePool& pool = supervisor.pool();

  std::vector<std::shared_ptr<PendingRequest>> accepted;
  std::vector<std::uint64_t> hints;
  const double burst_gap_us =
      1e6 * static_cast<double>(scenario.burst) / scenario.offered_qps;

  for (int i = 0; i < scenario.requests; ++i) {
    const auto arrival = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(i / scenario.burst) * burst_gap_us));
    // The pump caller is the daemon's one worker: until this arrival it
    // serves what is queued, then idles. pump() advances the clock by the
    // service model, so arrivals that land mid-batch (clock already beyond
    // them) are submitted at once and coalesce into the next batch.
    while (clock.now_us() < arrival) {
      if (daemon.queue().empty()) {
        clock.advance(arrival - clock.now_us());
        break;
      }
      daemon.pump();
    }

    if (i == scenario.quarantine_at_request) {
      pool.quarantine(0);  // capacity loss mid-storm
    }
    if (scenario.key_seu_rate > 0.0 &&
        seu_rng.bernoulli(scenario.key_seu_rate)) {
      std::vector<std::size_t> closed;
      for (std::size_t r = 0; r < pool.size(); ++r) {
        if (pool.state(r) == BreakerState::kClosed) {
          closed.push_back(r);
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

    Tensor images = Tensor::normal(
        Shape{scenario.batch, bundle.artifact.in_channels,
              bundle.artifact.image_size, bundle.artifact.image_size},
        input_rng, 0.0f, 0.25f);
    const std::string tenant =
        "tenant-" + std::to_string(i % scenario.tenants);
    ++report.offered;
    try {
      accepted.push_back(daemon.submit_async(tenant, std::move(images)));
      ++report.accepted;
    } catch (const AdmissionRejectedError& e) {
      ++report.shed;
      hints.push_back(e.retry_after_us());
    } catch (const QueueFullError&) {
      ++report.queue_full;
    }
  }

  daemon.drain();

  std::vector<std::uint64_t> latencies;
  std::vector<std::uint64_t> waits;
  for (const auto& pending : accepted) {
    HPNN_CHECK(pending->done(), "drain left a request unresolved");
    try {
      const Reply reply = pending->take();
      ++report.completed;
      latencies.push_back(reply.latency_us);
      waits.push_back(reply.queue_wait_us);
    } catch (const TimeoutError&) {
      ++report.expired;
    } catch (const Error&) {
      ++report.failed;
    }
  }

  report.p50_latency_us = percentile(latencies, 50.0);
  report.p99_latency_us = percentile(latencies, 99.0);
  report.max_latency_us = latencies.empty() ? 0 : latencies.back();
  report.p50_queue_wait_us = percentile(waits, 50.0);
  report.p99_queue_wait_us = percentile(waits, 99.0);
  if (!hints.empty()) {
    report.min_retry_after_us =
        *std::min_element(hints.begin(), hints.end());
    report.max_retry_after_us =
        *std::max_element(hints.begin(), hints.end());
  }
  report.virtual_elapsed_us = clock.now_us();
  report.daemon = daemon.stats();
  report.pool = pool.stats();
  if (metrics::enabled()) {
    std::ostringstream os;
    metrics::write_json(os, metrics::MetricsRegistry::instance().snapshot(),
                        /*deterministic=*/true);
    report.metrics_json = os.str();
  }
  return report;
}

void write_overload_json(std::ostream& os, const LoadScenario& scenario,
                         const LoadReport& report) {
  os << "{\"bench\":\"serve_overload\""
     << ",\"offered_qps\":" << scenario.offered_qps
     << ",\"sustainable_qps\":" << sustainable_qps(scenario)
     << ",\"requests\":" << scenario.requests
     << ",\"batch\":" << scenario.batch
     << ",\"tenants\":" << scenario.tenants
     << ",\"burst\":" << scenario.burst
     << ",\"seed\":" << scenario.seed
     << ",\"key_seu_rate\":" << scenario.key_seu_rate
     << ",\"quarantine_at_request\":" << scenario.quarantine_at_request
     << ",\"max_batch_rows\":" << scenario.daemon.batcher.max_batch_rows
     << ",\"slo_p99_us\":" << scenario.daemon.batcher.slo_p99_us
     << ",\"queue_capacity\":" << scenario.daemon.queue.capacity
     << ",\"high_watermark\":" << scenario.daemon.admission.high_watermark
     << ",\"low_watermark\":" << scenario.daemon.admission.low_watermark
     << ",\"offered\":" << report.offered
     << ",\"accepted\":" << report.accepted
     << ",\"completed\":" << report.completed
     << ",\"shed\":" << report.shed
     << ",\"queue_full\":" << report.queue_full
     << ",\"expired\":" << report.expired
     << ",\"failed\":" << report.failed
     << ",\"wrong\":" << report.wrong
     << ",\"seus_injected\":" << report.seus_injected
     << ",\"p50_latency_us\":" << report.p50_latency_us
     << ",\"p99_latency_us\":" << report.p99_latency_us
     << ",\"max_latency_us\":" << report.max_latency_us
     << ",\"p50_queue_wait_us\":" << report.p50_queue_wait_us
     << ",\"p99_queue_wait_us\":" << report.p99_queue_wait_us
     << ",\"min_retry_after_us\":" << report.min_retry_after_us
     << ",\"max_retry_after_us\":" << report.max_retry_after_us
     << ",\"batches\":" << report.daemon.batches
     << ",\"quarantines\":" << report.pool.quarantines
     << ",\"reprovisions\":" << report.pool.reprovisions
     << ",\"virtual_elapsed_us\":" << report.virtual_elapsed_us
     << ",\"metrics\":"
     << (report.metrics_json.empty() ? "null" : report.metrics_json) << "}";
}

}  // namespace hpnn::serve
