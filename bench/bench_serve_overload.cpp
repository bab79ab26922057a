// Overload campaign against the serving daemon (beyond the paper;
// load-shedding companion to bench_serve_chaos's fault story).
//
// Drives open-loop offered load at 0.5x / 1x / 2x of the simulated service
// model's sustainable rate, with bursty arrivals and a mid-storm replica
// quarantine at 2x. The daemon must degrade *by shedding*, never by
// corruption or collapse: admitted requests finish under the latency SLO,
// shed requests carry retry_after hints, and every served batch matches an
// un-faulted reference device bit-for-class. Scale with
// HPNN_BENCH_OVERLOAD_REQUESTS.
//
// The final stdout line is a single JSON object (the 2x point) for machine
// consumption.
#include <cstdio>
#include <sstream>

#include "common.hpp"
#include "core/config.hpp"
#include "serve/daemon/load_gen.hpp"

using namespace hpnn;

int main() {
  const int requests =
      static_cast<int>(env_int("HPNN_BENCH_OVERLOAD_REQUESTS", 400));

  bench::print_header(
      "Serving daemon overload campaign — admission control and shedding",
      "(beyond the paper; graceful degradation under offered overload)");

  const serve::ChaosModelBundle bundle =
      serve::make_chaos_model(33, 16, 0.6, /*with_logit_digest=*/true);

  serve::LoadScenario scenario;
  scenario.requests = requests;
  scenario.batch = 1;
  scenario.tenants = 4;
  scenario.seed = 1;
  scenario.burst = 8;
  scenario.config.replicas = 4;
  scenario.config.verify = serve::VerifyMode::kDigest;
  scenario.daemon.batcher.max_batch_rows = 8;
  scenario.daemon.batcher.slo_p99_us = 20'000;
  scenario.daemon.queue.capacity = 64;
  scenario.daemon.queue.max_queue_wait_us = 20'000;
  scenario.daemon.admission.high_watermark = 48;
  scenario.daemon.admission.low_watermark = 24;
  scenario.daemon.sim_service_base_us = 55;
  scenario.daemon.sim_service_per_row_us = 42;

  const double cap = serve::sustainable_qps(scenario);
  std::printf("service model: %llu + %llu us/row, %lld-row batches -> "
              "sustainable ~%.0f qps\n\n",
              static_cast<unsigned long long>(
                  scenario.daemon.sim_service_base_us),
              static_cast<unsigned long long>(
                  scenario.daemon.sim_service_per_row_us),
              static_cast<long long>(scenario.daemon.batcher.max_batch_rows),
              cap);

  std::printf("%8s %9s %9s %6s %8s %8s %6s %12s\n", "offered", "accepted",
              "completed", "shed", "p50us", "p99us", "wrong", "hints us");

  const double factors[] = {0.5, 1.0, 2.0};
  serve::LoadReport last;
  bool ok = true;
  for (const double f : factors) {
    scenario.offered_qps = f * cap;
    // At 2x, lose a replica in the middle of the storm on top of the
    // overload (the chaos harness's "overload weather").
    scenario.quarantine_at_request = f >= 2.0 ? requests / 2 : -1;
    const serve::LoadReport report =
        serve::run_load_scenario(bundle, scenario);
    std::printf("%7.1fx %9d %9d %6d %8llu %8llu %6d [%llu, %llu]\n", f,
                report.accepted, report.completed, report.shed,
                static_cast<unsigned long long>(report.p50_latency_us),
                static_cast<unsigned long long>(report.p99_latency_us),
                report.wrong,
                static_cast<unsigned long long>(report.min_retry_after_us),
                static_cast<unsigned long long>(report.max_retry_after_us));
    ok = ok && report.wrong == 0 &&
         report.p99_latency_us <= scenario.daemon.batcher.slo_p99_us;
    if (f >= 2.0) {
      ok = ok && report.shed > 0 && report.min_retry_after_us > 0;
      last = report;
    }
  }

  std::printf("\nverdict: %s — %s\n\n", ok ? "PASS" : "FAIL",
              ok ? "overload shed with hints, admitted stayed under SLO, "
                   "zero wrong answers"
                 : "daemon collapsed, blew the SLO, or served corruption");

  scenario.offered_qps = 2.0 * cap;
  scenario.quarantine_at_request = requests / 2;
  std::ostringstream json;
  serve::write_overload_json(json, scenario, last);
  std::printf("%s\n", json.str().c_str());
  return ok ? 0 : 1;
}
