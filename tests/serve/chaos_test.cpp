// Chaos-harness acceptance: a seeded fault campaign against a replicated
// pool serves zero wrong answers, heals every quarantine through
// re-provisioning, matches the analytic counter trace exactly, and is
// byte-identically reproducible from its seed.
#include "serve/chaos.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/metrics.hpp"
#include "core/threadpool.hpp"

namespace hpnn::serve {
namespace {

/// Single-threaded fixture. The chaos *counters* are exact at any thread
/// count, and the deterministic snapshot view holds no histogram bucket
/// fills: only counter values and histogram sample counts, with the
/// scheduling-dependent pool instruments left out (DESIGN.md §9). The pin
/// keeps this test about the chaos harness's own determinism; the daemon's
/// overload acceptance test covers the snapshot at the default thread count.
class ChaosDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_threads_ = core::thread_count();
    core::set_thread_count(1);
  }
  void TearDown() override { core::set_thread_count(previous_threads_); }
  int previous_threads_ = 1;
};

TEST(ChaosTest, AnalyticKeySeuScenarioMatchesExactCounters) {
  // Two of four replicas start with flipped sealed-key bits; the SEU
  // weather stays off so every number below is a closed-form consequence
  // of the routing and maintenance rules (see supervisor_test's trace).
  const ChaosModelBundle bundle = make_chaos_model(33);
  ChaosScenario scenario;
  scenario.requests = 8;
  scenario.batch = 2;
  scenario.seed = 1;
  scenario.key_seu_rate = 0.0;
  scenario.config.replicas = 4;
  scenario.config.retry.jitter = 0.0;
  scenario.plans.resize(2);
  scenario.plans[0].initial = hw::FaultPlan{};
  scenario.plans[0].initial->key_bits = {17};
  scenario.plans[1].initial = hw::FaultPlan{};
  scenario.plans[1].initial->key_bits = {203};

  const ChaosReport report = run_chaos_scenario(bundle, scenario);
  EXPECT_EQ(report.requests, 8);
  EXPECT_EQ(report.succeeded, 8);
  EXPECT_EQ(report.wrong, 0);
  EXPECT_EQ(report.timeouts, 0);
  EXPECT_EQ(report.unavailable, 0);
  EXPECT_EQ(report.retry_exhausted, 0);
  EXPECT_EQ(report.degraded, 0);
  EXPECT_EQ(report.attempts, 10);  // request 1 takes 3 attempts, rest 1
  EXPECT_EQ(report.retries, 2);
  EXPECT_EQ(report.seus_injected, 0);
  EXPECT_EQ(report.pool.quarantines, 2u);
  EXPECT_EQ(report.pool.reprovisions, 2u);
  EXPECT_EQ(report.pool.reprovision_failures, 0u);
  EXPECT_EQ(report.pool.probes, 0u);
  EXPECT_EQ(report.pool.breaker_trips, 0u);
}

TEST(ChaosTest, RateDrivenSeuWeatherNeverServesWrongAnswers) {
  // The acceptance scenario from the serving story: random persistent key
  // SEUs land on healthy replicas mid-campaign; every one must end as a
  // detected quarantine + clean re-provision, never a wrong answer.
  const ChaosModelBundle bundle = make_chaos_model(33);
  ChaosScenario scenario;
  scenario.requests = 40;
  scenario.batch = 2;
  scenario.seed = 5;
  scenario.key_seu_rate = 0.15;
  scenario.config.replicas = 4;

  const ChaosReport report = run_chaos_scenario(bundle, scenario);
  EXPECT_EQ(report.wrong, 0);
  EXPECT_EQ(report.succeeded, report.requests);
  EXPECT_GT(report.seus_injected, 0);
  // Every SEU is eventually caught (integrity pre-check or witness), and
  // replacement hardware is clean, so after the final maintenance pump the
  // books balance: one successful re-provision per quarantine.
  EXPECT_LE(report.pool.quarantines,
            static_cast<std::uint64_t>(report.seus_injected));
  EXPECT_EQ(report.pool.reprovisions, report.pool.quarantines);
  EXPECT_GE(report.attempts, static_cast<std::int64_t>(report.requests));
}

TEST(ChaosTest, MixedSeuAndAccumulatorFaultsStayCorrect) {
  // Key SEUs plus a transiently flaky accumulator on replica 1: the
  // witness-verify path must absorb both without serving a wrong answer.
  const ChaosModelBundle bundle = make_chaos_model(33);
  ChaosScenario scenario;
  scenario.requests = 24;
  scenario.batch = 2;
  scenario.seed = 9;
  scenario.key_seu_rate = 0.1;
  scenario.config.replicas = 4;
  scenario.plans.resize(2);
  scenario.plans[1].initial = hw::FaultPlan{};
  scenario.plans[1].initial->accumulator_flip_rate = 0.02;
  scenario.plans[1].initial->seed = 1234;

  const ChaosReport report = run_chaos_scenario(bundle, scenario);
  EXPECT_EQ(report.wrong, 0);
  EXPECT_EQ(report.succeeded + report.retry_exhausted + report.timeouts +
                report.unavailable,
            report.requests);
  EXPECT_GE(report.succeeded,
            (report.requests * 99) / 100);  // >= 99% availability
}

TEST_F(ChaosDeterminismTest, TwoRunsAreByteIdentical) {
  const ChaosModelBundle bundle = make_chaos_model(33);
  ChaosScenario scenario;
  scenario.requests = 16;
  scenario.batch = 2;
  scenario.seed = 21;
  scenario.key_seu_rate = 0.2;
  scenario.config.replicas = 3;

  const ChaosReport a = run_chaos_scenario(bundle, scenario);
  const ChaosReport b = run_chaos_scenario(bundle, scenario);

  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.wrong, b.wrong);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.seus_injected, b.seus_injected);
  EXPECT_EQ(a.pool.quarantines, b.pool.quarantines);
  EXPECT_EQ(a.pool.reprovisions, b.pool.reprovisions);
  EXPECT_EQ(a.virtual_elapsed_us, b.virtual_elapsed_us);
  // The deterministic metrics snapshot — every counter and histogram count
  // the run produced — must match byte for byte.
  EXPECT_EQ(a.metrics_json, b.metrics_json);

  std::ostringstream ja, jb;
  write_chaos_json(ja, scenario, a);
  write_chaos_json(jb, scenario, b);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_NE(ja.str().find("\"bench\":\"serve_chaos\""), std::string::npos);
}

}  // namespace
}  // namespace hpnn::serve
