// Registry semantics of the observability layer: create/lookup/reset,
// histogram bucket edges, exporters, trace ring buffer, and the snapshot
// determinism contract (DESIGN.md §9).
#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "core/error.hpp"
#include "core/threadpool.hpp"

namespace hpnn::metrics {
namespace {

MetricsRegistry& reg() { return MetricsRegistry::instance(); }

TEST(MetricsRegistryTest, CounterCreateLookupReset) {
  Counter& c = reg().counter("test.registry.counter");
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Lookup by the same name returns the same instrument.
  EXPECT_EQ(&reg().counter("test.registry.counter"), &c);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsRegistryTest, GaugeLastWriteWins) {
  Gauge& g = reg().gauge("test.registry.gauge");
  g.set(1.5);
  g.set(-3.25);
  EXPECT_DOUBLE_EQ(g.value(), -3.25);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  reg().counter("test.registry.kind");
  EXPECT_THROW(reg().gauge("test.registry.kind"), InvariantError);
  EXPECT_THROW(reg().histogram("test.registry.kind"), InvariantError);
}

TEST(MetricsRegistryTest, RegistryResetZeroesButKeepsReferences) {
  Counter& c = reg().counter("test.registry.global_reset");
  c.add(7);
  reg().reset();
  EXPECT_EQ(c.value(), 0u);  // same instrument, zeroed
  EXPECT_EQ(&reg().counter("test.registry.global_reset"), &c);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);  // bucket 0: (-inf, 1]
  h.observe(1.0);  // bucket 0 (inclusive upper edge)
  h.observe(1.5);  // bucket 1: (1, 2]
  h.observe(5.0);  // bucket 2: (2, 5]
  h.observe(7.0);  // overflow: (5, +inf)
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 7.0);
}

TEST(HistogramTest, RejectsBadEdges) {
  EXPECT_THROW(Histogram({}), InvariantError);
  EXPECT_THROW(Histogram({1.0, 1.0}), InvariantError);
  EXPECT_THROW(Histogram({2.0, 1.0}), InvariantError);
}

TEST(HistogramTest, PercentilesAreOrderedAndBounded) {
  Histogram h({10.0, 100.0, 1000.0});
  for (int i = 1; i <= 100; ++i) {
    h.observe(static_cast<double>(i * 9));  // 9 .. 900
  }
  const double p50 = h.percentile(0.50);
  const double p95 = h.percentile(0.95);
  const double p99 = h.percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max());
  EXPECT_GT(p50, 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), p50);  // pure function of the state
}

TEST(HistogramTest, EmptyHistogramPercentileIsZero) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(HistogramTest, ResetZeroesEverything) {
  Histogram& h = reg().histogram("test.hist.reset", {1.0, 2.0});
  h.observe(1.5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  for (const auto b : h.bucket_counts()) {
    EXPECT_EQ(b, 0u);
  }
}

TEST(HistogramTest, EmptyEdgeListSelectsDefaultTimeEdges) {
  Histogram& h = reg().histogram("test.hist.default_edges");
  EXPECT_EQ(h.edges(), Histogram::default_time_edges_us());
}

TEST(SnapshotTest, EntriesAreSortedByName) {
  reg().counter("test.snapshot.zz");
  reg().counter("test.snapshot.aa");
  const Snapshot snap = reg().snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
}

TEST(SnapshotTest, DeterministicJsonIsByteIdenticalAcrossIdenticalRuns) {
  // The determinism contract: counters and histogram sample counts are
  // pure functions of the work, so two identical single-threaded runs
  // export byte-identical deterministic snapshots.
  auto run_workload = [] {
    reg().reset();
    Counter& c = reg().counter("test.determinism.counter");
    Histogram& h = reg().histogram("test.determinism.hist", {10.0, 100.0});
    for (int i = 0; i < 100; ++i) {
      c.add(3);
      h.observe(static_cast<double>(i));
    }
    std::ostringstream os;
    write_json(os, reg().snapshot(), /*deterministic=*/true);
    return os.str();
  };
  const std::string first = run_workload();
  const std::string second = run_workload();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"test.determinism.counter\": 300"),
            std::string::npos);
}

TEST(SnapshotTest, DeterministicViewOmitsWallClockFields) {
  reg().reset();
  reg().gauge("test.snapshot.gauge").set(1.0);
  reg().histogram("test.snapshot.timing", {1.0}).observe(0.5);
  const Snapshot snap = reg().snapshot();

  std::ostringstream full;
  write_json(full, snap, /*deterministic=*/false);
  EXPECT_NE(full.str().find("\"gauges\""), std::string::npos);
  EXPECT_NE(full.str().find("\"sum\""), std::string::npos);
  EXPECT_NE(full.str().find("\"p95\""), std::string::npos);

  std::ostringstream det;
  write_json(det, snap, /*deterministic=*/true);
  EXPECT_EQ(det.str().find("\"gauges\""), std::string::npos);
  EXPECT_EQ(det.str().find("\"sum\""), std::string::npos);
  EXPECT_EQ(det.str().find("\"p95\""), std::string::npos);
  EXPECT_NE(det.str().find("\"count\": 1"), std::string::npos);
}

TEST(SnapshotTest, DeterministicViewOmitsSchedulingDependentInstruments) {
  reg().reset();
  reg().counter("test.sched.counter", Determinism::kSchedulingDependent)
      .add(3);
  reg().histogram("test.sched.hist", {1.0},
                  Determinism::kSchedulingDependent)
      .observe(0.5);
  reg().counter("test.sched.pure_counter").add(7);
  reg().histogram("test.sched.pure_hist", {1.0}).observe(0.5);
  // A later default lookup (e.g. to read the value) keeps the mark.
  EXPECT_EQ(reg().counter("test.sched.counter").value(), 3u);
  const Snapshot snap = reg().snapshot();

  std::ostringstream full_json, det_json, full_csv, det_csv;
  write_json(full_json, snap, /*deterministic=*/false);
  write_json(det_json, snap, /*deterministic=*/true);
  write_csv(full_csv, snap, /*deterministic=*/false);
  write_csv(det_csv, snap, /*deterministic=*/true);

  // The full views keep the scheduling-dependent instruments and values.
  EXPECT_NE(full_json.str().find("\"test.sched.counter\": 3"),
            std::string::npos);
  EXPECT_NE(full_json.str().find("\"test.sched.hist\": {\"count\": 1,"),
            std::string::npos);
  EXPECT_NE(full_csv.str().find("counter,test.sched.counter,value,3"),
            std::string::npos);
  EXPECT_NE(full_csv.str().find("histogram,test.sched.hist,count,1"),
            std::string::npos);

  // Both deterministic views leave them out entirely...
  EXPECT_EQ(det_json.str().find("test.sched.counter"), std::string::npos);
  EXPECT_EQ(det_json.str().find("test.sched.hist"), std::string::npos);
  EXPECT_EQ(det_csv.str().find("test.sched.counter"), std::string::npos);
  EXPECT_EQ(det_csv.str().find("test.sched.hist"), std::string::npos);

  // ...but keep the pure counters and histogram sample counts.
  EXPECT_NE(det_json.str().find("\"test.sched.pure_counter\": 7"),
            std::string::npos);
  EXPECT_NE(det_json.str().find("\"test.sched.pure_hist\": {\"count\": 1}"),
            std::string::npos);
  EXPECT_NE(det_csv.str().find("counter,test.sched.pure_counter,value,7"),
            std::string::npos);
  EXPECT_NE(det_csv.str().find("histogram,test.sched.pure_hist,count,1"),
            std::string::npos);
}

#ifndef HPNN_METRICS_DISABLED
TEST(SnapshotTest, PoolSchedulingInstrumentsAreFullViewOnly) {
  const bool was_enabled = enabled();
  set_enabled(true);
  const int previous_threads = core::thread_count();
  core::set_thread_count(2);
  reg().reset();
  // Two chunks that each wait for the other to start: the caller and the
  // worker must each run one, so the worker wakes (one queue-wait sample)
  // and the caller drains exactly one chunk.
  std::atomic<int> started{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  core::parallel_for(0, 2, 1, [&](std::int64_t, std::int64_t) {
    started.fetch_add(1);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  core::set_thread_count(previous_threads);
  const Snapshot snap = reg().snapshot();
  set_enabled(was_enabled);
  ASSERT_EQ(started.load(), 2);

  std::ostringstream full, det;
  write_json(full, snap, /*deterministic=*/false);
  write_json(det, snap, /*deterministic=*/true);
  EXPECT_NE(full.str().find("\"core.pool.caller_chunks\": 1,"),
            std::string::npos);
  EXPECT_NE(full.str().find("\"core.pool.queue_wait_us\": {\"count\": 1,"),
            std::string::npos);
  EXPECT_EQ(det.str().find("core.pool.caller_chunks"), std::string::npos);
  EXPECT_EQ(det.str().find("core.pool.queue_wait_us"), std::string::npos);
  // The chunk and job totals are pure functions of the work and stay.
  EXPECT_NE(det.str().find("\"core.pool.chunks\": 2,"), std::string::npos);
  EXPECT_NE(det.str().find("\"core.pool.jobs\": 1"), std::string::npos);
}
#endif

TEST(SnapshotTest, CsvExportListsEveryInstrument) {
  reg().reset();
  reg().counter("test.csv.counter").add(5);
  reg().histogram("test.csv.hist", {1.0}).observe(0.5);
  std::ostringstream os;
  write_csv(os, reg().snapshot());
  const std::string csv = os.str();
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,test.csv.counter,value,5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,test.csv.hist,count,1"), std::string::npos);
  EXPECT_NE(csv.find("histogram,test.csv.hist,p99,"), std::string::npos);
}

TEST(SnapshotTest, WriteSnapshotFilePicksFormatByExtension) {
  reg().counter("test.file.counter").add(1);
  const std::string json_path = ::testing::TempDir() + "metrics_snap.json";
  const std::string csv_path = ::testing::TempDir() + "metrics_snap.csv";
  EXPECT_TRUE(write_snapshot_file(json_path));
  EXPECT_TRUE(write_snapshot_file(csv_path));
  EXPECT_FALSE(write_snapshot_file("/nonexistent-dir-hpnn/x.json"));
  std::remove(json_path.c_str());
  std::remove(csv_path.c_str());
}

#ifndef HPNN_METRICS_DISABLED
TEST(KillSwitchTest, RuntimeDisableStopsMacroCollection) {
  Counter& c = reg().counter("test.killswitch.counter");
  c.reset();
  const bool was = enabled();
  set_enabled(false);
  EXPECT_FALSE(enabled());
  HPNN_METRIC_COUNT("test.killswitch.counter", 1);
  EXPECT_EQ(c.value(), 0u);
  set_enabled(true);
  HPNN_METRIC_COUNT("test.killswitch.counter", 1);
  EXPECT_EQ(c.value(), 1u);
  set_enabled(was);
  c.reset();
}
#endif

TEST(ScopedTimerTest, ObservesElapsedIntoHistogram) {
  Histogram h({1000000.0});
  { ScopedTimer t(&h); }
  EXPECT_EQ(h.count(), 1u);
  { ScopedTimer t(nullptr); }  // no-op form
  EXPECT_EQ(h.count(), 1u);
}

TEST(TraceBufferTest, RingOverwritesOldestAfterCapacity) {
  TraceBuffer& buf = TraceBuffer::instance();
  buf.reset();
  const std::size_t cap = buf.capacity();
  const std::size_t total = cap + 10;
  for (std::size_t i = 0; i < total; ++i) {
    buf.record("test.ring", static_cast<std::uint64_t>(i), 1);
  }
  EXPECT_EQ(buf.total_recorded(), total);
  const auto events = buf.events();
  ASSERT_EQ(events.size(), cap);
  // Oldest retained event is record #10; newest is the last record.
  EXPECT_EQ(events.front().start_us, 10u);
  EXPECT_EQ(events.back().start_us, static_cast<std::uint64_t>(total - 1));
  buf.reset();
  EXPECT_EQ(buf.total_recorded(), 0u);
  EXPECT_TRUE(buf.events().empty());
}

TEST(TraceBufferTest, TraceSpanRecordsOnDestruction) {
  if (!enabled()) {
    GTEST_SKIP() << "metrics disabled";
  }
  TraceBuffer& buf = TraceBuffer::instance();
  buf.reset();
  { TraceSpan span("test.span"); }
  const auto events = buf.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.span");
  EXPECT_EQ(events[0].lane, thread_ordinal());
  std::ostringstream os;
  buf.write_json(os);
  EXPECT_NE(os.str().find("\"test.span\""), std::string::npos);
  buf.reset();
}

TEST(ThreadOrdinalTest, StablePerThreadAndDistinctAcrossThreads) {
  const int mine = thread_ordinal();
  EXPECT_EQ(thread_ordinal(), mine);
  int other = mine;
  std::thread t([&] { other = thread_ordinal(); });
  t.join();
  EXPECT_NE(other, mine);
}

}  // namespace
}  // namespace hpnn::metrics
