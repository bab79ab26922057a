// Process-wide observability: metrics registry + trace spans.
//
// A MetricsRegistry of named counters, gauges and fixed-bucket histograms,
// plus RAII timers (ScopedTimer) and trace spans (TraceSpan) feeding a
// preallocated ring buffer. Hot-path increments are lock-free atomics, so
// counter totals stay *exact* under any HPNN_THREADS setting; the registry
// mutex is only taken on first lookup of a name and when snapshotting.
//
// Determinism contract (DESIGN.md §9): the *deterministic* snapshot view
// holds only counter values and histogram sample counts, which are pure
// functions of the work performed, so it is byte-identical across identical
// runs at any thread count. Everything else is only present in the full
// view: wall-clock-derived fields (gauges, histogram sums/buckets/
// percentiles, trace timestamps), and every instrument registered as
// Determinism::kSchedulingDependent (its value measures how the OS
// scheduled the pool's threads, not the work done).
//
// Kill switch: compile-time -DHPNN_METRICS_DISABLED (CMake -DHPNN_METRICS=OFF)
// pins enabled() to false; at runtime HPNN_METRICS=off (or "0") disables
// collection. Every instrumentation site guards on enabled(), so the
// disabled cost is one branch on a cached atomic bool.
//
// Instrument naming convention: dot-separated "<layer>.<op>.<what>", e.g.
// "tensor.gemm.calls", "hw.device.infer.latency_us". Time histograms end in
// "_us" and record microseconds.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace hpnn::metrics {

/// Whether collection is active (compile-time and runtime kill switch).
bool enabled();

/// Overrides the runtime switch (tests, CLI). No-op when compiled out.
void set_enabled(bool on);

/// Small dense per-thread ordinal (0 = first thread to ask). Stable for the
/// thread's lifetime; used as the trace lane and the log thread-id. Always
/// available, even with metrics disabled.
int thread_ordinal();

/// Whether an instrument's value is a pure function of the work performed.
/// Chosen when the instrument is registered; a kSchedulingDependent
/// instrument is left out of the deterministic snapshot view.
enum class Determinism {
  kPure,
  kSchedulingDependent,  // e.g. which thread happened to run a chunk
};

/// Monotonically increasing sum. Lock-free; totals are exact under
/// concurrency (relaxed atomics — ordering is irrelevant for sums).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins scalar (e.g. "trainer.last_epoch_loss").
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bucket edges are set at creation and never
/// change, so observe() is a binary search plus two relaxed atomic adds —
/// no allocation, no lock. Percentiles are estimated by linear
/// interpolation inside the owning bucket.
class Histogram {
 public:
  /// `upper_edges` must be non-empty and strictly ascending; an implicit
  /// overflow bucket covers (upper_edges.back(), +inf).
  explicit Histogram(std::vector<double> upper_edges);

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  // +inf when empty
  double max() const;  // -inf when empty
  /// q in [0, 1]; 0 when empty. Upper-edge interpolation, clamped to max().
  double percentile(double q) const;

  const std::vector<double>& edges() const { return edges_; }
  /// Length edges().size() + 1; the last entry is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;

  void reset();

  /// Default timing edges (microseconds), 1us .. 5s, roughly 1-2-5 spaced.
  static const std::vector<double>& default_time_edges_us();

 private:
  std::vector<double> edges_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // edges_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Point-in-time copy of every registered instrument, sorted by name.
struct Snapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
    bool scheduling_dependent = false;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
  };
  struct HistogramEntry {
    std::string name;
    std::vector<double> edges;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    bool scheduling_dependent = false;
  };
  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;
};

/// The process-wide registry. Instrument references returned by
/// counter()/gauge()/histogram() are stable for the process lifetime
/// (reset() zeroes values but never invalidates references), so call sites
/// cache them in a function-local static and skip the name lookup on the
/// hot path.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Create-or-lookup by name. Looking up an existing name with a different
  /// instrument kind throws InvariantError. A name registered as
  /// kSchedulingDependent stays so: a later kPure lookup (e.g. to read the
  /// value) does not clear the mark.
  Counter& counter(const std::string& name,
                   Determinism determinism = Determinism::kPure);
  Gauge& gauge(const std::string& name);
  /// `upper_edges` empty selects Histogram::default_time_edges_us(). Edges
  /// are fixed by the first registration; later lookups ignore the argument.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_edges = {},
                       Determinism determinism = Determinism::kPure);

  Snapshot snapshot() const;

  /// Zeroes every instrument (registrations and references survive).
  void reset();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry();
  ~MetricsRegistry();
  struct Impl;
  Impl* impl_;
};

/// JSON object {"counters":{...},"gauges":{...},"histograms":{...}} with
/// keys in sorted order. `deterministic` drops every wall-clock-derived
/// field (gauges, histogram sum/min/max/percentiles/buckets) and every
/// scheduling-dependent instrument, leaving only the pure counters and
/// histogram sample counts — byte-identical across identical runs at any
/// thread count (DESIGN.md §9).
void write_json(std::ostream& os, const Snapshot& snap,
                bool deterministic = false);

/// CSV rows "kind,name,field,value", sorted; same deterministic filter, so
/// the deterministic CSV lists exactly what the deterministic JSON does.
void write_csv(std::ostream& os, const Snapshot& snap,
               bool deterministic = false);

/// Snapshots the registry to `path` (".csv" extension selects CSV,
/// anything else JSON). Returns false (and logs a warning) on I/O failure.
bool write_snapshot_file(const std::string& path, bool deterministic = false);

/// RAII wall-time recorder: observes elapsed microseconds into `hist` on
/// destruction. A null histogram makes it a no-op — the idiom is
///   metrics::ScopedTimer t(metrics::enabled() ? &hist : nullptr);
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist) : hist_(hist) {
    if (hist_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// One completed span in the trace ring buffer.
struct TraceEvent {
  const char* name = nullptr;  // static string supplied by the TraceSpan
  std::uint64_t start_us = 0;  // since the process trace epoch
  std::uint64_t duration_us = 0;
  int lane = 0;  // thread_ordinal() of the recording thread
};

/// Fixed-capacity ring of completed spans: preallocated at first use
/// (HPNN_TRACE_CAPACITY, default 4096 events), so recording never
/// allocates after warm-up; once full, the oldest events are overwritten.
class TraceBuffer {
 public:
  static TraceBuffer& instance();

  void record(const char* name, std::uint64_t start_us,
              std::uint64_t duration_us);

  /// Events currently retained, oldest first.
  std::vector<TraceEvent> events() const;
  /// Total record() calls, including overwritten events.
  std::uint64_t total_recorded() const;
  std::size_t capacity() const { return capacity_; }
  void reset();

  /// JSON array of the retained events (full view only — timestamps are
  /// inherently nondeterministic).
  void write_json(std::ostream& os) const;

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

 private:
  TraceBuffer();
  ~TraceBuffer() = default;

  mutable std::mutex* mutex_;  // leaked: spans may finish during exit
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::uint64_t next_ = 0;  // total records; next_ % capacity_ is the slot
};

/// RAII span: on destruction records (name, start, duration) into the
/// TraceBuffer and, when given, a latency histogram. `name` must be a
/// string with static storage duration (a literal) — the ring buffer
/// stores the pointer. No-op when metrics are disabled at construction.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, Histogram* hist = nullptr);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;  // null when disabled
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// Microseconds since the process trace epoch (first use).
std::uint64_t trace_now_us();

}  // namespace hpnn::metrics

/// Bumps counter `name` by `n` when metrics are enabled. `name` must be a
/// string literal. The instrument reference is cached in a function-local
/// static, so the registry lookup happens once per call site.
#define HPNN_METRIC_COUNT(name, n)                                        \
  do {                                                                    \
    if (::hpnn::metrics::enabled()) {                                     \
      static ::hpnn::metrics::Counter& hpnn_metric_counter_ =             \
          ::hpnn::metrics::MetricsRegistry::instance().counter(name);     \
      hpnn_metric_counter_.add(static_cast<std::uint64_t>(n));            \
    }                                                                     \
  } while (false)

/// Sets gauge `name` to `v` when metrics are enabled.
#define HPNN_METRIC_GAUGE(name, v)                                        \
  do {                                                                    \
    if (::hpnn::metrics::enabled()) {                                     \
      static ::hpnn::metrics::Gauge& hpnn_metric_gauge_ =                 \
          ::hpnn::metrics::MetricsRegistry::instance().gauge(name);       \
      hpnn_metric_gauge_.set(static_cast<double>(v));                     \
    }                                                                     \
  } while (false)

/// Observes `v` into histogram `name` when metrics are enabled.
#define HPNN_METRIC_OBSERVE(name, v)                                      \
  do {                                                                    \
    if (::hpnn::metrics::enabled()) {                                     \
      static ::hpnn::metrics::Histogram& hpnn_metric_hist_ =              \
          ::hpnn::metrics::MetricsRegistry::instance().histogram(name);   \
      hpnn_metric_hist_.observe(static_cast<double>(v));                  \
    }                                                                     \
  } while (false)

/// Counts one call to op `name` and times the enclosing scope:
///   HPNN_METRIC_OP_SCOPE("tensor.gemm");
/// bumps "<name>.calls" and records the scope's wall time (microseconds)
/// into "<name>.time_us". Disabled cost: one branch on a cached atomic.
/// At most one per scope (declares a timer variable).
#define HPNN_METRIC_OP_SCOPE(name)                                           \
  ::hpnn::metrics::Histogram* hpnn_metric_op_hist_ = nullptr;                \
  if (::hpnn::metrics::enabled()) {                                          \
    static ::hpnn::metrics::Counter& hpnn_metric_op_calls_ =                 \
        ::hpnn::metrics::MetricsRegistry::instance().counter(name ".calls"); \
    static ::hpnn::metrics::Histogram& hpnn_metric_op_time_ =                \
        ::hpnn::metrics::MetricsRegistry::instance().histogram(name          \
                                                               ".time_us");  \
    hpnn_metric_op_calls_.add(1);                                            \
    hpnn_metric_op_hist_ = &hpnn_metric_op_time_;                            \
  }                                                                          \
  ::hpnn::metrics::ScopedTimer hpnn_metric_op_timer_(hpnn_metric_op_hist_)
