#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <variant>

#include "core/config.hpp"
#include "core/error.hpp"
#include "core/logging.hpp"

namespace hpnn::metrics {

namespace {

bool enabled_from_env() {
  const std::string v = env_string("HPNN_METRICS", "on");
  return !(v == "off" || v == "0" || v == "false");
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{enabled_from_env()};
  return flag;
}

// CAS loop: atomic<double> has no fetch_add until C++20 library support is
// universal, and relaxed order is fine — the sum is order-independent.
void atomic_add(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}

// JSON number formatting: integral doubles print without a fractional part
// so exported values are stable and compact.
std::string format_double(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::ostringstream os;
    os.precision(0);
    os << std::fixed << v;
    return os.str();
  }
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

// The deterministic view keeps only instruments whose values are pure
// functions of the work (DESIGN.md §9).
template <typename Entry>
bool omitted(const Entry& entry, bool deterministic) {
  return deterministic && entry.scheduling_dependent;
}

}  // namespace

bool enabled() {
#ifdef HPNN_METRICS_DISABLED
  return false;
#else
  return enabled_flag().load(std::memory_order_relaxed);
#endif
}

void set_enabled(bool on) {
#ifdef HPNN_METRICS_DISABLED
  (void)on;
#else
  enabled_flag().store(on, std::memory_order_relaxed);
#endif
}

int thread_ordinal() {
  static std::atomic<int> next{0};
  thread_local int ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> upper_edges)
    : edges_(std::move(upper_edges)),
      buckets_(edges_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  HPNN_CHECK(!edges_.empty(), "histogram needs at least one bucket edge");
  HPNN_CHECK(std::is_sorted(edges_.begin(), edges_.end()) &&
                   std::adjacent_find(edges_.begin(), edges_.end()) ==
                       edges_.end(),
               "histogram edges must be strictly ascending");
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - edges_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

double Histogram::min() const { return min_.load(std::memory_order_relaxed); }

double Histogram::max() const { return max_.load(std::memory_order_relaxed); }

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::percentile(double q) const {
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t prev = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= target && counts[i] > 0) {
      const double lo = (i == 0) ? 0.0 : edges_[i - 1];
      // Overflow bucket has no finite upper edge: report the observed max.
      const double hi = (i < edges_.size()) ? edges_[i] : max();
      const double frac =
          (target - static_cast<double>(prev)) / static_cast<double>(counts[i]);
      const double est = lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
      return std::min(est, max());
    }
  }
  return max();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

const std::vector<double>& Histogram::default_time_edges_us() {
  static const std::vector<double> edges = {
      1.0,     2.0,     5.0,      10.0,     20.0,      50.0,      100.0,
      200.0,   500.0,   1000.0,   2000.0,   5000.0,    10000.0,   20000.0,
      50000.0, 100000.0, 200000.0, 500000.0, 1000000.0, 2000000.0, 5000000.0};
  return edges;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

struct MetricsRegistry::Impl {
  using Instrument = std::variant<std::unique_ptr<Counter>,
                                  std::unique_ptr<Gauge>,
                                  std::unique_ptr<Histogram>>;
  struct Entry {
    Instrument instrument;
    bool scheduling_dependent = false;  // sticky once any lookup sets it
  };
  mutable std::mutex mutex;
  // std::map keeps snapshot output sorted without an extra pass, and node
  // stability guarantees instrument addresses survive later insertions.
  std::map<std::string, Entry> instruments;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

// The registry is a leaked singleton: worker threads and static
// destructors may still touch instruments during shutdown.
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  Determinism determinism) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->instruments.find(name);
  if (it == impl_->instruments.end()) {
    it = impl_->instruments
             .emplace(name, Impl::Entry{std::make_unique<Counter>()})
             .first;
  }
  auto* slot = std::get_if<std::unique_ptr<Counter>>(&it->second.instrument);
  HPNN_CHECK(slot != nullptr,
               "metrics name '" + name + "' already registered as non-counter");
  if (determinism == Determinism::kSchedulingDependent) {
    it->second.scheduling_dependent = true;
  }
  return **slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->instruments.find(name);
  if (it == impl_->instruments.end()) {
    it = impl_->instruments
             .emplace(name, Impl::Entry{std::make_unique<Gauge>()})
             .first;
  }
  auto* slot = std::get_if<std::unique_ptr<Gauge>>(&it->second.instrument);
  HPNN_CHECK(slot != nullptr,
               "metrics name '" + name + "' already registered as non-gauge");
  return **slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_edges,
                                      Determinism determinism) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->instruments.find(name);
  if (it == impl_->instruments.end()) {
    if (upper_edges.empty()) {
      upper_edges = Histogram::default_time_edges_us();
    }
    it = impl_->instruments
             .emplace(name, Impl::Entry{std::make_unique<Histogram>(
                                std::move(upper_edges))})
             .first;
  }
  auto* slot = std::get_if<std::unique_ptr<Histogram>>(&it->second.instrument);
  HPNN_CHECK(slot != nullptr, "metrics name '" + name +
                                    "' already registered as non-histogram");
  if (determinism == Determinism::kSchedulingDependent) {
    it->second.scheduling_dependent = true;
  }
  return **slot;
}

Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  Snapshot snap;
  for (const auto& [name, registered] : impl_->instruments) {
    const Impl::Instrument& instrument = registered.instrument;
    if (const auto* c = std::get_if<std::unique_ptr<Counter>>(&instrument)) {
      snap.counters.push_back(
          {name, (*c)->value(), registered.scheduling_dependent});
    } else if (const auto* g =
                   std::get_if<std::unique_ptr<Gauge>>(&instrument)) {
      snap.gauges.push_back({name, (*g)->value()});
    } else if (const auto* h =
                   std::get_if<std::unique_ptr<Histogram>>(&instrument)) {
      Snapshot::HistogramEntry entry;
      entry.name = name;
      entry.edges = (*h)->edges();
      entry.buckets = (*h)->bucket_counts();
      entry.count = (*h)->count();
      entry.sum = (*h)->sum();
      entry.min = entry.count > 0 ? (*h)->min() : 0.0;
      entry.max = entry.count > 0 ? (*h)->max() : 0.0;
      entry.p50 = (*h)->percentile(0.50);
      entry.p95 = (*h)->percentile(0.95);
      entry.p99 = (*h)->percentile(0.99);
      entry.scheduling_dependent = registered.scheduling_dependent;
      snap.histograms.push_back(std::move(entry));
    }
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& [name, registered] : impl_->instruments) {
    std::visit([](auto& ptr) { ptr->reset(); }, registered.instrument);
  }
}

// ---------------------------------------------------------------------------
// Exporters

void write_json(std::ostream& os, const Snapshot& snap, bool deterministic) {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& c : snap.counters) {
    if (omitted(c, deterministic)) {
      continue;
    }
    os << (first ? "\n" : ",\n") << "    \"" << c.name << "\": " << c.value;
    first = false;
  }
  os << (first ? "}" : "\n  }");
  if (!deterministic) {
    os << ",\n  \"gauges\": {";
    for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "    \"" << snap.gauges[i].name
         << "\": " << format_double(snap.gauges[i].value);
    }
    os << (snap.gauges.empty() ? "}" : "\n  }");
  }
  os << ",\n  \"histograms\": {";
  first = true;
  for (const auto& h : snap.histograms) {
    if (omitted(h, deterministic)) {
      continue;
    }
    os << (first ? "\n" : ",\n") << "    \"" << h.name << "\": {"
       << "\"count\": " << h.count;
    first = false;
    if (!deterministic) {
      os << ", \"sum\": " << format_double(h.sum)
         << ", \"min\": " << format_double(h.min)
         << ", \"max\": " << format_double(h.max)
         << ", \"p50\": " << format_double(h.p50)
         << ", \"p95\": " << format_double(h.p95)
         << ", \"p99\": " << format_double(h.p99) << ", \"edges\": [";
      for (std::size_t j = 0; j < h.edges.size(); ++j) {
        os << (j == 0 ? "" : ", ") << format_double(h.edges[j]);
      }
      os << "], \"buckets\": [";
      for (std::size_t j = 0; j < h.buckets.size(); ++j) {
        os << (j == 0 ? "" : ", ") << h.buckets[j];
      }
      os << "]";
    }
    os << "}";
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
}

void write_csv(std::ostream& os, const Snapshot& snap, bool deterministic) {
  os << "kind,name,field,value\n";
  for (const auto& c : snap.counters) {
    if (!omitted(c, deterministic)) {
      os << "counter," << c.name << ",value," << c.value << "\n";
    }
  }
  if (!deterministic) {
    for (const auto& g : snap.gauges) {
      os << "gauge," << g.name << ",value," << format_double(g.value) << "\n";
    }
  }
  for (const auto& h : snap.histograms) {
    if (omitted(h, deterministic)) {
      continue;
    }
    os << "histogram," << h.name << ",count," << h.count << "\n";
    if (!deterministic) {
      os << "histogram," << h.name << ",sum," << format_double(h.sum) << "\n";
      os << "histogram," << h.name << ",min," << format_double(h.min) << "\n";
      os << "histogram," << h.name << ",max," << format_double(h.max) << "\n";
      os << "histogram," << h.name << ",p50," << format_double(h.p50) << "\n";
      os << "histogram," << h.name << ",p95," << format_double(h.p95) << "\n";
      os << "histogram," << h.name << ",p99," << format_double(h.p99) << "\n";
    }
  }
}

bool write_snapshot_file(const std::string& path, bool deterministic) {
  std::ofstream out(path);
  if (!out) {
    HPNN_LOG(Warn) << "metrics: cannot open snapshot path " << path;
    return false;
  }
  const Snapshot snap = MetricsRegistry::instance().snapshot();
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv) {
    write_csv(out, snap, deterministic);
  } else {
    write_json(out, snap, deterministic);
  }
  out.flush();
  if (!out) {
    HPNN_LOG(Warn) << "metrics: failed writing snapshot to " << path;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Timers & tracing

ScopedTimer::~ScopedTimer() {
  if (hist_ != nullptr) {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    hist_->observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
  }
}

std::uint64_t trace_now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

TraceBuffer::TraceBuffer()
    : mutex_(new std::mutex),
      capacity_(static_cast<std::size_t>(
          std::max<std::int64_t>(env_int("HPNN_TRACE_CAPACITY", 4096), 16))) {
  ring_.resize(capacity_);
}

TraceBuffer& TraceBuffer::instance() {
  static TraceBuffer* buffer = new TraceBuffer();
  return *buffer;
}

void TraceBuffer::record(const char* name, std::uint64_t start_us,
                         std::uint64_t duration_us) {
  const int lane = thread_ordinal();
  std::lock_guard<std::mutex> lock(*mutex_);
  ring_[static_cast<std::size_t>(next_ % capacity_)] =
      TraceEvent{name, start_us, duration_us, lane};
  ++next_;
}

std::vector<TraceEvent> TraceBuffer::events() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  std::vector<TraceEvent> out;
  const std::uint64_t retained = std::min<std::uint64_t>(next_, capacity_);
  out.reserve(static_cast<std::size_t>(retained));
  const std::uint64_t first = next_ - retained;
  for (std::uint64_t i = first; i < next_; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i % capacity_)]);
  }
  return out;
}

std::uint64_t TraceBuffer::total_recorded() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return next_;
}

void TraceBuffer::reset() {
  std::lock_guard<std::mutex> lock(*mutex_);
  next_ = 0;
  std::fill(ring_.begin(), ring_.end(), TraceEvent{});
}

void TraceBuffer::write_json(std::ostream& os) const {
  const std::vector<TraceEvent> evts = events();
  os << "[";
  for (std::size_t i = 0; i < evts.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "  {\"name\": \""
       << (evts[i].name != nullptr ? evts[i].name : "") << "\", \"start_us\": "
       << evts[i].start_us << ", \"dur_us\": " << evts[i].duration_us
       << ", \"lane\": " << evts[i].lane << "}";
  }
  os << (evts.empty() ? "]" : "\n]") << "\n";
}

TraceSpan::TraceSpan(const char* name, Histogram* hist)
    : name_(enabled() ? name : nullptr),
      hist_(enabled() ? hist : nullptr) {
  if (name_ != nullptr || hist_ != nullptr) {
    start_ = std::chrono::steady_clock::now();
  }
}

TraceSpan::~TraceSpan() {
  if (name_ == nullptr && hist_ == nullptr) {
    return;
  }
  const auto end = std::chrono::steady_clock::now();
  const double us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start_)
          .count());
  if (hist_ != nullptr) {
    hist_->observe(us);
  }
  if (name_ != nullptr) {
    const std::uint64_t end_us = trace_now_us();
    const auto dur = static_cast<std::uint64_t>(us);
    TraceBuffer::instance().record(name_, end_us >= dur ? end_us - dur : 0,
                                   dur);
  }
}

}  // namespace hpnn::metrics
