// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// HPNN libraries' public functions: each has a name, a start, an end, the
// span that was open on the same thread when it began (its parent), and a
// request id shared by every span of one operation. Nothing is written
// until the run ends, when the spans go out as Chrome trace-event JSON and
// as a per-name self-time table.
//
// A disabled tracer records nothing; its spans cost one branch, so the
// untraced run executes the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SteadyTime = std::chrono::steady_clock::time_point;

/// Microseconds on the steady clock's epoch (the same epoch as
/// hpnn::core::SteadyClock::now_us, so program timestamps line up).
double to_us(SteadyTime t);

class Tracer {
 public:
  struct Record {
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;  // 0 = root
    std::uint64_t request_id = 0;
    std::uint64_t thread = 0;
  };

  struct SelfTimeRow {
    std::string name;
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;  // total minus the time its children cover
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span around one call. `name` must be a string literal.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint64_t request_id = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when tracing is off
    Record record_;
    std::uint64_t saved_parent_ = 0;
  };

  /// Records a span whose bounds were measured elsewhere (e.g. the
  /// daemon's own enqueue/dequeue/done stamps). Returns its span id.
  std::uint64_t add(const char* name, double start_us, double end_us,
                    std::uint64_t parent_id, std::uint64_t request_id);

  /// Durations (µs) of every span named `name`, in record order.
  std::vector<double> durations_us(const std::string& name) const;

  std::vector<SelfTimeRow> self_time_table() const;

  /// {"traceEvents":[...]} with complete ("X") events; the parent and the
  /// request id travel in each event's args.
  void write_chrome_json(const std::string& path) const;

  std::size_t size() const;

 private:
  std::uint64_t next_id();

  bool enabled_;
  mutable std::mutex mutex_;  // guards records_ and next_id_
  std::vector<Record> records_;
  std::uint64_t next_id_ = 0;
};

}  // namespace perfbench
