#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <thread>

namespace perfbench {

namespace {

thread_local std::uint64_t t_open_span = 0;

std::uint64_t this_thread_tag() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

double now_us() { return to_us(std::chrono::steady_clock::now()); }

}  // namespace

double to_us(SteadyTime t) {
  return std::chrono::duration<double, std::micro>(t.time_since_epoch())
      .count();
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++next_id_;
}

Tracer::Span::Span(Tracer& tracer, const char* name,
                   std::uint64_t request_id) {
  if (!tracer.enabled()) {
    return;
  }
  tracer_ = &tracer;
  record_.name = name;
  record_.span_id = tracer.next_id();
  record_.parent_id = t_open_span;
  record_.request_id = request_id;
  record_.thread = this_thread_tag();
  saved_parent_ = t_open_span;
  t_open_span = record_.span_id;
  record_.start_us = now_us();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) {
    return;
  }
  record_.end_us = now_us();
  t_open_span = saved_parent_;
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->records_.push_back(record_);
}

std::uint64_t Tracer::add(const char* name, double start_us, double end_us,
                          std::uint64_t parent_id,
                          std::uint64_t request_id) {
  if (!enabled_) {
    return 0;
  }
  Record r;
  r.name = name;
  r.start_us = start_us;
  r.end_us = end_us;
  r.parent_id = parent_id;
  r.request_id = request_id;
  r.thread = this_thread_tag();
  std::lock_guard<std::mutex> lock(mutex_);
  r.span_id = ++next_id_;
  records_.push_back(r);
  return r.span_id;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Record& r : records_) {
    if (name == r.name) {
      out.push_back(r.end_us - r.start_us);
    }
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::vector<Tracer::SelfTimeRow> Tracer::self_time_table() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children of each span, as intervals; self time = duration minus the
  // union of the children's intervals clipped to the parent.
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Record& r : records_) {
    if (r.parent_id != 0) {
      children[r.parent_id].emplace_back(r.start_us, r.end_us);
    }
  }
  std::map<std::string, SelfTimeRow> rows;
  for (const Record& r : records_) {
    const double total = r.end_us - r.start_us;
    double covered = 0.0;
    auto it = children.find(r.span_id);
    if (it != children.end()) {
      auto spans = it->second;
      std::sort(spans.begin(), spans.end());
      double cursor = r.start_us;
      for (auto [s, e] : spans) {
        s = std::max(s, cursor);
        e = std::min(e, r.end_us);
        if (e > s) {
          covered += e - s;
          cursor = e;
        }
      }
    }
    SelfTimeRow& row = rows[r.name];
    row.name = r.name;
    ++row.count;
    row.total_us += total;
    row.self_us += total - covered;
  }
  std::vector<SelfTimeRow> out;
  for (auto& [name, row] : rows) {
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(),
            [](const SelfTimeRow& a, const SelfTimeRow& b) {
              return a.self_us > b.self_us;
            });
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream os(path);
  os.precision(3);
  os << std::fixed << "{\"traceEvents\":[";
  bool first = true;
  for (const Record& r : records_) {
    os << (first ? "\n" : ",\n") << "{\"name\":\"" << r.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread
       << ",\"ts\":" << r.start_us << ",\"dur\":" << (r.end_us - r.start_us)
       << ",\"args\":{\"span\":" << r.span_id << ",\"parent\":" << r.parent_id
       << ",\"request\":" << r.request_id << "}}";
    first = false;
  }
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

}  // namespace perfbench
