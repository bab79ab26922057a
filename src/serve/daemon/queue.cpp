#include "serve/daemon/queue.hpp"

#include <chrono>
#include <utility>

#include "core/error.hpp"
#include "core/metrics.hpp"

namespace hpnn::serve {

void PendingRequest::complete(Reply reply) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    HPNN_CHECK(!done_, "request completed twice");
    reply_ = std::move(reply);
    done_ = true;
  }
  cv_.notify_all();
}

void PendingRequest::fail(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    HPNN_CHECK(!done_, "request completed twice");
    error_ = std::move(error);
    done_ = true;
  }
  cv_.notify_all();
}

bool PendingRequest::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

void PendingRequest::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return done_; });
}

Reply PendingRequest::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  HPNN_CHECK(done_, "take() before completion");
  if (error_ != nullptr) {
    std::rethrow_exception(error_);
  }
  return reply_;
}

RequestQueue::RequestQueue(QueueConfig config, core::Clock& clock)
    : config_(config), clock_(clock) {
  HPNN_CHECK(config_.capacity >= 1, "queue capacity must be at least 1");
}

void RequestQueue::push(std::shared_ptr<PendingRequest> request) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      throw Error("request queue is closed (drain in progress)");
    }
    if (depth_ >= config_.capacity) {
      HPNN_METRIC_COUNT("serve.daemon.queue.full", 1);
      throw QueueFullError("request queue full", depth_, config_.capacity);
    }
    ++depth_;
    lanes_[request->tenant()].push_back(std::move(request));
    HPNN_METRIC_GAUGE("serve.daemon.queue.depth", depth_);
  }
  cv_.notify_one();
}

void RequestQueue::remove_accounting_locked() {
  --depth_;
  HPNN_METRIC_GAUGE("serve.daemon.queue.depth", depth_);
}

std::size_t RequestQueue::expire_locked(std::uint64_t now_us) {
  if (config_.max_queue_wait_us == 0) {
    return 0;
  }
  std::size_t expired = 0;
  for (auto it = lanes_.begin(); it != lanes_.end();) {
    auto& lane = it->second;
    // Lanes are FIFO, so stale requests are a prefix of each lane.
    while (!lane.empty() &&
           now_us - lane.front()->enqueued_at_us() >=
               config_.max_queue_wait_us) {
      auto request = std::move(lane.front());
      lane.pop_front();
      remove_accounting_locked();
      ++expired;
      request->fail(std::make_exception_ptr(TimeoutError(
          "queue-wait deadline exceeded for tenant " + request->tenant(),
          now_us - request->enqueued_at_us(), config_.max_queue_wait_us)));
    }
    it = lane.empty() ? lanes_.erase(it) : std::next(it);
  }
  if (expired > 0) {
    expired_total_ += expired;
    HPNN_METRIC_COUNT("serve.daemon.queue.expired", expired);
  }
  return expired;
}

std::size_t RequestQueue::expire(std::uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  return expire_locked(now_us);
}

std::shared_ptr<PendingRequest> RequestQueue::pop_locked(
    std::uint64_t now_us, std::int64_t max_rows) {
  expire_locked(now_us);
  if (lanes_.empty()) {
    return nullptr;
  }
  // Fair rotation: first eligible lane strictly after the cursor tenant,
  // wrapping to the beginning. One full scan bounds the search.
  auto start = lanes_.upper_bound(cursor_);
  const std::size_t n = lanes_.size();
  auto it = start == lanes_.end() ? lanes_.begin() : start;
  for (std::size_t step = 0; step < n; ++step) {
    auto& lane = it->second;
    if (!lane.empty() && lane.front()->rows() <= max_rows) {
      auto request = std::move(lane.front());
      lane.pop_front();
      cursor_ = it->first;
      if (lane.empty()) {
        lanes_.erase(it);
      }
      remove_accounting_locked();
      return request;
    }
    ++it;
    if (it == lanes_.end()) {
      it = lanes_.begin();
    }
  }
  return nullptr;
}

std::shared_ptr<PendingRequest> RequestQueue::pop(std::uint64_t now_us,
                                                  std::int64_t max_rows) {
  std::lock_guard<std::mutex> lock(mutex_);
  return pop_locked(now_us, max_rows);
}

std::size_t RequestQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return depth_;
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t RequestQueue::fail_all(const std::string& reason) {
  std::vector<std::shared_ptr<PendingRequest>> victims;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [tenant, lane] : lanes_) {
      for (auto& request : lane) {
        victims.push_back(std::move(request));
      }
    }
    lanes_.clear();
    depth_ = 0;
    HPNN_METRIC_GAUGE("serve.daemon.queue.depth", 0);
  }
  for (auto& request : victims) {
    request->fail(std::make_exception_ptr(Error(reason)));
  }
  return victims.size();
}

std::size_t RequestQueue::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return config_.capacity;
}

void RequestQueue::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  HPNN_CHECK(capacity >= 1, "queue capacity must be at least 1");
  // Shrinking below the current depth only gates new pushes; queued work
  // is never dropped by a reload.
  config_.capacity = capacity;
}

std::uint64_t RequestQueue::max_queue_wait_us() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return config_.max_queue_wait_us;
}

std::uint64_t RequestQueue::expired_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return expired_total_;
}

bool RequestQueue::wait_nonempty(std::uint64_t timeout_us) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_for(lock, std::chrono::microseconds(timeout_us),
               [this] { return depth_ > 0 || closed_; });
  return depth_ > 0;
}

}  // namespace hpnn::serve
