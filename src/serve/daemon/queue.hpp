// Bounded multi-producer request queue with per-tenant fairness.
//
// The daemon's front door: producers (protocol handlers, the load
// generator) push PendingRequests; the batcher pops them in tenant-fair
// order. Capacity is a hard bound — a full queue throws QueueFullError with
// the observed depth so callers can surface backpressure — and every
// request carries a queue-wait deadline so work that has already missed its
// SLO is expired *before* it wastes device time.
//
// Fairness: one FIFO lane per tenant, served round-robin over the sorted
// tenant names. A tenant flooding the queue delays only its own lane; the
// rotation order is a pure function of the lane contents, so pump-mode runs
// are deterministic.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/clock.hpp"
#include "tensor/tensor.hpp"

namespace hpnn::serve {

struct QueueConfig {
  /// Hard bound on queued requests; push beyond it throws QueueFullError.
  std::size_t capacity = 256;
  /// Per-request queue-wait budget (0 = unbounded): a request older than
  /// this is failed with TimeoutError instead of being served late.
  std::uint64_t max_queue_wait_us = 0;
};

/// What a completed daemon request resolves to. Logits stay batch-internal
/// (the correctness oracle verifies at coalesced-batch granularity via the
/// daemon's batch observer); clients get classes plus accounting.
struct Reply {
  std::vector<std::int64_t> classes;
  std::size_t replica = 0;
  int attempts = 1;
  /// Time spent queued before the batch was cut.
  std::uint64_t queue_wait_us = 0;
  /// Enqueue-to-completion latency (queue wait + batch service).
  std::uint64_t latency_us = 0;
  bool degraded = false;
  std::uint64_t batch_id = 0;
  std::int64_t batch_rows = 0;
  /// Fingerprint of the tenant's session key (SessionCache).
  std::string session_fingerprint;
};

/// One in-flight request: payload plus a single-assignment completion slot.
/// Shared between the producer (who waits on it) and the worker that
/// completes or fails it. All members are safe to call concurrently.
class PendingRequest {
 public:
  PendingRequest(std::string tenant, std::uint64_t id, Tensor images,
                 std::uint64_t enqueued_at_us)
      : tenant_(std::move(tenant)),
        id_(id),
        images_(std::move(images)),
        enqueued_at_us_(enqueued_at_us) {}

  const std::string& tenant() const { return tenant_; }
  std::uint64_t id() const { return id_; }
  const Tensor& images() const { return images_; }
  std::int64_t rows() const { return images_.dim(0); }
  std::uint64_t enqueued_at_us() const { return enqueued_at_us_; }

  /// Set once by the daemon before enqueue (session fingerprint at
  /// admission time); the queue's mutex orders it before any worker read.
  void set_session_fingerprint(std::string fingerprint) {
    session_fingerprint_ = std::move(fingerprint);
  }
  const std::string& session_fingerprint() const {
    return session_fingerprint_;
  }

  void complete(Reply reply);
  void fail(std::exception_ptr error);
  bool done() const;
  /// Blocks until complete()/fail() (threaded mode; pump mode never waits).
  void wait();
  /// Returns the reply or rethrows the failure. Requires done().
  Reply take();

 private:
  std::string tenant_;
  std::uint64_t id_ = 0;
  Tensor images_;
  std::uint64_t enqueued_at_us_ = 0;
  std::string session_fingerprint_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  Reply reply_;
  std::exception_ptr error_;
};

class RequestQueue {
 public:
  RequestQueue(QueueConfig config, core::Clock& clock);

  /// Enqueues into the tenant's lane. Throws QueueFullError at capacity and
  /// plain Error once the queue is closed (drain in progress).
  void push(std::shared_ptr<PendingRequest> request);

  /// Pops the next request in tenant-fair rotation whose row count is at
  /// most `max_rows` (so the batcher can fill a batch without push-back).
  /// Expires stale requests first. Returns nullptr when nothing fits.
  std::shared_ptr<PendingRequest> pop(std::uint64_t now_us,
                                      std::int64_t max_rows = INT64_MAX);

  /// Fails every request older than max_queue_wait_us with TimeoutError.
  /// Returns how many were expired. No-op when the budget is 0.
  std::size_t expire(std::uint64_t now_us);

  std::size_t depth() const;
  bool empty() const { return depth() == 0; }

  /// Closes the front door: subsequent pushes throw, pops keep draining.
  void close();
  bool closed() const;
  /// Fails everything still queued (hard stop). Returns the count.
  std::size_t fail_all(const std::string& reason);

  std::size_t capacity() const;
  void set_capacity(std::size_t capacity);
  std::uint64_t max_queue_wait_us() const;
  std::uint64_t expired_total() const;

  /// Threaded mode: blocks up to timeout_us for the queue to be non-empty
  /// (or closed). Returns depth() > 0. Pump mode never calls this.
  bool wait_nonempty(std::uint64_t timeout_us);

 private:
  // All fields below guarded by mutex_.
  std::shared_ptr<PendingRequest> pop_locked(std::uint64_t now_us,
                                             std::int64_t max_rows);
  std::size_t expire_locked(std::uint64_t now_us);
  void remove_accounting_locked();

  QueueConfig config_;
  core::Clock& clock_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// Per-tenant FIFO lanes, iterated in sorted-name order for fairness.
  std::map<std::string, std::deque<std::shared_ptr<PendingRequest>>> lanes_;
  /// Tenant served last; the rotation resumes strictly after it.
  std::string cursor_;
  std::size_t depth_ = 0;
  bool closed_ = false;
  std::uint64_t expired_total_ = 0;
};

}  // namespace hpnn::serve
