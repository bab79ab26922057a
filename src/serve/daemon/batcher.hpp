// Work-conserving micro-batching: coalesce queued requests into MMU-sized
// batches.
//
// A batch is cut whenever a worker is free and the queue is not empty: the
// worker takes up to max_batch_rows rows in tenant-fair order and serves
// them at once. No timer holds a request back waiting for co-travellers, so
// an idle daemon serves a lone request at the instant it arrives. Requests
// coalesce only while every worker is busy, so batches still fill under
// backlog — exactly when amortizing a dispatch over more rows pays.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/daemon/queue.hpp"

namespace hpnn::serve {

struct BatcherConfig {
  /// Maximum sample rows per coalesced batch (the MMU-friendly size).
  std::int64_t max_batch_rows = 8;
  /// p99 enqueue-to-completion latency target. It does not time batch
  /// cuts; the load report and the overload verdict compare against it.
  std::uint64_t slo_p99_us = 50'000;
};

class AdaptiveBatcher {
 public:
  explicit AdaptiveBatcher(BatcherConfig config);

  /// True when a free worker should cut a batch now: exactly when the
  /// queue is non-empty.
  bool batch_ready(const RequestQueue& queue) const;

  /// Pops up to max_batch_rows rows in tenant-fair order. The first request
  /// is taken unconditionally (a single oversized request still ships as
  /// its own batch). Empty result iff the queue yielded nothing.
  std::vector<std::shared_ptr<PendingRequest>> collect(RequestQueue& queue,
                                                       std::uint64_t now_us);

  /// Swaps the policy (config reload); validates like the constructor.
  void reload(const BatcherConfig& config);
  BatcherConfig config() const;

 private:
  mutable std::mutex mutex_;
  BatcherConfig config_;
};

}  // namespace hpnn::serve
