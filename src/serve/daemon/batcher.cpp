#include "serve/daemon/batcher.hpp"

#include "core/error.hpp"

namespace hpnn::serve {

AdaptiveBatcher::AdaptiveBatcher(BatcherConfig config) : config_(config) {
  HPNN_CHECK(config_.max_batch_rows >= 1, "batcher needs max_batch_rows >= 1");
}

bool AdaptiveBatcher::batch_ready(const RequestQueue& queue) const {
  return !queue.empty();
}

std::vector<std::shared_ptr<PendingRequest>> AdaptiveBatcher::collect(
    RequestQueue& queue, std::uint64_t now_us) {
  const std::int64_t max_rows = config().max_batch_rows;
  std::vector<std::shared_ptr<PendingRequest>> batch;
  // First pop is unconstrained so an oversized request cannot starve.
  auto first = queue.pop(now_us);
  if (first == nullptr) {
    return batch;
  }
  std::int64_t rows = first->rows();
  batch.push_back(std::move(first));
  while (rows < max_rows) {
    auto next = queue.pop(now_us, max_rows - rows);
    if (next == nullptr) {
      break;
    }
    rows += next->rows();
    batch.push_back(std::move(next));
  }
  return batch;
}

void AdaptiveBatcher::reload(const BatcherConfig& config) {
  AdaptiveBatcher validate(config);  // reuse ctor invariants
  std::lock_guard<std::mutex> lock(mutex_);
  config_ = config;
}

BatcherConfig AdaptiveBatcher::config() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return config_;
}

}  // namespace hpnn::serve
