// AdaptiveBatcher: the work-conserving cut trigger, fair collection under
// the row budget, and reload semantics.
#include "serve/daemon/batcher.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/clock.hpp"
#include "core/error.hpp"

namespace hpnn::serve {
namespace {

std::shared_ptr<PendingRequest> request(const std::string& tenant,
                                        std::uint64_t id,
                                        std::uint64_t enqueued_at_us,
                                        std::int64_t rows = 1) {
  return std::make_shared<PendingRequest>(tenant, id,
                                          Tensor(Shape{rows, 1, 2, 2}),
                                          enqueued_at_us);
}

BatcherConfig config_8x() {
  BatcherConfig config;
  config.max_batch_rows = 8;
  config.slo_p99_us = 10'000;
  return config;
}

TEST(BatcherTest, BatchReadyExactlyWhenTheQueueIsNonEmpty) {
  core::SimulatedClock clock{0};
  RequestQueue queue(QueueConfig{}, clock);
  AdaptiveBatcher batcher(config_8x());

  EXPECT_FALSE(batcher.batch_ready(queue));

  // One row of eight is enough: no window holds it back for co-travellers.
  queue.push(request("a", 1, /*enqueued_at_us=*/0, /*rows=*/1));
  EXPECT_TRUE(batcher.batch_ready(queue));

  (void)batcher.collect(queue, 0);
  EXPECT_FALSE(batcher.batch_ready(queue));

  // A closed queue still has work to drain until it runs dry.
  queue.push(request("b", 2, 0, /*rows=*/2));
  queue.close();
  EXPECT_TRUE(batcher.batch_ready(queue));
  (void)batcher.collect(queue, 0);
  EXPECT_FALSE(batcher.batch_ready(queue));
}

TEST(BatcherTest, CollectFillsUpToMaxRowsInFairOrder) {
  core::SimulatedClock clock{0};
  RequestQueue queue(QueueConfig{}, clock);
  AdaptiveBatcher batcher(config_8x());

  queue.push(request("a", 1, 0, 3));
  queue.push(request("a", 2, 0, 3));
  queue.push(request("b", 3, 0, 3));
  queue.push(request("c", 4, 0, 2));

  // 8-row budget: a#1 (3), b#3 (3) by rotation, then only c#4 (2) still
  // fits — a#2 would overflow and its lane is skipped, not truncated.
  const auto batch = batcher.collect(queue, 5'000);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0]->id(), 1u);
  EXPECT_EQ(batch[1]->id(), 3u);
  EXPECT_EQ(batch[2]->id(), 4u);
  EXPECT_EQ(queue.depth(), 1u);
}

TEST(BatcherTest, OversizedRequestShipsAloneInsteadOfStarving) {
  core::SimulatedClock clock{0};
  RequestQueue queue(QueueConfig{}, clock);
  AdaptiveBatcher batcher(config_8x());

  queue.push(request("a", 1, 0, /*rows=*/12));  // > max_batch_rows
  queue.push(request("b", 2, 0, 1));

  const auto batch = batcher.collect(queue, 5'000);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0]->id(), 1u);
  EXPECT_EQ(batch[0]->rows(), 12);
  EXPECT_EQ(queue.depth(), 1u);
}

TEST(BatcherTest, ReloadSwapsMaxBatchRowsAndValidates) {
  core::SimulatedClock clock{0};
  RequestQueue queue(QueueConfig{}, clock);
  AdaptiveBatcher batcher(config_8x());

  BatcherConfig bad = config_8x();
  bad.max_batch_rows = 0;
  EXPECT_THROW(batcher.reload(bad), Error);
  EXPECT_EQ(batcher.config().max_batch_rows, 8);

  BatcherConfig narrower = config_8x();
  narrower.max_batch_rows = 2;
  narrower.slo_p99_us = 3'000;
  batcher.reload(narrower);
  EXPECT_EQ(batcher.config().max_batch_rows, 2);
  EXPECT_EQ(batcher.config().slo_p99_us, 3'000u);

  // The next cut obeys the new row budget.
  for (std::uint64_t id = 1; id <= 3; ++id) {
    queue.push(request("a", id, 0));
  }
  EXPECT_EQ(batcher.collect(queue, 0).size(), 2u);
  EXPECT_EQ(queue.depth(), 1u);
}

}  // namespace
}  // namespace hpnn::serve
