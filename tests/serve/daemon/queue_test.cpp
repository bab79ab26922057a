// RequestQueue: bounded capacity, per-tenant fair rotation, queue-wait
// deadlines and the close/drain front-door semantics.
#include "serve/daemon/queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/clock.hpp"
#include "core/error.hpp"

namespace hpnn::serve {
namespace {

Tensor sample(std::int64_t rows = 1) {
  return Tensor(Shape{rows, 1, 2, 2});
}

std::shared_ptr<PendingRequest> request(const std::string& tenant,
                                        std::uint64_t id,
                                        std::uint64_t enqueued_at_us,
                                        std::int64_t rows = 1) {
  return std::make_shared<PendingRequest>(tenant, id, sample(rows),
                                          enqueued_at_us);
}

TEST(RequestQueueTest, PopRotatesFairlyAcrossTenantLanes) {
  core::SimulatedClock clock{0};
  RequestQueue queue(QueueConfig{}, clock);

  // Tenant "a" floods; "b" and "c" each queue one request. Fair rotation
  // must interleave the singletons instead of draining "a" first.
  queue.push(request("a", 1, 0));
  queue.push(request("a", 2, 0));
  queue.push(request("a", 3, 0));
  queue.push(request("b", 4, 0));
  queue.push(request("c", 5, 0));

  std::vector<std::uint64_t> order;
  while (auto r = queue.pop(0)) {
    order.push_back(r->id());
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 4, 5, 2, 3}));
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(RequestQueueTest, CapacityBoundThrowsQueueFullWithObservedDepth) {
  core::SimulatedClock clock{0};
  QueueConfig config;
  config.capacity = 2;
  RequestQueue queue(config, clock);

  queue.push(request("a", 1, 0));
  queue.push(request("b", 2, 0));
  try {
    queue.push(request("c", 3, 0));
    FAIL() << "expected QueueFullError";
  } catch (const QueueFullError& e) {
    EXPECT_EQ(e.depth(), 2u);
    EXPECT_EQ(e.capacity(), 2u);
  }
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(RequestQueueTest, MaxRowsSkipsLanesWhoseHeadDoesNotFit) {
  core::SimulatedClock clock{0};
  RequestQueue queue(QueueConfig{}, clock);

  queue.push(request("a", 1, 0, /*rows=*/6));
  queue.push(request("b", 2, 0, /*rows=*/2));

  // Only 4 rows of budget: the 6-row head of lane "a" is skipped (not
  // popped and pushed back), and lane "b"'s 2-row request ships.
  auto r = queue.pop(0, /*max_rows=*/4);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->id(), 2u);

  // Nothing fits in 4 rows now.
  EXPECT_EQ(queue.pop(0, 4), nullptr);
  EXPECT_EQ(queue.depth(), 1u);
}

TEST(RequestQueueTest, ExpireFailsRequestsPastTheQueueWaitBudget) {
  core::SimulatedClock clock{0};
  QueueConfig config;
  config.max_queue_wait_us = 1'000;
  RequestQueue queue(config, clock);

  auto stale = request("a", 1, /*enqueued_at_us=*/0);
  auto fresh = request("a", 2, /*enqueued_at_us=*/900);
  queue.push(stale);
  queue.push(fresh);

  EXPECT_EQ(queue.expire(/*now_us=*/1'500), 1u);
  EXPECT_EQ(queue.expired_total(), 1u);
  EXPECT_TRUE(stale->done());
  EXPECT_THROW((void)stale->take(), TimeoutError);
  EXPECT_FALSE(fresh->done());
  EXPECT_EQ(queue.depth(), 1u);
  EXPECT_EQ(queue.pop(1'500), fresh);
}

TEST(RequestQueueTest, CloseRejectsPushesButKeepsDraining) {
  core::SimulatedClock clock{0};
  RequestQueue queue(QueueConfig{}, clock);

  queue.push(request("a", 1, 0));
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_THROW(queue.push(request("a", 2, 0)), Error);

  auto r = queue.pop(0);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->id(), 1u);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(RequestQueueTest, FailAllResolvesEverythingQueued) {
  core::SimulatedClock clock{0};
  RequestQueue queue(QueueConfig{}, clock);

  auto one = request("a", 1, 0);
  auto two = request("b", 2, 0);
  queue.push(one);
  queue.push(two);

  EXPECT_EQ(queue.fail_all("daemon stopped"), 2u);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_TRUE(one->done());
  EXPECT_TRUE(two->done());
  EXPECT_THROW((void)one->take(), Error);
}

TEST(RequestQueueTest, SetCapacityTakesEffectForSubsequentPushes) {
  core::SimulatedClock clock{0};
  QueueConfig config;
  config.capacity = 1;
  RequestQueue queue(config, clock);

  queue.push(request("a", 1, 0));
  EXPECT_THROW(queue.push(request("a", 2, 0)), QueueFullError);
  queue.set_capacity(2);
  EXPECT_EQ(queue.capacity(), 2u);
  queue.push(request("a", 2, 0));
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(PendingRequestTest, CompleteThenTakeRoundTripsTheReply) {
  auto pending = request("a", 7, 100);
  pending->set_session_fingerprint("abc123");

  Reply reply;
  reply.classes = {3};
  reply.batch_id = 9;
  pending->complete(reply);

  EXPECT_TRUE(pending->done());
  const Reply out = pending->take();
  EXPECT_EQ(out.classes, (std::vector<std::int64_t>{3}));
  EXPECT_EQ(out.batch_id, 9u);
  EXPECT_EQ(pending->session_fingerprint(), "abc123");
}

}  // namespace
}  // namespace hpnn::serve
