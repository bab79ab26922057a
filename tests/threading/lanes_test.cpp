// ExecutionLanes: the take-back protocol the supervisor's witness overlap
// rests on. A posted job runs exactly once — on a lane or, when no lane
// has claimed it, on the caller — its exception reaches the caller with
// its type, an unfinished job is finished when it leaves scope, and lanes
// start only on demand, up to the cap. Run under TSan via the `threading`
// ctest label.
#include "serve/lanes.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/error.hpp"

namespace hpnn::serve {
namespace {

TEST(ExecutionLanesTest, CallerTakesBackAJobNoLaneClaimed) {
  ExecutionLanes lanes(0);  // no lane can ever claim it
  int runs = 0;
  std::thread::id ran_on;
  auto fn = [&] {
    ++runs;
    ran_on = std::this_thread::get_id();
  };
  ExecutionLanes::Job job(fn);
  lanes.post(job);
  EXPECT_TRUE(lanes.finish(job));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(lanes.lanes(), 0u);
}

TEST(ExecutionLanesTest, LaneRunsTheJobWhileTheCallerWorks) {
  ExecutionLanes lanes(1);
  std::promise<void> started;
  std::thread::id ran_on;
  int result = 0;
  auto fn = [&] {
    ran_on = std::this_thread::get_id();
    started.set_value();
    result = 42;
  };
  ExecutionLanes::Job job(fn);
  lanes.post(job);
  started.get_future().wait();  // claimed: finish() must wait, not rerun
  EXPECT_FALSE(lanes.finish(job));
  EXPECT_EQ(result, 42);
  EXPECT_NE(ran_on, std::this_thread::get_id());
  job.rethrow_error();  // nothing thrown
  EXPECT_EQ(lanes.lanes(), 1u);
}

TEST(ExecutionLanesTest, ExceptionReachesTheCallerWithItsTypeOnBothPaths) {
  auto fn = [] { throw KeyError("sealed key changed"); };
  {
    ExecutionLanes lanes(0);
    ExecutionLanes::Job job(fn);
    lanes.post(job);
    EXPECT_TRUE(lanes.finish(job));
    EXPECT_THROW(job.rethrow_error(), KeyError);
  }
  {
    ExecutionLanes lanes(1);
    std::promise<void> started;
    auto signalled = [&] {
      started.set_value();
      fn();
    };
    ExecutionLanes::Job job(signalled);
    lanes.post(job);
    started.get_future().wait();
    EXPECT_FALSE(lanes.finish(job));
    EXPECT_THROW(job.rethrow_error(), KeyError);
  }
}

TEST(ExecutionLanesTest, UnfinishedJobRunsOnceWhenItLeavesScope) {
  // Queued: the destructor takes it back and runs it.
  ExecutionLanes idle(0);
  int runs = 0;
  auto count = [&] { ++runs; };
  {
    ExecutionLanes::Job job(count);
    idle.post(job);
  }
  EXPECT_EQ(runs, 1);

  // Claimed: the destructor waits for the lane to finish it.
  ExecutionLanes lanes(1);
  std::promise<void> started;
  std::atomic<bool> release{false};
  std::atomic<bool> finished{false};
  auto slow = [&] {
    started.set_value();
    while (!release.load()) {
      std::this_thread::yield();
    }
    finished.store(true);
  };
  std::thread releaser;
  {
    ExecutionLanes::Job job(slow);
    lanes.post(job);
    started.get_future().wait();
    releaser = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.store(true);
    });
  }
  EXPECT_TRUE(finished.load());
  releaser.join();
}

TEST(ExecutionLanesTest, OneLaneServesSequentialCallers) {
  ExecutionLanes lanes(4);
  for (int i = 0; i < 20; ++i) {
    std::promise<void> started;
    auto fn = [&] { started.set_value(); };
    ExecutionLanes::Job job(fn);
    lanes.post(job);
    started.get_future().wait();
    EXPECT_FALSE(lanes.finish(job));
  }
  // A lane that finished a job is idle again before its caller resumes.
  EXPECT_EQ(lanes.lanes(), 1u);
}

TEST(ExecutionLanesTest, ConcurrentCallersStayWithinTheCap) {
  constexpr int kCallers = 4;
  constexpr int kJobs = 50;
  ExecutionLanes lanes(2);
  std::atomic<int> runs{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int j = 0; j < kJobs; ++j) {
        auto fn = [&] { runs.fetch_add(1); };
        ExecutionLanes::Job job(fn);
        lanes.post(job);
        (void)lanes.finish(job);
      }
    });
  }
  for (auto& caller : callers) {
    caller.join();
  }
  EXPECT_EQ(runs.load(), kCallers * kJobs);
  EXPECT_LE(lanes.lanes(), 2u);
  EXPECT_GE(lanes.lanes(), 1u);
}

}  // namespace
}  // namespace hpnn::serve
