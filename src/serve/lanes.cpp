#include "serve/lanes.hpp"

#include <algorithm>
#include <system_error>

#include "core/error.hpp"

namespace hpnn::serve {

ExecutionLanes::Job::~Job() {
  if (lanes_ != nullptr) {
    lanes_->finish(*this);
  }
}

void ExecutionLanes::Job::rethrow_error() const {
  if (error_) {
    std::rethrow_exception(error_);
  }
}

void ExecutionLanes::Job::run() noexcept {
  try {
    call_(target_);
  } catch (...) {
    error_ = std::current_exception();
  }
}

ExecutionLanes::ExecutionLanes(std::size_t max_lanes)
    : max_lanes_(max_lanes) {}

ExecutionLanes::~ExecutionLanes() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) {
    thread.join();
  }
}

void ExecutionLanes::post(Job& job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    HPNN_CHECK(job.state_ == Job::State::kIdle, "a lane job is posted once");
    queue_.push_back(&job);
    job.lanes_ = this;
    job.state_ = Job::State::kQueued;
    if (queue_.size() > idle_ && threads_.size() < max_lanes_) {
      try {
        threads_.emplace_back([this] { lane_loop(); });
      } catch (const std::system_error&) {
        // No lane to spare: the job waits for a busy one or its caller.
      }
    }
  }
  // Outside the lock, so the woken lane does not block on it at once.
  work_cv_.notify_one();
}

bool ExecutionLanes::finish(Job& job) {
  job.lanes_ = nullptr;  // settled when this returns: ~Job has nothing to do
  {
    std::unique_lock<std::mutex> lock(mutex_);
    HPNN_CHECK(job.state_ != Job::State::kIdle, "finish() needs a posted job");
    if (job.state_ != Job::State::kQueued) {
      done_cv_.wait(lock, [&] { return job.state_ == Job::State::kSettled; });
      return false;
    }
    // Not claimed yet: take it back. Off the queue, no lane can reach it.
    queue_.erase(std::find(queue_.begin(), queue_.end(), &job));
    job.state_ = Job::State::kSettled;
  }
  job.run();
  return true;
}

std::size_t ExecutionLanes::lanes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return threads_.size();
}

void ExecutionLanes::lane_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    ++idle_;
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    --idle_;
    if (queue_.empty()) {
      return;  // stopping
    }
    Job* job = queue_.front();
    queue_.erase(queue_.begin());
    job->state_ = Job::State::kClaimed;
    lock.unlock();
    job->run();
    lock.lock();
    // The owner may return and free the job as soon as it sees kSettled;
    // the lane does not touch it again.
    job->state_ = Job::State::kSettled;
    done_cv_.notify_all();
  }
}

}  // namespace hpnn::serve
