// Execution lanes: threads that each run one handed-off job at a time, so
// a caller can overlap its own work with a job it posts. The supervisor
// runs the witness replica's inference on a lane while it runs the
// primary's inline (DESIGN.md §11).
//
// Take-back protocol: a posted job waits in a FIFO until an idle lane
// claims it. When the caller needs the result it calls finish(): a job no
// lane has claimed yet is taken back and run on the calling thread, so a
// late lane never costs more than running the two back to back; a claimed
// job is waited for. A posted job always runs exactly once — a job that
// leaves scope unfinished is finished by its destructor — so the work
// done is a function of what was posted, never of how the OS scheduled
// the lanes. Jobs live in the poster's frame and cost no heap allocation.
//
// Lanes start on demand — only when a posted job finds no idle lane — up
// to a fixed cap, and the destructor joins them. They are plain threads,
// not core::ThreadPool workers: a parallel_for issued on a lane behaves as
// on any other caller thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace hpnn::serve {

class ExecutionLanes {
 public:
  /// A callable in the poster's frame, run at most once.
  class Job {
   public:
    template <typename Fn>
    explicit Job(Fn& fn)
        : target_(&fn), call_([](void* f) { (*static_cast<Fn*>(f))(); }) {}
    /// Finishes the job if it was posted and not finished yet.
    ~Job();

    Job(const Job&) = delete;
    Job& operator=(const Job&) = delete;

    /// Rethrows what the job threw, if anything. Call after finish().
    void rethrow_error() const;

   private:
    friend class ExecutionLanes;
    enum class State { kIdle, kQueued, kClaimed, kSettled };

    void run() noexcept;

    void* target_;
    void (*call_)(void*);
    ExecutionLanes* lanes_ = nullptr;  // set from post() until finish()
    State state_ = State::kIdle;       // guarded by the lanes' mutex
    std::exception_ptr error_;
  };

  /// At most `max_lanes` threads are ever started.
  explicit ExecutionLanes(std::size_t max_lanes);
  ~ExecutionLanes();

  ExecutionLanes(const ExecutionLanes&) = delete;
  ExecutionLanes& operator=(const ExecutionLanes&) = delete;

  /// Queues `job` for the next idle lane, starting a lane when none is
  /// idle and the cap allows. A job must not be posted twice.
  void post(Job& job);

  /// Completes a posted job: runs it on the calling thread when no lane
  /// has claimed it, else blocks until its lane is done. Returns true when
  /// the caller ran it. Throws only for a job never posted; what the job
  /// threw is kept for Job::rethrow_error().
  bool finish(Job& job);

  /// Lanes started so far.
  std::size_t lanes() const;

 private:
  void lane_loop();

  const std::size_t max_lanes_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // wakes idle lanes
  std::condition_variable done_cv_;  // wakes callers waiting on a lane
  std::vector<Job*> queue_;  // FIFO of posted, unclaimed jobs
  std::size_t idle_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace hpnn::serve
