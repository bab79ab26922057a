#include "core/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/error.hpp"
#include "core/metrics.hpp"

namespace hpnn::core {

namespace {

/// True on threads owned by the pool; nested parallel_for calls detect this
/// and run inline instead of re-entering the pool (which would deadlock a
/// fully busy pool).
thread_local bool t_in_worker = false;

int default_thread_count() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::int64_t requested =
      env_int("HPNN_THREADS", static_cast<std::int64_t>(hw));
  return static_cast<int>(std::clamp<std::int64_t>(requested, 1, 1024));
}

/// One blocking parallel_for invocation. It lives in the caller's frame:
/// workers take it only under the pool mutex while it is posted and count
/// themselves in `users`; the caller unposts it and returns only once
/// `users` is back to zero, so no worker can touch it afterwards and a job
/// costs no heap allocation.
struct Job {
  std::int64_t begin = 0;
  std::int64_t grain = 1;
  std::int64_t end = 0;
  std::int64_t chunks = 0;
  const ChunkFn* fn = nullptr;
  std::atomic<std::int64_t> cursor{0};
  int users = 0;  // workers draining it; guarded by the pool mutex
  std::mutex error_mutex;
  std::exception_ptr error;
  // Set at submission when metrics are enabled; workers observe the gap
  // between this and their wake-up as "core.pool.queue_wait_us". A worker
  // that wakes only after the caller finished the job skips it, so the
  // sample count depends on scheduling, not on the work.
  std::chrono::steady_clock::time_point submitted;

  /// Claims and runs chunks until none remain; returns how many this
  /// thread ran (the chunk-imbalance signal).
  std::int64_t drain() {
    std::int64_t ran = 0;
    for (;;) {
      const std::int64_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) {
        break;
      }
      const std::int64_t c0 = begin + c * grain;
      const std::int64_t c1 = std::min(end, c0 + grain);
      try {
        (*fn)(c0, c1, c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) {
          error = std::current_exception();
        }
      }
      ++ran;
    }
    return ran;
  }
};

}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable work_cv;   // wakes workers
  std::condition_variable done_cv;   // wakes the caller
  Job* job = nullptr;                // posted job, null when idle
  std::uint64_t epoch = 0;           // bumped per job submission
  bool stopping = false;
  std::vector<std::thread> workers;

  void worker_loop() {
    t_in_worker = true;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      work_cv.wait(lock,
                   [&] { return stopping || (job != nullptr && epoch != seen); });
      if (stopping) {
        return;
      }
      seen = epoch;
      Job* current = job;
      ++current->users;
      lock.unlock();
      if (metrics::enabled()) {
        static metrics::Histogram& queue_wait =
            metrics::MetricsRegistry::instance().histogram(
                "core.pool.queue_wait_us", {},
                metrics::Determinism::kSchedulingDependent);
        const auto wait = std::chrono::steady_clock::now() - current->submitted;
        queue_wait.observe(static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(wait)
                .count()));
      }
      current->drain();
      lock.lock();
      if (--current->users == 0) {
        done_cv.notify_all();
      }
    }
  }

  void start(int lanes) {
    // `lanes` counts the caller as one execution lane; spawn the rest.
    for (int i = 1; i < lanes; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stopping = true;
    }
    work_cv.notify_all();
    for (auto& w : workers) {
      w.join();
    }
    workers.clear();
    stopping = false;
  }
};

ThreadPool::ThreadPool() : impl_(new Impl) {
  configured_threads_ = default_thread_count();
  impl_->start(configured_threads_);
}

ThreadPool::~ThreadPool() {
  impl_->stop();
  delete impl_;
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::restart(int threads) {
  impl_->stop();
  configured_threads_ = threads > 0 ? threads : default_thread_count();
  impl_->start(configured_threads_);
}

std::int64_t ThreadPool::chunk_count(std::int64_t begin, std::int64_t end,
                                     std::int64_t grain) {
  HPNN_CHECK(grain >= 1, "parallel_for grain must be >= 1");
  const std::int64_t range = end - begin;
  return range <= 0 ? 0 : (range + grain - 1) / grain;
}

void ThreadPool::run(std::int64_t begin, std::int64_t end, std::int64_t grain,
                     const ChunkFn& fn) {
  const std::int64_t chunks = chunk_count(begin, end, grain);
  if (chunks == 0) {
    return;
  }
  // Serial fast paths: a one-lane pool, a single chunk, or a nested call
  // from inside a worker all execute inline, in chunk order. The chunk
  // decomposition (and therefore every result bit) is identical to the
  // parallel path.
  if (chunks == 1 || impl_->workers.empty() || t_in_worker) {
    HPNN_METRIC_COUNT("core.pool.jobs_inline", 1);
    HPNN_METRIC_COUNT("core.pool.chunks", chunks);
    for (std::int64_t c = 0; c < chunks; ++c) {
      const std::int64_t c0 = begin + c * grain;
      fn(c0, std::min(end, c0 + grain), c);
    }
    return;
  }

  HPNN_METRIC_COUNT("core.pool.jobs", 1);
  HPNN_METRIC_COUNT("core.pool.chunks", chunks);
  Job job;
  job.begin = begin;
  job.grain = grain;
  job.end = end;
  job.chunks = chunks;
  job.fn = &fn;
  if (metrics::enabled()) {
    job.submitted = std::chrono::steady_clock::now();
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->job = &job;
    ++impl_->epoch;
  }
  impl_->work_cv.notify_all();

  // The caller is a full execution lane, not a spectator. The share of
  // chunks it ends up running is the chunk-imbalance signal: with perfect
  // load spread it runs ~chunks/lanes of them. That share depends on how
  // the OS scheduled the workers, so the counter stays out of the
  // deterministic snapshot view.
  const std::int64_t caller_ran = job.drain();
  if (metrics::enabled()) {
    static metrics::Counter& caller_chunks =
        metrics::MetricsRegistry::instance().counter(
            "core.pool.caller_chunks",
            metrics::Determinism::kSchedulingDependent);
    caller_chunks.add(static_cast<std::uint64_t>(caller_ran));
  }

  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    // Once the caller's drain returns every chunk is claimed, and a worker
    // counts itself in before it claims one: when the last worker leaves,
    // every chunk has run.
    impl_->done_cv.wait(lock, [&] { return job.users == 0; });
    if (impl_->job == &job) {  // a concurrent caller may have reposted
      impl_->job = nullptr;
    }
  }
  if (job.error) {
    std::rethrow_exception(job.error);
  }
}

void set_thread_count(int n) {
  ThreadPool::instance().restart(n);
}

int thread_count() { return ThreadPool::instance().threads(); }

}  // namespace hpnn::core
