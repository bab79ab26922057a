// ServeDaemon: the serving front-end tying queue, batcher, admission,
// sessions and the fault-tolerant ServingSupervisor into one request path:
//
//   submit -> admission gate (token bucket + watermarks, sheds with
//             retry_after) -> session ticket -> bounded fair queue
//          -> a free worker cuts a batch of whatever is queued, up to
//             MMU size (work-conserving: no timer holds requests back)
//          -> supervisor serves it (retries / witness / quarantine)
//          -> per-request replies; sessions of tenants whose batch
//             triggered an integrity quarantine are revoked.
//
// Two execution modes behind one API:
//   - pump mode (workers == 0): the caller is the one worker and drives
//     pump()/pump_until_idle() on a SimulatedClock — single-threaded,
//     bit-deterministic; what every overload test and the load generator
//     use. Requests queued while the caller serves a batch coalesce into
//     the next one.
//   - threaded mode (workers >= 1): start() spawns workers that block on
//     the queue; what `hpnn serve` runs on a SteadyClock.
//
// Correctness note: dynamic int8 quantization scales depend on batch
// content, so co-batched requests are *not* bitwise-equivalent to serving
// them alone. The batch observer hook hands oracles the exact coalesced
// tensor + supervisor result, which is the granularity at which "zero wrong
// answers" is asserted.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/daemon/admission.hpp"
#include "serve/daemon/batcher.hpp"
#include "serve/daemon/queue.hpp"
#include "serve/daemon/session.hpp"
#include "serve/supervisor.hpp"

namespace hpnn::serve {

struct DaemonConfig {
  QueueConfig queue;
  BatcherConfig batcher;
  AdmissionConfig admission;
  SessionCacheConfig sessions;
  /// 0 = pump mode (caller drives); >= 1 spawns that many worker threads.
  std::size_t workers = 0;
  /// Simulated batch service time: when non-zero the daemon advances the
  /// clock by base + per_row * rows for every batch, which is what makes
  /// "sustainable load" well-defined on a SimulatedClock. Leave 0 on a
  /// SteadyClock (real inference time is the service time).
  std::uint64_t sim_service_base_us = 0;
  std::uint64_t sim_service_per_row_us = 0;
};

struct DaemonStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;
  std::uint64_t expired = 0;
  std::size_t queue_depth = 0;
  AdmissionController::Stats admission;
  SessionCache::Stats sessions;
};

class ServeDaemon {
 public:
  /// Observes every batch after the supervisor served it: (the served
  /// images — a lone request's own tensor, else the coalesced copy — the
  /// supervisor result, the batched requests in row order). Tests hang
  /// the reference-device oracle here.
  using BatchObserver = std::function<void(
      const Tensor&, const RequestResult&,
      const std::vector<std::shared_ptr<PendingRequest>>&)>;

  /// The daemon borrows the supervisor (and its clock); the master key is
  /// needed for session-key derivation and never leaves the SessionCache.
  ServeDaemon(ServingSupervisor& supervisor, const obf::HpnnKey& master_key,
              const std::string& model_id, DaemonConfig config = {});
  ~ServeDaemon();

  /// Admission gate + enqueue. Returns the pending handle on acceptance.
  /// Throws AdmissionRejectedError (shed, with retry_after_us hint),
  /// QueueFullError (bound hit before admission reacted), ShapeError
  /// (input does not match the model's input shape), or Error (draining).
  std::shared_ptr<PendingRequest> submit_async(const std::string& tenant,
                                               Tensor images);

  /// Convenience blocking submit: pump mode drives the scheduler until the
  /// request resolves; threaded mode waits on the completion slot.
  Reply submit(const std::string& tenant, Tensor images);

  /// Threaded mode: spawns config.workers workers. No-op in pump mode.
  void start();

  /// Pump mode: one scheduler step at the clock's current time — expire
  /// stale requests and, if any are queued, cut and serve one batch.
  /// Returns the number of requests resolved (completed or failed).
  std::size_t pump();

  /// Pump mode: pumps until the queue is empty. Returns requests resolved.
  std::size_t pump_until_idle();

  /// Graceful drain: closes the queue (new submits throw), then finishes
  /// everything already queued (pump mode inline; threaded mode waits for
  /// the workers, which exit once the queue runs dry).
  void drain();

  /// Hard stop: closes the queue, fails everything still queued, joins
  /// workers. Idempotent; the destructor calls it.
  void stop();

  /// SIGHUP-style config reload: swaps queue capacity, batcher, admission
  /// and session-cache policies in place. Queued requests and cached
  /// session keys survive; worker count and clock do not change.
  void reload(const DaemonConfig& config);

  void set_batch_observer(BatchObserver observer);

  RequestQueue& queue() { return queue_; }
  AdaptiveBatcher& batcher() { return batcher_; }
  AdmissionController& admission() { return admission_; }
  SessionCache& sessions() { return sessions_; }
  ServingSupervisor& supervisor() { return supervisor_; }

  DaemonStats stats() const;

 private:
  std::size_t run_batch(std::vector<std::shared_ptr<PendingRequest>> batch);
  void worker_loop();
  Tensor coalesce(
      const std::vector<std::shared_ptr<PendingRequest>>& batch) const;

  ServingSupervisor& supervisor_;
  core::Clock* clock_;
  DaemonConfig config_;
  RequestQueue queue_;
  AdaptiveBatcher batcher_;
  AdmissionController admission_;
  SessionCache sessions_;

  /// Serializes batch cutting so concurrent workers never interleave pops
  /// of one logical batch (and pump mode stays single-batch-at-a-time).
  std::mutex schedule_mutex_;
  std::mutex config_mutex_;  // guards config_ sim knobs across reload
  BatchObserver observer_;
  std::mutex observer_mutex_;

  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_request_id_{0};
  std::atomic<std::uint64_t> next_batch_id_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> batches_{0};

  /// Input-shape template locked in by the first accepted request, so a
  /// malformed request is rejected at submit time instead of poisoning the
  /// whole coalesced batch it would ride in.
  mutable std::mutex shape_mutex_;
  Shape input_template_;
  bool input_template_set_ = false;
};

}  // namespace hpnn::serve
