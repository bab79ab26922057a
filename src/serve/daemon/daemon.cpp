#include "serve/daemon/daemon.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

#include "core/error.hpp"
#include "core/metrics.hpp"

namespace hpnn::serve {

ServeDaemon::ServeDaemon(ServingSupervisor& supervisor,
                         const obf::HpnnKey& master_key,
                         const std::string& model_id, DaemonConfig config)
    : supervisor_(supervisor),
      clock_(&supervisor.clock()),
      config_(config),
      queue_(config.queue, *clock_),
      batcher_(config.batcher),
      admission_(config.admission, *clock_),
      sessions_(master_key, model_id, config.sessions, *clock_) {}

ServeDaemon::~ServeDaemon() { stop(); }

std::shared_ptr<PendingRequest> ServeDaemon::submit_async(
    const std::string& tenant, Tensor images) {
  if (images.shape().rank() != 4 || images.dim(0) < 1) {
    throw ShapeError("daemon requests must be [N >= 1, C, H, W] images");
  }
  {
    std::lock_guard<std::mutex> lock(shape_mutex_);
    if (!input_template_set_) {
      input_template_ = images.shape();
      input_template_set_ = true;
    } else {
      for (std::size_t d = 1; d < 4; ++d) {
        if (images.dim(static_cast<std::int64_t>(d)) !=
            input_template_.dim(static_cast<std::int64_t>(d))) {
          // Rejected here, synchronously: a shape mismatch inside a
          // coalesced batch would fail every co-batched request.
          throw ShapeError(
              "request sample shape differs from the model's input shape");
        }
      }
    }
  }

  admission_.admit(tenant, queue_.depth());
  const SessionTicket ticket = sessions_.ticket(tenant);
  const std::uint64_t id = next_request_id_.fetch_add(1) + 1;
  auto pending = std::make_shared<PendingRequest>(tenant, id,
                                                  std::move(images),
                                                  clock_->now_us());
  pending->set_session_fingerprint(ticket.fingerprint);
  queue_.push(pending);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  HPNN_METRIC_COUNT("serve.daemon.submitted", 1);
  return pending;
}

Reply ServeDaemon::submit(const std::string& tenant, Tensor images) {
  auto pending = submit_async(tenant, std::move(images));
  if (workers_.empty()) {
    // Every pump ships a batch, so ours resolves once those ahead have.
    while (!pending->done()) {
      (void)pump();
    }
  } else {
    pending->wait();
  }
  return pending->take();
}

void ServeDaemon::start() {
  std::size_t workers = 0;
  {
    std::lock_guard<std::mutex> lock(config_mutex_);
    workers = config_.workers;
  }
  if (workers == 0 || !workers_.empty()) {
    return;
  }
  stopping_.store(false);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

std::size_t ServeDaemon::pump() {
  const std::uint64_t now = clock_->now_us();
  std::vector<std::shared_ptr<PendingRequest>> batch;
  std::size_t expired = 0;
  {
    std::lock_guard<std::mutex> lock(schedule_mutex_);
    expired = queue_.expire(now);
    if (batcher_.batch_ready(queue_)) {
      batch = batcher_.collect(queue_, now);
    }
  }
  if (batch.empty()) {
    return expired;
  }
  return expired + run_batch(std::move(batch));
}

std::size_t ServeDaemon::pump_until_idle() {
  std::size_t resolved = 0;
  while (!queue_.empty()) {
    resolved += pump();
  }
  return resolved;
}

void ServeDaemon::drain() {
  queue_.close();
  if (workers_.empty()) {
    pump_until_idle();
    return;
  }
  // Workers exit once the closed queue runs dry; joining them *is* the
  // drain barrier.
  for (auto& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
}

void ServeDaemon::stop() {
  stopping_.store(true);
  queue_.close();
  for (auto& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
  const std::size_t dropped = queue_.fail_all("daemon stopped");
  failed_.fetch_add(dropped, std::memory_order_relaxed);
}

void ServeDaemon::reload(const DaemonConfig& config) {
  queue_.set_capacity(config.queue.capacity);
  batcher_.reload(config.batcher);
  admission_.reload(config.admission);
  sessions_.resize(config.sessions.capacity);
  {
    std::lock_guard<std::mutex> lock(config_mutex_);
    config_.queue = config.queue;
    config_.batcher = config.batcher;
    config_.admission = config.admission;
    config_.sessions = config.sessions;
    config_.sim_service_base_us = config.sim_service_base_us;
    config_.sim_service_per_row_us = config.sim_service_per_row_us;
    // config_.workers intentionally unchanged: thread topology is not
    // reloadable, only policy is.
  }
  HPNN_METRIC_COUNT("serve.daemon.reloads", 1);
}

void ServeDaemon::set_batch_observer(BatchObserver observer) {
  std::lock_guard<std::mutex> lock(observer_mutex_);
  observer_ = std::move(observer);
}

Tensor ServeDaemon::coalesce(
    const std::vector<std::shared_ptr<PendingRequest>>& batch) const {
  std::int64_t rows = 0;
  for (const auto& request : batch) {
    rows += request->rows();
  }
  const Shape& sample = batch.front()->images().shape();
  Tensor out(Shape{rows, sample.dim(1), sample.dim(2), sample.dim(3)});
  const std::size_t row_floats = static_cast<std::size_t>(
      sample.dim(1) * sample.dim(2) * sample.dim(3));
  float* dst = out.data();
  for (const auto& request : batch) {
    const std::size_t n =
        static_cast<std::size_t>(request->rows()) * row_floats;
    std::memcpy(dst, request->images().data(), n * sizeof(float));
    dst += n;
  }
  return out;
}

std::size_t ServeDaemon::run_batch(
    std::vector<std::shared_ptr<PendingRequest>> batch) {
  const std::uint64_t dequeued_at = clock_->now_us();
  const std::uint64_t batch_id = next_batch_id_.fetch_add(1) + 1;
  std::int64_t rows = 0;
  for (const auto& request : batch) {
    rows += request->rows();
  }
  // A lone request is served from its own tensor; only a batch of several
  // is copied into one.
  const Tensor coalesced = batch.size() > 1 ? coalesce(batch) : Tensor();
  const Tensor& images = batch.size() > 1 ? coalesced : batch.front()->images();

  std::uint64_t sim_base = 0;
  std::uint64_t sim_per_row = 0;
  {
    std::lock_guard<std::mutex> lock(config_mutex_);
    sim_base = config_.sim_service_base_us;
    sim_per_row = config_.sim_service_per_row_us;
  }
  if (sim_base != 0 || sim_per_row != 0) {
    clock_->sleep_us(sim_base +
                     sim_per_row * static_cast<std::uint64_t>(rows));
  }

  const std::uint64_t quarantines_before =
      supervisor_.pool().stats().quarantines;
  RequestResult result;
  std::exception_ptr error;
  try {
    result = supervisor_.submit(images);
  } catch (const Error&) {
    error = std::current_exception();
  }
  if (supervisor_.pool().stats().quarantines > quarantines_before) {
    // Hardware that carried this batch tripped an integrity quarantine:
    // the session keys of every tenant aboard are revoked, so compromised
    // traffic cannot continue under the old session epoch.
    std::set<std::string> tenants;
    for (const auto& request : batch) {
      tenants.insert(request->tenant());
    }
    for (const auto& tenant : tenants) {
      sessions_.revoke(tenant);
    }
    HPNN_METRIC_COUNT("serve.daemon.sessions.fault_revocations",
                      tenants.size());
  }

  const std::uint64_t done_at = clock_->now_us();
  const std::uint64_t service_us = done_at - dequeued_at;
  admission_.observe_drain(
      std::max<std::uint64_t>(service_us / batch.size(), 1));
  batches_.fetch_add(1, std::memory_order_relaxed);
  HPNN_METRIC_COUNT("serve.daemon.batches", 1);
  HPNN_METRIC_OBSERVE("serve.daemon.batch.rows",
                      static_cast<double>(rows));

  if (error == nullptr) {
    BatchObserver observer;
    {
      std::lock_guard<std::mutex> lock(observer_mutex_);
      observer = observer_;
    }
    if (observer) {
      observer(images, result, batch);
    }
  }

  std::int64_t offset = 0;
  for (auto& request : batch) {
    const std::uint64_t queue_wait = dequeued_at - request->enqueued_at_us();
    HPNN_METRIC_OBSERVE("serve.daemon.queue_wait_us",
                        static_cast<double>(queue_wait));
    if (error != nullptr) {
      request->fail(error);
      failed_.fetch_add(1, std::memory_order_relaxed);
      HPNN_METRIC_COUNT("serve.daemon.failed", 1);
    } else {
      Reply reply;
      reply.classes.assign(
          result.classes.begin() + offset,
          result.classes.begin() + offset + request->rows());
      reply.replica = result.replica;
      reply.attempts = result.attempts;
      reply.degraded = result.degraded;
      reply.queue_wait_us = queue_wait;
      reply.latency_us = done_at - request->enqueued_at_us();
      reply.batch_id = batch_id;
      reply.batch_rows = rows;
      reply.session_fingerprint = request->session_fingerprint();
      HPNN_METRIC_OBSERVE("serve.daemon.request.latency_us",
                          static_cast<double>(reply.latency_us));
      request->complete(std::move(reply));
      completed_.fetch_add(1, std::memory_order_relaxed);
      HPNN_METRIC_COUNT("serve.daemon.completed", 1);
    }
    offset += request->rows();
  }
  return batch.size();
}

void ServeDaemon::worker_loop() {
  while (!stopping_.load()) {
    const std::uint64_t now = clock_->now_us();
    std::vector<std::shared_ptr<PendingRequest>> batch;
    {
      std::lock_guard<std::mutex> lock(schedule_mutex_);
      queue_.expire(now);
      if (batcher_.batch_ready(queue_)) {
        batch = batcher_.collect(queue_, now);
      }
    }
    if (!batch.empty()) {
      run_batch(std::move(batch));
      continue;
    }
    if (queue_.closed() && queue_.empty()) {
      break;  // graceful drain complete
    }
    queue_.wait_nonempty(1'000);
  }
}

DaemonStats ServeDaemon::stats() const {
  DaemonStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.expired = queue_.expired_total();
  stats.queue_depth = queue_.depth();
  stats.admission = admission_.stats();
  stats.sessions = sessions_.stats();
  return stats;
}

}  // namespace hpnn::serve
