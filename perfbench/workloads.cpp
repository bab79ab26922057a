#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "artifact.hpp"
#include "core/clock.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "hw/device.hpp"
#include "hw/fault.hpp"
#include "replay.hpp"
#include "serve/daemon/daemon.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace hpnn;
using Clock = std::chrono::steady_clock;

namespace {

/// Held-out request images per run.
constexpr std::int64_t kHeldOutImages = 320;
constexpr double kWarmupSeconds = 0.3;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

hw::FaultPlan accumulator_fault() {
  hw::FaultPlan plan;
  plan.accumulator_flip_rate = 1.0;
  plan.accumulator_bit = 30;
  return plan;
}

/// Open-loop rate of correct work in each equal slice of [0, seconds),
/// counted by due time over the slice width: the work arrives on a
/// schedule, not back to back.
class Slices {
 public:
  Slices(double seconds, double width)
      : width_(width),
        work_(static_cast<std::size_t>(std::max(1.0, seconds / width))) {}

  void add(double at_seconds, double work) {
    if (at_seconds < 0.0) {
      return;
    }
    const auto i = static_cast<std::size_t>(std::floor(at_seconds / width_));
    if (i < work_.size()) {
      work_[i] += work;
    }
  }

  std::vector<double> rates() const {
    std::vector<double> out;
    for (double w : work_) {
      out.push_back(w / width_);
    }
    return out;
  }

 private:
  double width_;
  std::vector<double> work_;
};

/// One-second slices: ~500 open-loop arrivals (Poisson noise near 5%)
/// each. Shorter slices would each land in one host-speed state, and their
/// median would jump between states instead of averaging over them.
constexpr double kSliceSeconds = 1.0;

/// Runs one closed-loop caller for `seconds`. `op(id, phase)` performs
/// one operation, records its latency in `phase.latency_ms` (before it
/// returns any work) and any failure cause in `phase`, and returns the work
/// it completed correctly (0 when it failed).
///
/// The phase's rates are per operation: correct work over that operation's
/// latency. Their median is robust to the slow tail a shared host gives a
/// pool-wide batch (one preempted lane stalls the whole batch), which moved
/// the mean rate by up to 0.37 of its median between runs while the median
/// latency moved 0.08.
template <typename Op>
Phase closed_loop(double seconds, Op&& op) {
  Phase phase;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t id = 0;; ++id) {
    ++phase.attempted;
    const double work = op(id, phase);
    const double at = seconds_between(start, Clock::now());
    if (work > 0.0) {
      phase.work += work;
      phase.rates.push_back(work / (phase.latency_ms.back() / 1e3));
    } else {
      ++phase.failed;
    }
    if (at >= seconds) {
      phase.seconds = at;
      break;
    }
  }
  return phase;
}

double median_span_us(Tracer& tracer, const char* name) {
  return median(tracer.durations_us(name));
}

/// Shared artifact + oracle; every workload starts here.
class ArtifactWorkload : public Workload {
 public:
  explicit ArtifactWorkload(Options options) : options_(std::move(options)) {}

  void setup(Tracer& tracer) override {
    // Set-up runs on one lane: on a shared host, training on the full pool
    // waits for whichever lane the host slows, and its median set-up time
    // moved 0.95 -> 1.31 -> 1.66 s over three 10-run sets in one hour.
    core::set_thread_count(1);
    artifact_ = build_artifact(options_.work_dir + "/zoo", tracer);
    oracle_.emplace(artifact_, options_.seed, kHeldOutImages, tracer);
  }

  std::string setup_failure() const override {
    if (oracle_->accuracy() < kAccuracyFloor) {
      return "device accuracy " + std::to_string(oracle_->accuracy()) +
             " on held-out images is below the floor " +
             std::to_string(kAccuracyFloor);
    }
    if (!oracle_->attest_passed()) {
      return "reference device failed the attestation challenge";
    }
    return "";
  }

 protected:
  Options options_;
  Artifact artifact_;
  std::optional<Oracle> oracle_;
};

// ---- steady-state device passes (serve-wide's traced run) ---------------

/// Batch size of the steady-state batch pass.
constexpr std::int64_t kBatch = 32;
/// Length of the steady-state passes at batch 32 and at batch 1.
constexpr double kBatchSeconds = 3.0;
constexpr double kBatchOneSeconds = 2.0;

/// One provisioned device answering the oracle's images in a closed loop
/// (one caller, pool at nproc), in 32-image batches and one image at a
/// time, every answer checked. End to end, neither repeated between runs
/// on a shared host (see README.md), so these passes give per-layer rows
/// only, in serve-wide's traced run.
class SteadyDevice {
 public:
  SteadyDevice(const Artifact& artifact, const Oracle& oracle,
               const Options& options)
      : oracle_(oracle),
        device_(std::make_unique<hw::TrustedDevice>(artifact.model_key,
                                                    artifact.schedule_seed)) {
    device_->load_model(artifact.published);
    if (options.inject_fault) {
      injector_ = std::make_unique<hw::FaultInjector>(accumulator_fault());
      device_->attach_fault_injector(injector_.get());
    }
    // Pre-stacked batches, so the loop times the device and not copying:
    // a seeded shuffle of the oracle's images, each in one batch.
    std::vector<std::int64_t> order(static_cast<std::size_t>(oracle.size()));
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<std::int64_t>(i);
    }
    Rng rng(options.seed * 7919 + 1);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    for (std::size_t first = 0; first + kBatch <= order.size();
         first += kBatch) {
      Batch batch;
      batch.indices.assign(order.begin() + static_cast<std::ptrdiff_t>(first),
                           order.begin() +
                               static_cast<std::ptrdiff_t>(first + kBatch));
      batch.images = oracle.batch(batch.indices);
      batches_.push_back(std::move(batch));
    }
    for (std::int64_t i = 0; i < oracle.size(); ++i) {
      singles_.push_back(Batch{{i}, oracle.image(i)});
    }
  }

  /// Runs both passes and the primitive replay; throws when any answer
  /// was wrong.
  void layer_metrics(Artifact& artifact, Tracer& tracer, MetricMap& out) {
    Tracer off(false);
    (void)run(batches_, kWarmupSeconds, off, "device.infer");
    device_->reset_stats();
    images_ = 0;
    const Phase batched = run(batches_, kBatchSeconds, tracer, "device.infer");
    const double macs = static_cast<double>(device_->mmu_stats().mac_ops);
    out["device.macs_per_image"] = macs / static_cast<double>(images_);
    out["device.gmacs"] = macs / batched.seconds / 1e9;
    const std::vector<double> infer_us = tracer.durations_us("device.infer");
    out["device.infer_p50_us"] = median(infer_us);
    out["device.infer_p99_us"] = percentile(infer_us, 0.99);
    const ReplayTimes replay =
        replay_primitives(artifact, batches_.front().images, 40, tracer);
    out["hw.quantize_us"] = replay.quantize_us;
    out["tensor.im2col_us"] = replay.im2col_us;
    out["hw.mmu_matmul_us"] = replay.mmu_matmul_us;
    out["hw.dequantize_us"] = replay.dequantize_us;
    out["tensor.maxpool_us"] = replay.maxpool_us;
    out["device.unattributed_us"] = out["device.infer_p50_us"] - replay.sum_us();

    // Batch 1: the per-request fixed cost (interpreter, cache lookups,
    // per-layer quantize and epilogue, tiny pool fan-outs).
    const Phase one =
        run(singles_, kBatchOneSeconds, tracer, "device.infer_b1");
    const std::vector<double> b1_us = tracer.durations_us("device.infer_b1");
    out["device.b1_infer_p50_us"] = median(b1_us);
    out["device.b1_infer_p99_us"] = percentile(b1_us, 0.99);
    const ReplayTimes replay_b1 =
        replay_primitives(artifact, singles_.front().images, 400, tracer);
    out["device.b1_replay_us"] = replay_b1.sum_us();
    out["device.b1_unattributed_us"] =
        out["device.b1_infer_p50_us"] - replay_b1.sum_us();
    if (batched.failed + one.failed > 0) {
      throw Error("steady-state device passes gave " +
                  std::to_string(batched.failed + one.failed) +
                  " wrong or failed answers");
    }
  }

 private:
  struct Batch {
    std::vector<std::int64_t> indices;
    Tensor images;
  };

  Phase run(const std::vector<Batch>& batches, double seconds, Tracer& tracer,
            const char* span_name) {
    return closed_loop(seconds, [&](std::uint64_t id, Phase& phase) -> double {
      const Batch& b = batches[id % batches.size()];
      const auto rows = static_cast<std::int64_t>(b.indices.size());
      images_ += rows;
      const Clock::time_point t0 = Clock::now();
      try {
        Tensor logits;
        {
          Tracer::Span span(tracer, span_name, id);
          logits = device_->infer(b.images);
        }
        phase.latency_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        if (oracle_.count_matches(b.indices, logits) == rows) {
          return static_cast<double>(rows);
        }
        ++phase.failures["wrong answer"];
      } catch (const Error& e) {
        ++phase.failures[e.what()];
      }
      return 0.0;
    });
  }

  const Oracle& oracle_;
  std::unique_ptr<hw::FaultInjector> injector_;  // outlives the device's use
  std::unique_ptr<hw::TrustedDevice> device_;
  std::vector<Batch> batches_;
  std::vector<Batch> singles_;
  std::int64_t images_ = 0;
};

// ---- cold starts (serve-wide's traced run) ------------------------------

/// Length of the traced cold-start loop.
constexpr double kColdStartSeconds = 4.0;

/// Device cold starts in a closed loop, each from the ModelZoo object to a
/// first correct answer, one caller on one pool lane. End to end they did
/// not repeat between runs on a shared host: every span of a cold start
/// (SHA-256 in fetch_view, load_model, the self-test GEMMs) slows by the
/// same 1.5-1.7x in a vCPU's slow spell, and such spells come and go for
/// minutes (see README.md), so these give per-layer rows only.
class ColdStarts {
 public:
  ColdStarts(Artifact& artifact, const Oracle& oracle, const Options& options)
      : artifact_(artifact), oracle_(oracle), options_(options) {}

  Phase run(double seconds, Tracer& tracer) {
    Rng rng(options_.seed * 104729 + 1);
    agreement_.clear();
    return closed_loop(
        seconds, [&](std::uint64_t id, Phase& phase) -> double {
          const auto image = static_cast<std::int64_t>(
              rng.uniform_index(static_cast<std::uint64_t>(oracle_.size())));
          const Clock::time_point t0 = Clock::now();
          try {
            std::optional<ColdDevice> cold(std::in_place);
            const bool ok = cold_start(id, image, tracer, *cold);
            // A cold start ends at its first answer. Tearing the device
            // down (freeing its buffers, unmapping the artifact) follows
            // it and is its own span.
            phase.latency_ms.push_back(seconds_between(t0, Clock::now()) *
                                       1e3);
            {
              Tracer::Span span(tracer, "device.teardown", id);
              cold.reset();
            }
            if (ok) {
              return 1.0;
            }
            ++phase.failures["failed attestation or wrong first answer"];
          } catch (const Error& e) {
            ++phase.failures[e.what()];
          }
          return 0.0;
        });
  }

  /// Runs a traced cold-start loop, then the steady-state device passes;
  /// throws when any answer was wrong.
  void layer_metrics(Tracer& tracer, MetricMap& out) {
    Tracer off(false);
    (void)run(kWarmupSeconds, off);
    const Phase phase = run(kColdStartSeconds, tracer);
    if (phase.failed > 0) {
      throw Error("cold starts gave " + std::to_string(phase.failed) +
                  " failed attestations or wrong first answers");
    }
    out["coldstart.p50_ms"] = median(phase.latency_ms);
    out["zoo.fetch_view_us"] = median_span_us(tracer, "zoo.fetch_view");
    out["zoo.materialize_us"] = median_span_us(tracer, "zoo.materialize");
    out["device.provision_us"] = median_span_us(tracer, "device.provision");
    out["device.load_model_us"] = median_span_us(tracer, "device.load_model");
    out["device.self_test_us"] = median_span_us(tracer, "device.self_test");
    out["device.first_infer_us"] =
        median_span_us(tracer, "device.first_infer");
    out["device.attest_agreement"] = median(agreement_);
    out["device.teardown_us"] = median_span_us(tracer, "device.teardown");
    core::set_thread_count(0);  // the steady passes use the pool at nproc
    SteadyDevice(artifact_, oracle_, options_)
        .layer_metrics(artifact_, tracer, out);
  }

 private:
  /// What one cold start builds.
  struct ColdDevice {
    std::optional<obf::ArtifactView> view;
    obf::PublishedModel published;
    std::optional<hw::FaultInjector> injector;  // outlives the device's use
    std::unique_ptr<hw::TrustedDevice> device;
  };

  /// One device from the zoo object to a first answer, built into `cold`;
  /// true when the device attests and its first answer is the golden one
  /// bit for bit.
  bool cold_start(std::uint64_t op, std::int64_t image, Tracer& tracer,
                  ColdDevice& cold) {
    Tracer::Span root(tracer, "coldstart", op);
    auto& [view, published, injector, device] = cold;
    {
      Tracer::Span span(tracer, "zoo.fetch_view", op);
      view.emplace(artifact_.zoo->fetch_view(kModelId));
    }
    {
      Tracer::Span span(tracer, "zoo.materialize", op);
      published = view->materialize();
    }
    {
      Tracer::Span span(tracer, "device.provision", op);
      device = std::make_unique<hw::TrustedDevice>(artifact_.model_key,
                                                   artifact_.schedule_seed);
    }
    if (options_.inject_fault) {
      injector.emplace(accumulator_fault());
      device->attach_fault_injector(&*injector);
    }
    {
      Tracer::Span span(tracer, "device.load_model", op);
      device->load_model(published);
    }
    obf::AttestationResult attest;
    {
      Tracer::Span span(tracer, "device.self_test", op);
      attest = device->self_test(artifact_.challenge);
    }
    agreement_.push_back(attest.agreement);
    Tensor logits;
    {
      Tracer::Span span(tracer, "device.first_infer", op);
      logits = device->infer(oracle_.image(image));
    }
    // The golden logit digest is what catches faults that keep the argmax
    // (class agreement on the challenge is blind to them).
    return attest.passed && oracle_.count_matches({image}, logits) == 1;
  }

  Artifact& artifact_;
  const Oracle& oracle_;
  const Options& options_;
  std::vector<double> agreement_;
};

// ---- serve-open, serve-wide ----------------------------------------------

/// What one serving workload sends: seeded Poisson arrivals of requests of
/// `rows` images each.
struct Traffic {
  double arrivals_per_second = 0.0;
  std::int64_t rows = 1;
};

/// serve-open: 1-image requests. The daemon's capacity for them in this
/// configuration was ~2000/s on a quiet 4-vCPU host and about half that in
/// slow hours; at 1000/s a slow hour ran near capacity and p50 swung
/// 7.4-15.4 ms between runs. 500/s stays near half capacity in slow hours
/// too.
constexpr Traffic kOpenTraffic{500.0, 1};
/// serve-wide: the same 500 images/s as 4-image requests, so batches fill
/// by rows (two requests make the batcher's 8-row batch) instead of by
/// coalescing many requests, and device compute takes a larger share of
/// each request's latency than queueing, admission and session work.
constexpr Traffic kWideTraffic{125.0, 4};
constexpr double kSloMs = 20.0;
constexpr int kTenants = 4;

class ServeWorkload final : public ArtifactWorkload {
 public:
  /// With `device_layers`, the traced run also gives the cold-start and
  /// steady-state device rows (see ColdStarts).
  ServeWorkload(Options options, Traffic traffic, bool device_layers)
      : ArtifactWorkload(std::move(options)),
        traffic_(traffic),
        device_layers_(device_layers) {}

  void setup(Tracer& tracer) override {
    daemon_.reset();
    supervisor_.reset();
    ArtifactWorkload::setup(tracer);
    // Requests draw from fixed groups of `rows` images: a seeded shuffle
    // of the oracle's images, each in one group.
    std::vector<std::int64_t> order(static_cast<std::size_t>(oracle_->size()));
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<std::int64_t>(i);
    }
    Rng shuffle(options_.seed * 6151 + 1);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[shuffle.uniform_index(i)]);
    }
    groups_.clear();
    const auto rows = static_cast<std::size_t>(traffic_.rows);
    for (std::size_t first = 0; first + rows <= order.size(); first += rows) {
      Group group;
      group.indices.assign(order.begin() + static_cast<std::ptrdiff_t>(first),
                           order.begin() +
                               static_cast<std::ptrdiff_t>(first + rows));
      group.images = oracle_->batch(group.indices);
      groups_.push_back(std::move(group));
    }
    Tracer::Span span(tracer, "serve.start");
    // Thread budget: generator (this thread) + 2 daemon workers, each
    // computing inline on the one-lane pool set-up leaves, <= 4 vCPUs.
    serve::SupervisorConfig sc;
    sc.replicas = 2;
    if (options_.inject_fault) {
      sc.provision = [this](hw::TrustedDevice& device, std::size_t, bool) {
        std::lock_guard<std::mutex> lock(injectors_mutex_);
        injectors_.push_back(
            std::make_unique<hw::FaultInjector>(accumulator_fault()));
        device.attach_fault_injector(injectors_.back().get());
      };
    }
    supervisor_ = std::make_unique<serve::ServingSupervisor>(
        artifact_.master, kModelId, artifact_.published, artifact_.challenge,
        sc);
    serve::DaemonConfig dc;
    dc.workers = 2;
    dc.batcher.slo_p99_us = static_cast<std::uint64_t>(kSloMs * 1000.0);
    daemon_ = std::make_unique<serve::ServeDaemon>(*supervisor_,
                                                   artifact_.master, kModelId,
                                                   dc);
    daemon_->set_batch_observer(
        [this](const Tensor&, const serve::RequestResult& result,
               const std::vector<std::shared_ptr<serve::PendingRequest>>&
                   batch) {
          const std::int64_t classes = result.logits.dim(1);
          std::lock_guard<std::mutex> lock(answers_mutex_);
          std::int64_t row = 0;
          for (const auto& request : batch) {
            const float* first = result.logits.data() + row * classes;
            answers_[request.get()].assign(first,
                                           first + request->rows() * classes);
            row += request->rows();
          }
        });
    daemon_->start();
  }

  void warmup() override {
    Tracer off(false);
    (void)run(kWarmupSeconds, off);
  }

 private:
  struct Group {
    std::vector<std::int64_t> indices;
    Tensor images;
  };

  struct Request {
    double due_s = 0.0;
    std::size_t group = 0;
    std::string tenant;
    std::uint64_t due_us = 0;
    std::uint64_t submit_start_us = 0;
    std::uint64_t submit_end_us = 0;
    std::shared_ptr<serve::PendingRequest> pending;
  };

  /// What the phase's settled requests observed, layer by layer.
  struct Tally {
    explicit Tally(double seconds)
        : slices(seconds, kSliceSeconds) {}
    Slices slices;
    std::vector<double> queue_wait_ms, service_ms, rows, attempts, submit_us,
        lag_ms;
    std::uint64_t shed = 0;
    std::uint64_t queue_full = 0;
    std::uint64_t expired = 0;
  };

  static void fail(Phase& phase, const std::string& cause) {
    ++phase.failed;
    ++phase.failures[cause];
  }

  /// Waits for request `r` (the `k`-th of the phase), checks its answer
  /// against the oracle and records it.
  void settle(Request& r, std::size_t k, Phase& phase, Tally& tally,
              Tracer& tracer) {
    r.pending->wait();
    std::optional<serve::Reply> reply;
    try {
      reply = r.pending->take();
    } catch (const TimeoutError&) {
      ++tally.expired;
      fail(phase, "expired in queue");
    } catch (const Error& e) {
      fail(phase, e.what());
    }
    std::vector<float> logits;
    {
      std::lock_guard<std::mutex> lock(answers_mutex_);
      auto it = answers_.find(r.pending.get());
      if (it != answers_.end()) {
        logits = std::move(it->second);
        answers_.erase(it);
      }
    }
    const std::uint64_t enqueued = r.pending->enqueued_at_us();
    r.pending.reset();
    if (!reply) {
      return;
    }
    const std::vector<std::int64_t>& images = groups_[r.group].indices;
    const std::int64_t classes = oracle_->num_classes();
    bool ok = reply->classes.size() == images.size() &&
              static_cast<std::int64_t>(logits.size()) ==
                  classes * traffic_.rows;
    for (std::size_t i = 0; ok && i < images.size(); ++i) {
      ok = reply->classes[i] == oracle_->golden_class(images[i]) &&
           oracle_->matches(images[i],
                            logits.data() + static_cast<std::int64_t>(i) *
                                                classes);
    }
    const std::uint64_t done = enqueued + reply->latency_us;
    // Latency runs from the due time, so a generator stall is charged to
    // the requests it delayed.
    const double latency = static_cast<double>(done - r.due_us) / 1e3;
    phase.latency_ms.push_back(latency);
    tally.queue_wait_ms.push_back(static_cast<double>(reply->queue_wait_us) /
                                  1e3);
    tally.service_ms.push_back(
        static_cast<double>(reply->latency_us - reply->queue_wait_us) / 1e3);
    tally.rows.push_back(static_cast<double>(reply->batch_rows));
    tally.attempts.push_back(static_cast<double>(reply->attempts));
    if (!ok) {
      fail(phase, "wrong answer");
    } else if (latency <= kSloMs) {
      tally.slices.add(r.due_s, 1.0);
      phase.work += 1.0;
    }
    if (tracer.enabled()) {
      const std::uint64_t id = k + 1;
      const std::uint64_t root =
          tracer.add("request", static_cast<double>(r.due_us),
                     static_cast<double>(done), 0, id);
      tracer.add("daemon.submit", static_cast<double>(r.submit_start_us),
                 static_cast<double>(r.submit_end_us), root, id);
      tracer.add("daemon.queue_wait", static_cast<double>(enqueued),
                 static_cast<double>(enqueued + reply->queue_wait_us), root,
                 id);
      tracer.add("daemon.service",
                 static_cast<double>(enqueued + reply->queue_wait_us),
                 static_cast<double>(done), root, id);
    }
  }

 public:
  Phase run(double seconds, Tracer& tracer) override {
    // The schedule is a pure function of the seed and the phase index.
    Rng rng(options_.seed * 15485863 + (++phase_index_));
    std::vector<Request> requests;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.uniform()) / traffic_.arrivals_per_second;
      if (t >= seconds) {
        break;
      }
      Request r;
      r.due_s = t;
      r.group = rng.uniform_index(groups_.size());
      r.tenant = "tenant-" + std::to_string(rng.uniform_index(kTenants));
      requests.push_back(std::move(r));
    }

    Phase phase;
    Tally tally(seconds);
    core::SteadyClock& clock = core::SteadyClock::instance();
    const Clock::time_point start = Clock::now();
    const auto start_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            start.time_since_epoch())
            .count());
    // Answered requests are settled (checked and released) in arrival
    // order as the generator goes, so the run holds only what is in flight.
    std::deque<std::size_t> in_flight;
    for (std::size_t k = 0; k < requests.size(); ++k) {
      Request& r = requests[k];
      r.due_us = start_us + static_cast<std::uint64_t>(r.due_s * 1e6);
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(r.due_s)));
      r.submit_start_us = clock.now_us();
      tally.lag_ms.push_back(
          static_cast<double>(r.submit_start_us -
                              std::min(r.submit_start_us, r.due_us)) /
          1e3);
      ++phase.attempted;
      try {
        r.pending = daemon_->submit_async(r.tenant, groups_[r.group].images);
        in_flight.push_back(k);
      } catch (const AdmissionRejectedError&) {
        ++tally.shed;
        fail(phase, "shed by admission");
      } catch (const QueueFullError&) {
        ++tally.queue_full;
        fail(phase, "queue full");
      } catch (const Error& e) {
        fail(phase, e.what());
      }
      r.submit_end_us = clock.now_us();
      tally.submit_us.push_back(
          static_cast<double>(r.submit_end_us - r.submit_start_us));
      while (!in_flight.empty() &&
             requests[in_flight.front()].pending->done()) {
        settle(requests[in_flight.front()], in_flight.front(), phase, tally,
               tracer);
        in_flight.pop_front();
      }
    }
    for (; !in_flight.empty(); in_flight.pop_front()) {
      settle(requests[in_flight.front()], in_flight.front(), phase, tally,
             tracer);
    }
    phase.seconds = seconds;
    phase.rates = tally.slices.rates();

    layer_.clear();
    layer_["daemon.queue_wait_p50_ms"] = median(tally.queue_wait_ms);
    layer_["daemon.queue_wait_p99_ms"] = percentile(tally.queue_wait_ms, 0.99);
    layer_["daemon.service_p50_ms"] = median(tally.service_ms);
    layer_["daemon.service_p99_ms"] = percentile(tally.service_ms, 0.99);
    layer_["daemon.batch_rows_mean"] = mean(tally.rows);
    layer_["daemon.submit_us"] = median(tally.submit_us);
    layer_["daemon.shed"] = static_cast<double>(tally.shed);
    layer_["daemon.queue_full"] = static_cast<double>(tally.queue_full);
    layer_["daemon.expired"] = static_cast<double>(tally.expired);
    layer_["supervisor.attempts_per_request"] = mean(tally.attempts);
    layer_["gen.lag_p99_ms"] = percentile(tally.lag_ms, 0.99);
    layer_["gen.lag_max_ms"] = percentile(tally.lag_ms, 1.0);
    return phase;
  }

  void layer_metrics(const Phase&, Tracer& tracer, MetricMap& out) override {
    for (const auto& [name, value] : layer_) {
      out[name] = value;
    }
    if (device_layers_) {
      ColdStarts(artifact_, *oracle_, options_).layer_metrics(tracer, out);
    }
  }

 private:
  Traffic traffic_;
  bool device_layers_;
  std::vector<Group> groups_;
  std::mutex injectors_mutex_;
  std::vector<std::unique_ptr<hw::FaultInjector>> injectors_;
  std::mutex answers_mutex_;
  std::map<const serve::PendingRequest*, std::vector<float>> answers_;
  std::unique_ptr<serve::ServingSupervisor> supervisor_;
  // Declared after the supervisor: destroyed first, joining its workers.
  std::unique_ptr<serve::ServeDaemon> daemon_;
  std::uint64_t phase_index_ = 0;
  MetricMap layer_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "serve-open") {
    return std::make_unique<ServeWorkload>(options, kOpenTraffic, false);
  }
  if (options.workload == "serve-wide") {
    return std::make_unique<ServeWorkload>(options, kWideTraffic, true);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
