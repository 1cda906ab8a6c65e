#include "service/gateway.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/expects.hpp"
#include "service/metrics_exporter.hpp"

namespace slacksched {

namespace {

TraceEvent routing_event(JobId job_id, int home, int shard, Outcome kind) {
  TraceEvent event;
  event.job_id = job_id;
  event.home_shard = static_cast<std::int16_t>(home);
  event.shard = static_cast<std::int16_t>(shard);
  event.kind = kind;
  return event;  // latency_bin / fsync_class keep their no-value sentinels
}

bool is_power_of_two(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Producer-thread scratch of AdmissionGateway::submit_jobs, kept across
/// calls: in steady state the submission path makes no heap allocation.
struct SubmitScratch {
  std::vector<int> target_of;  ///< per home shard: resolved target
  /// Per target shard: the jobs grouped for it so far, then (after the
  /// counting sort) where its group begins in `order`.
  std::vector<std::uint32_t> group_pos;
  std::vector<int> target;          ///< per job: target shard, -1 if shed
  std::vector<std::int16_t> home;   ///< per job: the router's home shard
  std::vector<std::uint32_t> order;        ///< job indices, grouped
  std::vector<std::int16_t> order_home;    ///< parallel to `order`
  std::vector<Outcome> outcomes;  ///< submit_batch's, when it gets none
};

SubmitScratch& submit_scratch() {
  thread_local SubmitScratch scratch;
  return scratch;
}

}  // namespace

std::vector<std::string> GatewayConfig::validate() const {
  std::vector<std::string> errors;
  if (shards < 1) {
    errors.push_back("shards must be >= 1 (got " + std::to_string(shards) +
                     ")");
  }
  if (queue_capacity < 1) {
    errors.push_back("queue_capacity must be >= 1 (got 0)");
  } else if (!is_power_of_two(queue_capacity)) {
    errors.push_back("queue_capacity must be a power of two (got " +
                     std::to_string(queue_capacity) +
                     "): the lock-free ring would silently round up");
  }
  if (batch_size < 1) {
    errors.push_back("batch_size must be >= 1 (got 0)");
  }
  if (pop_timeout.count() < 1) {
    errors.push_back("pop_timeout must be >= 1ms (got " +
                     std::to_string(pop_timeout.count()) +
                     "ms): the worker would spin instead of heartbeating");
  }
  if (supervisor.enabled && pop_timeout >= supervisor.stall_threshold) {
    errors.push_back(
        "pop_timeout (" + std::to_string(pop_timeout.count()) +
        "ms) must stay below supervisor.stall_threshold (" +
        std::to_string(supervisor.stall_threshold.count()) +
        "ms): an idle worker would be declared degraded between wake-ups");
  }
  if (enable_tracing && !is_power_of_two(trace_capacity)) {
    errors.push_back("trace_capacity must be a power of two (got " +
                     std::to_string(trace_capacity) +
                     "): the ring would silently round up");
  }
  if (!metrics_textfile.empty() && metrics_period.count() < 1) {
    errors.push_back("metrics_period must be >= 1ms when metrics_textfile "
                     "is set (got " + std::to_string(metrics_period.count()) +
                     "ms): the publisher would busy-loop");
  }
  if (model.has_value()) {
    for (const std::string& problem : model->validate()) {
      errors.push_back("model (" + model->label() + "): " + problem);
    }
  }
  if (shed_policy.has_value()) {
    for (const std::string& problem : shed_policy->validate()) {
      errors.push_back("shed_policy: " + problem);
    }
  }
  if (elastic.has_value()) {
    for (const std::string& problem : elastic->validate()) {
      errors.push_back("elastic: " + problem);
    }
  }
  if (replication.has_value()) {
    if (wal_dir.empty()) {
      errors.push_back(
          "replication requires wal_dir: the replication stream is the "
          "commit log's write stream, and a gateway without a WAL has "
          "nothing to replicate");
    }
    for (const std::string& problem : replication->validate()) {
      errors.push_back("replication: " + problem);
    }
  }
  return errors;
}

bool GatewayResult::clean() const {
  return std::all_of(shards.begin(), shards.end(),
                     [](const RunResult& r) { return r.clean(); });
}

std::string GatewayResult::first_violation() const {
  for (const RunResult& r : shards) {
    if (!r.clean()) return r.commitment_violation;
  }
  return {};
}

AdmissionGateway::AdmissionGateway(const GatewayConfig& config)
    : AdmissionGateway(config, [&config]() -> ShardSchedulerFactory {
        // The selector is the whole point of this constructor: refusing a
        // disengaged model here (not in validate()) keeps the factory form
        // usable with a model-free config.
        SLACKSCHED_EXPECTS(config.model.has_value());
        return [model = *config.model](int) { return make_scheduler(model); };
      }()) {}

AdmissionGateway::AdmissionGateway(const GatewayConfig& config,
                                   const ShardSchedulerFactory& factory)
    : config_(config),
      metrics_(config.shards),
      router_(config.routing, config.shards) {
  // Reject invalid deployment shapes loudly instead of clamping them:
  // every problem in one message, so a misconfigured service names all
  // its sins at startup rather than one per restart.
  const std::vector<std::string> errors = config.validate();
  if (!errors.empty()) {
    std::string joined = "invalid GatewayConfig:";
    for (const std::string& e : errors) joined += "\n  - " + e;
    throw PreconditionError(joined);
  }
  SLACKSCHED_EXPECTS(factory != nullptr);
  ShardConfig shard_config;
  shard_config.queue_capacity = config.queue_capacity;
  shard_config.batch_size = config.batch_size;
  shard_config.record_decisions = config.record_decisions;
  shard_config.pop_timeout = config.pop_timeout;
  shard_config.wal_fsync = config.wal_fsync;
  shard_config.faults = config.fault_injector;
  shard_config.elastic = config.elastic;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  if (config.enable_tracing) {
    traces_.reserve(static_cast<std::size_t>(config.shards));
    for (int s = 0; s < config.shards; ++s) {
      // One shared seq counter across all rings: a multi-shard trace
      // merges into one total order with a sort (drain_trace()).
      traces_.push_back(
          std::make_unique<TraceRing>(config.trace_capacity, &trace_seq_));
    }
  }
  if (config.replication.has_value()) {
    // Replicators before shards: each shard's CommitLog attaches to its
    // replicator as an observer at open, inside Shard::start below.
    replicators_.reserve(static_cast<std::size_t>(config.shards));
    for (int s = 0; s < config.shards; ++s) {
      replicators_.push_back(
          std::make_unique<repl::ShardReplicator>(s, *config.replication));
    }
  }
  shards_.reserve(static_cast<std::size_t>(config.shards));
  for (int s = 0; s < config.shards; ++s) {
    if (!config.wal_dir.empty()) {
      shard_config.wal_path =
          config.wal_dir + "/shard-" + std::to_string(s) + ".wal";
    }
    shard_config.wal_observer =
        replicators_.empty() ? nullptr
                             : replicators_[static_cast<std::size_t>(s)].get();
    shard_config.trace =
        config.enable_tracing ? traces_[static_cast<std::size_t>(s)].get()
                              : nullptr;
    shard_config.pin_cpu =
        config.pin_shards ? static_cast<int>(static_cast<unsigned>(s) % cores)
                          : -1;
    if (config.on_decision) {
      shard_config.on_decision = [callback = config.on_decision, s](
                                     const Job& job, const Decision& decision,
                                     std::uint64_t route_ctx) {
        callback(s, job, decision, route_ctx);
      };
    }
    shards_.push_back(std::make_unique<Shard>(
        s, [factory, s] { return factory(s); }, shard_config, metrics_));
  }
  for (auto& shard : shards_) shard->start();
  supervisor_ = std::make_unique<ShardSupervisor>(shards_, config.supervisor);
  supervisor_->start();
  if (!config.metrics_textfile.empty()) {
    PublisherConfig publisher_config;
    publisher_config.path = config.metrics_textfile;
    publisher_config.period = config.metrics_period;
    publisher_ = std::make_unique<MetricsPublisher>(
        publisher_config, [this] { return render_prometheus(*this); });
    publisher_->start();
  }
}

AdmissionGateway::~AdmissionGateway() {
  supervisor_->stop();
  if (!finished_.load()) {
    for (auto& shard : shards_) shard->close();
    // ~Shard joins.
  }
}

int AdmissionGateway::resolve_target(int home) {
  if (supervisor_->available(home)) return home;
  if (!config_.enable_failover) return home;  // offer to the home anyway
  return router_.failover_target(
      home, [this](int s) { return supervisor_->available(s); });
}

Outcome AdmissionGateway::submit(const Job& job, std::uint64_t route_ctx) {
  Outcome outcome = Outcome::kRejectedClosed;
  (void)submit_jobs({&job, 1}, &outcome, {&route_ctx, 1});
  return outcome;
}

BatchSubmitResult AdmissionGateway::submit_batch(
    std::span<const Job> jobs, std::vector<Outcome>* statuses,
    std::span<const std::uint64_t> route_ctxs) {
  std::vector<Outcome>& out =
      statuses != nullptr ? *statuses : submit_scratch().outcomes;
  out.resize(jobs.size());
  return submit_jobs(jobs, out.data(), route_ctxs);
}

BatchSubmitResult AdmissionGateway::submit_jobs(
    std::span<const Job> jobs, Outcome* outcomes,
    std::span<const std::uint64_t> route_ctxs) {
  SLACKSCHED_EXPECTS(route_ctxs.empty() || route_ctxs.size() == jobs.size());
  BatchSubmitResult result;
  if (finished_.load(std::memory_order_acquire)) {
    std::fill_n(outcomes, jobs.size(), Outcome::kRejectedClosed);
    result.rejected_closed = jobs.size();
    return result;
  }
  // Pass 1: route every job, resolve each home shard's failover target
  // once (the availability view is sampled once per call), apply the
  // class-shed gate and count each target's group.
  SubmitScratch& scratch = submit_scratch();
  const auto shard_count = static_cast<std::size_t>(config_.shards);
  scratch.target_of.assign(shard_count, -2);  // -2: not yet resolved
  scratch.group_pos.assign(shard_count, 0);
  scratch.target.resize(jobs.size());
  scratch.home.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto home = static_cast<std::size_t>(router_.route(jobs[i]));
    if (scratch.target_of[home] == -2) {
      scratch.target_of[home] = resolve_target(static_cast<int>(home));
    }
    const int target = scratch.target_of[home];
    scratch.target[i] = target;
    scratch.home[i] = static_cast<std::int16_t>(home);
    if (target < 0) {
      ++result.rejected_retry_after;
      metrics_.on_degraded_reject(static_cast<int>(home));
      if (!traces_.empty()) {
        traces_[home]->record(
            routing_event(jobs[i].id, static_cast<int>(home), /*shard=*/-1,
                          Outcome::kRejectedRetryAfter));
      }
      outcomes[i] = Outcome::kRejectedRetryAfter;
      continue;
    }
    const auto t = static_cast<std::size_t>(target);
    if (target != static_cast<int>(home)) {
      metrics_.on_failover(static_cast<int>(home));
      if (!traces_.empty()) {
        traces_[t]->record(routing_event(jobs[i].id, static_cast<int>(home),
                                         target, Outcome::kFailover));
      }
    }
    // Class-aware shed gate, checked after failover resolution against
    // the occupancy the job would actually see: the ring's live depth plus
    // what this call already grouped for the target (a single huge batch
    // must not bypass the thresholds). A shed job never touches the queue.
    if (config_.shed_policy.has_value() &&
        config_.shed_policy->should_shed(
            jobs[i].criticality,
            shards_[t]->queue_size() + scratch.group_pos[t],
            config_.queue_capacity)) {
      ++result.rejected_criticality;
      metrics_.on_class_shed(target, jobs[i].criticality);
      if (!traces_.empty()) {
        traces_[t]->record(routing_event(jobs[i].id, static_cast<int>(home),
                                         target,
                                         Outcome::kRejectedCriticality));
      }
      outcomes[i] = Outcome::kRejectedCriticality;
      scratch.target[i] = -1;
      continue;
    }
    ++scratch.group_pos[t];
  }
  // Pass 2: lay the groups out back to back in shard order (a stable
  // counting sort), so each keeps submission order.
  std::uint32_t grouped = 0;
  for (std::uint32_t& pos : scratch.group_pos) {
    grouped += pos;
    pos = grouped;  // the group's end; the scatter below walks it back
  }
  scratch.order.resize(grouped);
  scratch.order_home.resize(grouped);
  for (std::size_t i = jobs.size(); i-- > 0;) {
    if (scratch.target[i] < 0) continue;
    const std::uint32_t at =
        --scratch.group_pos[static_cast<std::size_t>(scratch.target[i])];
    scratch.order[at] = static_cast<std::uint32_t>(i);
    scratch.order_home[at] = scratch.home[i];
  }
  // Pass 3: one push per non-empty group. group_pos[s] is now the
  // group's begin; the next shard's begin (or the total) is its end.
  const auto now = Shard::Clock::now();
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::uint32_t begin = scratch.group_pos[s];
    const std::uint32_t end =
        s + 1 < shard_count ? scratch.group_pos[s + 1] : grouped;
    if (begin == end) continue;
    const std::size_t count = end - begin;
    const Shard::BatchEnqueueResult pushed = shards_[s]->try_enqueue_batch(
        jobs.data(), scratch.order.data() + begin, count, now,
        scratch.order_home.data() + begin, route_ctxs);
    result.enqueued += pushed.taken;
    // A shed tail on a closed queue is not backpressure: the shard shut
    // down mid-batch, and the caller must treat the tail as unserviceable
    // rather than retryable-on-this-shard.
    const Outcome tail =
        pushed.closed ? Outcome::kRejectedClosed : Outcome::kRejectedQueueFull;
    (pushed.closed ? result.rejected_closed : result.rejected_queue_full) +=
        count - pushed.taken;
    for (std::size_t g = 0; g < count; ++g) {
      outcomes[scratch.order[begin + g]] =
          g < pushed.taken ? Outcome::kEnqueued : tail;
    }
  }
  return result;
}

MetricsSnapshot AdmissionGateway::metrics_snapshot() const {
  std::vector<std::size_t> depths;
  depths.reserve(shards_.size());
  for (const auto& shard : shards_) depths.push_back(shard->queue_size());
  return metrics_.snapshot(depths);
}

std::vector<TraceEvent> AdmissionGateway::drain_trace() {
  std::vector<TraceEvent> events;
  for (auto& ring : traces_) ring->drain(events);
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return events;
}

GatewayResult AdmissionGateway::finish() {
  SLACKSCHED_EXPECTS(!finished_.exchange(true, std::memory_order_acq_rel));
  supervisor_->stop();  // no restarts may race the shutdown below
  for (auto& shard : shards_) shard->close();
  for (auto& shard : shards_) shard->join();
  // Final publish after the shards quiesced: the textfile on disk ends
  // exactly equal to the counters GatewayResult reports.
  if (publisher_) publisher_->stop();

  GatewayResult result;
  result.shards.reserve(shards_.size());
  for (auto& shard : shards_) {
    if (shard->worker_failed()) {
      result.errors.push_back("shard " + std::to_string(shard->index()) +
                              ": " + shard->last_error());
    }
    result.shards.push_back(shard->take_result());
  }
  for (const RunResult& r : result.shards) {
    result.merged.submitted += r.metrics.submitted;
    result.merged.accepted += r.metrics.accepted;
    result.merged.rejected += r.metrics.rejected;
    result.merged.accepted_volume += r.metrics.accepted_volume;
    result.merged.rejected_volume += r.metrics.rejected_volume;
    result.merged.makespan = std::max(result.merged.makespan,
                                      r.metrics.makespan);
  }
  result.metrics = metrics_snapshot();
  return result;
}

}  // namespace slacksched
