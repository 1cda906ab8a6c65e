/// \file
/// One shard of the admission gateway: an independent machine group owned
/// by its own OnlineScheduler instance and consumer thread. The shard
/// replays its queue in FIFO order through the engine's StreamingRunner —
/// literally the same code path as run_online (decision recording,
/// commitment-legality check, halt-on-violation rule) — so a single-shard
/// gateway is byte-identical to the sequential engine. With decision
/// recording disabled the consumer loop accumulates metrics reserve-free
/// and allocation-free outside the committed schedule.
///
/// One mutator at a time: whoever holds the shard's baton (a mutex) is the
/// only thread touching the scheduler, the runner and the consumer-side
/// state. The consumer thread parks without it and takes it for each batch
/// it pops; a producer may take it instead, through a run-to-completion
/// try_enqueue_batch(), to decide one job on its own thread when the shard
/// is idle, so the decision costs no cross-thread wake-up.
///
/// Crash safety (optional, enabled by ShardConfig::wal_path): every
/// accepted commitment is appended to a per-shard commit log *before* it is
/// applied in memory, the worker publishes a heartbeat the supervisor
/// (service/supervisor.hpp) watches, and a crashed worker can be restarted
/// in place — the replacement replays the log, rebuilds the committed
/// schedule and the scheduler's frontiers, and resumes consuming the same
/// queue. Commitments never migrate between shards: a restart resumes the
/// same machine group from its own durable log.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "policy/capacity_controller.hpp"
#include "sched/engine.hpp"
#include "sched/online.hpp"
#include "service/bounded_queue.hpp"
#include "service/commit_log.hpp"
#include "service/fault_injection.hpp"
#include "service/metrics_registry.hpp"
#include "service/outcome.hpp"
#include "service/trace_ring.hpp"

namespace slacksched {

/// Builds (or rebuilds, on restart) the shard's scheduler instance.
using SchedulerFactory = std::function<std::unique_ptr<OnlineScheduler>()>;

/// Per-decision notification hook (see ShardConfig::on_decision).
/// `route_ctx` is the opaque per-job token the producer passed to
/// try_enqueue_batch (0 when none): the network front end
/// stores a reply-slot token there, naming both the event loop that owns
/// the submitting connection and the slot holding that submission's
/// reply address, so a decision goes straight back to its submitter.
using ShardDecisionCallback = std::function<void(
    const Job& job, const Decision& decision, std::uint64_t route_ctx)>;

/// Per-shard knobs (the gateway fills these from its own config).
struct ShardConfig {
  std::size_t queue_capacity = 4096;
  std::size_t batch_size = 256;
  /// Record per-job DecisionRecords (disable for multi-million-job benches
  /// where only metrics and the committed schedule matter).
  bool record_decisions = true;
  /// Longest the worker sleeps on an empty queue before waking to publish
  /// a heartbeat; must stay well below the supervisor's stall threshold.
  std::chrono::milliseconds pop_timeout{50};
  /// CPU to pin the consumer thread to (-1: unpinned). Only honored on
  /// Linux (pthread_setaffinity_np); elsewhere it is a documented no-op —
  /// pinning is a locality hint, never a correctness requirement.
  int pin_cpu = -1;
  /// Path of this shard's durable commit log; empty disables the WAL (and
  /// with it restartability — the original in-memory-only behavior).
  std::string wal_path;
  FsyncPolicy wal_fsync = FsyncPolicy::kBatch;
  /// Optional write-side observer of the shard's commit log — the
  /// replication leader hook (replication/replicator.hpp). Not owned; must
  /// outlive the shard. Wired into every CommitLog the shard opens,
  /// including the ones restarts reopen.
  CommitLogObserver* wal_observer = nullptr;
  /// Optional deterministic fault injector shared across the gateway.
  FaultInjector* faults = nullptr;
  /// Optional decision trace ring (owned by the gateway). When set, the
  /// consumer records one TraceEvent per rendered decision; recording is
  /// drop-on-full and never blocks the decision path.
  TraceRing* trace = nullptr;
  /// Optional per-decision notification, invoked after each rendered, legal
  /// decision has been validated, counted and traced. It runs on the
  /// shard's consumer thread, or on the submitting thread for a
  /// run-to-completion job (try_enqueue_batch); never on two at once for
  /// one shard, always in decision (FIFO) order. Runs on the decision hot
  /// path: must be fast and must not throw.
  ShardDecisionCallback on_decision;
  /// Optional elastic machine pool (policy/capacity_controller.hpp). When
  /// set and the shard's scheduler supports elastic capacity, the consumer
  /// thread runs the capacity control loop between batches: grows the pool
  /// under sustained high utilization or shedding, drains a machine for
  /// retirement under sustained low utilization. Every applied resize is
  /// write-ahead-logged as a control record, so WAL replay reproduces the
  /// exact machine count at every point of the log. Ignored (with the
  /// original fixed-pool behavior) when the scheduler is not elastic.
  std::optional<CapacityControllerConfig> elastic;
};

/// An independent scheduler + queue + consumer thread.
class Shard {
 public:
  using Clock = std::chrono::steady_clock;

  /// Outcome of a batched enqueue: how many of the offered jobs were
  /// taken, and whether the refusal of the tail (if any) was because the
  /// queue is closed rather than full.
  struct BatchEnqueueResult {
    std::size_t taken = 0;
    bool closed = false;
  };

  Shard(int index, SchedulerFactory factory, const ShardConfig& config,
        MetricsRegistry& metrics);

  /// Closes and joins if the owner forgot to.
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Spawns the consumer thread (running recovery first when a WAL is
  /// configured and a log already exists). Must be called exactly once.
  void start();

  /// The only enqueue: pushes jobs[indices[0..count)] in order with one
  /// claim on the ring (a single job is a batch of one). Non-blocking. The
  /// accepted prefix is counted as enqueued; a shed tail is counted as
  /// backpressure only when the queue was full, not when it was closed
  /// (the shard is gone, not busy). An armed FaultSite::kEnqueue fires
  /// once per call and refuses all `count` jobs as a full queue.
  /// `homes`, when non-null, carries the router's home shard for each
  /// offered job (parallel to `indices`; null means "this shard"), which
  /// trace events record. `route_ctxs` is empty (every job's context is 0)
  /// or indexed like `jobs`: job jobs[indices[i]] travels with
  /// route_ctxs[indices[i]] and is echoed to on_decision.
  ///
  /// With `run_to_completion` set and `count == 1`, the job is first
  /// offered to the calling thread: when the shard is idle it is decided
  /// on the spot, exactly as the consumer would decide a batch of one
  /// (same process/publish path, crash points and capacity control), so
  /// on_decision fires before this returns, and it counts as taken. The
  /// shard is idle when the baton is free (try_lock), the ring is empty
  /// (claimed-but-unpublished cells count), the queue is open, the worker
  /// is alive and there is no commit log — a WAL's sync_batch may fsync or
  /// wait for a follower's ack, and a caller such as an event loop must
  /// never block on disk or network. Otherwise the job takes the ring. An
  /// exception while deciding fails the shard exactly as a crashing
  /// consumer does (worker_failed(), last_error()) and never reaches the
  /// caller; the job is then lost undecided, like a popped batch, and the
  /// parked consumer exits on its next wake (within pop_timeout).
  [[nodiscard]] BatchEnqueueResult try_enqueue_batch(
      const Job* jobs, const std::uint32_t* indices, std::size_t count,
      Clock::time_point now, const std::int16_t* homes = nullptr,
      std::span<const std::uint64_t> route_ctxs = {},
      bool run_to_completion = false);

  /// Closes the queue: producers start failing, the consumer drains the
  /// backlog and exits.
  void close();

  /// Joins the consumer thread. Safe without close() only when the worker
  /// has already exited (crashed or drained).
  void join();

  /// Restarts a dead worker in place: joins the old thread if needed,
  /// reopens the queue, rebuilds the scheduler, replays the commit log and
  /// spawns a fresh consumer that resumes from the recovered state.
  /// Returns false (with the reason in last_error()) when recovery fails;
  /// the shard then stays down. Requires a configured WAL — without one a
  /// crashed shard's commitments are unrecoverable and restart refuses.
  [[nodiscard]] bool restart();

  /// The shard's run outcome; only valid after join(). When the worker
  /// crashed, take_result() reconstructs the durable truth by replaying
  /// the commit log (the in-memory result died with the worker).
  [[nodiscard]] const RunResult& result() const;
  [[nodiscard]] RunResult take_result();

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] std::size_t queue_size() const { return queue_.size(); }
  [[nodiscard]] bool queue_closed() const { return queue_.closed(); }
  /// FUTEX_WAKEs producers issued to this shard's parked consumer.
  [[nodiscard]] std::uint64_t queue_wakeups() const {
    return queue_.wakeups();
  }
  [[nodiscard]] const OnlineScheduler& scheduler() const {
    return *scheduler_;
  }

  /// The machine currently draining for retirement (-1 when none).
  /// Baton-holder state exposed for tests; racy reads are benign.
  [[nodiscard]] int retiring_machine() const { return retiring_machine_; }

  // --- supervision surface (service/supervisor.hpp) ---
  /// Monotone progress counter the worker bumps on every wake-up and every
  /// processed job; a supervisor that sees it unchanged past the stall
  /// threshold declares the shard degraded.
  [[nodiscard]] std::uint64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_relaxed);
  }
  /// True once the worker died on an exception (injected fault, I/O error,
  /// scheduler bug). The queue stays open; jobs keep buffering until the
  /// supervisor restarts the shard or routes around it.
  [[nodiscard]] bool worker_failed() const {
    return worker_failed_.load(std::memory_order_acquire);
  }
  /// True once the worker thread has returned (cleanly or not).
  [[nodiscard]] bool worker_exited() const {
    return worker_exited_.load(std::memory_order_acquire);
  }
  /// Description of the worker's fatal error (empty when none).
  [[nodiscard]] std::string last_error() const;

 private:
  struct Task {
    Job job;
    Clock::time_point enqueued_at;
    std::int16_t home = -1;  ///< router's home shard (trace provenance)
    std::uint64_t route_ctx = 0;  ///< producer's context, echoed on decide
  };

  /// Builds scheduler + runner (+ WAL recovery when configured) and spawns
  /// the worker thread. Throws when recovery fails.
  void spawn(bool is_restart);
  void worker_loop();
  /// The run-to-completion half of try_enqueue_batch: decides `task` on
  /// the calling thread and returns true, or returns false having touched
  /// nothing when the shard is not idle.
  bool decide_inline(const Task& task);
  /// The one batch routine, for a popped batch and for a run-to-completion
  /// job alike; the caller holds the baton.
  void run_batch(const Task* batch, std::size_t count);
  /// One turn of the elastic control loop (baton holder, after each
  /// batch): finish a drained retirement, feed the controller one
  /// observation, apply its grow/shrink decision, WAL the resize.
  void run_capacity_control();
  void process(const Task& task);
  /// The one tail of every rendered decision, immediate or resolved:
  /// metrics, trace event, then the on_decision notification.
  void publish_decision(const Job& job, const Decision& decision,
                        std::int16_t home, double latency_seconds,
                        std::uint64_t route_ctx);
  void set_error(std::string message);

  int index_;
  ShardConfig config_;
  SchedulerFactory factory_;
  MetricsRegistry& metrics_;
  BoundedMpscQueue<Task> queue_;
  /// Held by the one thread mutating the shard's decision state: the
  /// consumer for each popped batch, a producer for a run-to-completion
  /// job, and start/restart while they rebuild it.
  std::mutex baton_;
  /// Consumer-thread scratch: the popped Task batch is staged in this
  /// per-shard arena, whose block is reused across batches — the steady
  /// state of the consumer loop performs zero heap allocations. Pointers
  /// into the arena never escape the batch that popped them.
  MonotonicArena batch_arena_;
  std::unique_ptr<OnlineScheduler> scheduler_;
  std::unique_ptr<CommitLog> wal_;
  std::optional<StreamingRunner> runner_;
  /// Machine count the factory's scheduler starts with — the count in the
  /// WAL header. Elastic resizes grow scheduler_->machines() past it, so
  /// every header check after recovery must use this, not the live count.
  int wal_initial_machines_ = 0;
  /// Elastic control loop state; touched only under the baton.
  std::optional<CapacityController> controller_;
  int retiring_machine_ = -1;  ///< machine mid-drain, -1 when none
  /// Latest release time fed to the engine — the simulated "now" frontier
  /// utilization and drain checks are evaluated at.
  TimePoint sim_now_ = 0.0;
  /// The registry's ingest counts at the controller's last observation:
  /// each observation's window is the delta since then.
  MetricsRegistry::IngestCounts window_base_;
  RunResult result_;  ///< taken from runner_ when the consumer exits
  bool started_ = false;
  bool joined_ = false;
  std::thread worker_;

  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> worker_failed_{false};
  std::atomic<bool> worker_exited_{false};
  mutable std::mutex error_mutex_;
  std::string last_error_;
};

}  // namespace slacksched
