/// \file
/// The single public interface implemented by every online admission
/// algorithm, across all three commitment models (models/commitment.hpp).
/// The engine (sched/engine.hpp) feeds jobs in submission order; the
/// adversary (adversary/lower_bound_game.hpp) drives the same interface
/// interactively. Commit-on-arrival schedulers answer every on_arrival with
/// a binding accept/reject; deferred-commitment schedulers may answer
/// Decision::defer() and deliver the binding decision later through
/// advance_to.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "job/job.hpp"
#include "models/commitment.hpp"
#include "models/speed_profile.hpp"
#include "sched/decision.hpp"

namespace slacksched {

/// A decision rendered after its job's arrival by a deferred-commitment
/// scheduler, stamped with the simulated time it became binding, with the
/// ctx its job arrived with through on_tagged_arrival (0: on_arrival).
struct DeferredResolution {
  Job job;
  Decision decision;
  TimePoint decided_at = 0.0;
  std::uint64_t ctx = 0;
};

/// Interface of a deterministic (or internally randomized) online admission
/// algorithm. Implementations own all machine state. Jobs arrive with
/// non-decreasing release dates; on_arrival is called exactly once per job
/// at time job.release and the returned decision is binding — unless the
/// scheduler's commitment model allows deferral, in which case a deferred
/// job's binding decision is produced by advance_to.
class OnlineScheduler {
 public:
  virtual ~OnlineScheduler() = default;

  /// Decides the job that was just submitted (now == job.release). An
  /// accepting decision must name a machine in [0, machines()) and a start
  /// time >= job.release that respects previously committed work; the
  /// engine and validator verify this.
  virtual Decision on_arrival(const Job& job) = 0;

  /// on_arrival for a caller that routes deferred answers back: a
  /// deferring scheduler keeps `ctx` with the pending job and returns it in
  /// that job's DeferredResolution. The default never defers: it drops it.
  virtual Decision on_tagged_arrival(const Job& job, std::uint64_t ctx) {
    (void)ctx;
    return on_arrival(job);
  }

  /// Number of physical machines the algorithm schedules on.
  [[nodiscard]] virtual int machines() const = 0;

  /// Resets all internal state to an empty system.
  virtual void reset() = 0;

  /// Restores one previously committed allocation during crash recovery
  /// (service/recovery.hpp): bring internal state to exactly what it was
  /// after the original accepting on_arrival, without re-deciding. Called
  /// on a freshly reset() scheduler in original commit order. Returns
  /// false when the algorithm cannot reconstruct its state from the
  /// committed allocations alone (e.g. it carries hidden randomized
  /// state); recovery then fails rather than resuming with a diverged
  /// scheduler. The default is conservative: not restorable.
  virtual bool restore_commitment(const Job& job, int machine,
                                  TimePoint start) {
    (void)job;
    (void)machine;
    (void)start;
    return false;
  }

  /// Human-readable algorithm name for reports.
  [[nodiscard]] virtual std::string name() const = 0;

  /// The irrevocability contract this scheduler operates under. The
  /// default is the paper's model: commitment on arrival.
  [[nodiscard]] virtual CommitmentContract commitment_contract() const {
    return CommitmentContract{};
  }

  /// The machine-speed model, or nullptr for identical machines (the
  /// default). The pointed-to profile must outlive the scheduler's use.
  [[nodiscard]] virtual const SpeedProfile* speed_profile() const {
    return nullptr;
  }

  /// Advances a deferred-commitment scheduler's internal clock to `now`,
  /// appending every decision that became binding strictly before or at
  /// `now` to `resolved` in decision order. Commit-on-arrival schedulers
  /// never defer, so the default is a no-op. The engine calls this before
  /// each arrival (now = next release) and once at end of stream
  /// (now = kTimeInfinity).
  virtual void advance_to(TimePoint now,
                          std::vector<DeferredResolution>& resolved) {
    (void)now;
    (void)resolved;
  }

  // --- elastic capacity (policy/capacity_controller.hpp) ---
  //
  // A scheduler that supports elastic capacity can grow its machine pool
  // and drain machines for retirement at runtime. Grown machines extend
  // the physical index space (machines() grows, indices are never
  // renumbered); a retiring machine stops receiving new commitments while
  // its committed work drains, and only a fully drained machine finishes
  // retirement — so a resize can never break an accepted commitment. The
  // defaults describe a fixed pool: no support, every machine active.

  /// True iff this scheduler can add and retire machines at runtime.
  [[nodiscard]] virtual bool supports_elastic() const { return false; }

  /// Machines currently accepting new commitments; <= machines(). Equal to
  /// machines() for fixed-capacity schedulers.
  [[nodiscard]] virtual int active_machines() const { return machines(); }

  /// Adds one active machine and returns its physical index (reusing a
  /// retired index when one exists, else machines() before the call), or
  /// -1 when elastic capacity is unsupported.
  virtual int add_machine() { return -1; }

  /// Marks an active machine retiring: no new commitments land on it, its
  /// committed work keeps draining. Returns false when unsupported or the
  /// machine is not active.
  virtual bool begin_retire(int machine) {
    (void)machine;
    return false;
  }

  /// True iff a retiring machine has drained every committed allocation at
  /// time `now` and can safely finish retirement.
  [[nodiscard]] virtual bool retire_drained(int machine, TimePoint now) const {
    (void)machine;
    (void)now;
    return false;
  }

  /// Completes the retirement of a drained machine. Returns false when
  /// unsupported or the machine is not retiring.
  virtual bool finish_retire(int machine) {
    (void)machine;
    return false;
  }

  /// True iff `machine` is mid-retirement (begun, not yet finished). Lets
  /// a restarted shard rediscover an in-flight drain after WAL replay.
  [[nodiscard]] virtual bool is_retiring(int machine) const {
    (void)machine;
    return false;
  }

  /// The machine a shrink should drain (the least-loaded active machine),
  /// or -1 when unsupported. The caller write-ahead-logs this exact index,
  /// so replay retires the same machine.
  [[nodiscard]] virtual int retire_candidate() const { return -1; }

  /// Number of active machines with outstanding load at `now` — the
  /// numerator of the capacity controller's frontier utilization. 0 by
  /// default (fixed-capacity schedulers are never asked).
  [[nodiscard]] virtual int busy_machines(TimePoint now) const {
    (void)now;
    return 0;
  }
};

}  // namespace slacksched
