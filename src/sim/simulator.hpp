// The event simulator: runs an OnlineScheduler over an instance through
// the engine's StreamingRunner (sched/engine.hpp), so decisions, legality
// checks, deferral, machine speeds, metrics and halting are the engine's
// own, and additionally materializes each applied decision as events
// (submitted, accepted/rejected at the decision time, started, completed)
// delivered as one time-ordered stream to registered observers.
#pragma once

#include <vector>

#include "job/instance.hpp"
#include "sched/engine.hpp"
#include "sim/observer.hpp"

namespace slacksched {

/// Orchestrates one observable run.
class Simulator {
 public:
  explicit Simulator(OnlineScheduler& scheduler);

  /// Registers an observer (not owned; must outlive run()).
  void add_observer(SimObserver* observer);

  /// Runs the scheduler over the instance, streaming events to the
  /// observers. Returns exactly run_online's RunResult, for every
  /// scheduler — deferred-commitment and related-machine ones included.
  RunResult run(const Instance& instance);

 private:
  OnlineScheduler& scheduler_;
  std::vector<SimObserver*> observers_;
};

}  // namespace slacksched
