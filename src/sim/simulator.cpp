#include "sim/simulator.hpp"

#include <queue>

#include "common/expects.hpp"

namespace slacksched {

std::string to_string(SimEventType type) {
  switch (type) {
    case SimEventType::kSubmitted:
      return "submitted";
    case SimEventType::kAccepted:
      return "accepted";
    case SimEventType::kRejected:
      return "rejected";
    case SimEventType::kStarted:
      return "started";
    case SimEventType::kCompleted:
      return "completed";
  }
  return "unknown";
}

std::string SimEvent::to_string() const {
  std::string s = "[t=" + std::to_string(time) + "] " +
                  slacksched::to_string(type) + " " + job.to_string();
  if (machine >= 0) s += " on m" + std::to_string(machine);
  return s;
}

Simulator::Simulator(OnlineScheduler& scheduler) : scheduler_(scheduler) {}

void Simulator::add_observer(SimObserver* observer) {
  SLACKSCHED_EXPECTS(observer != nullptr);
  observers_.push_back(observer);
}

namespace {

/// A queued start or completion, ordered by (time, kind, sequence). At
/// equal time a completion precedes a start, and both precede the
/// submission and decision events of that instant (emitted once the queue
/// is drained up to it): a machine frees before the next arrival at the
/// same instant sees it, mirroring the engine's outstanding-load
/// convention.
struct PendingEvent {
  SimEvent event;
  std::size_t sequence;
};

struct PendingCompare {
  bool operator()(const PendingEvent& a, const PendingEvent& b) const {
    if (a.event.time != b.event.time) return a.event.time > b.event.time;
    const bool a_start = a.event.type == SimEventType::kStarted;
    const bool b_start = b.event.type == SimEventType::kStarted;
    if (a_start != b_start) return a_start;
    return a.sequence > b.sequence;
  }
};

}  // namespace

RunResult Simulator::run(const Instance& instance) {
  for (SimObserver* observer : observers_) observer->on_start();

  std::priority_queue<PendingEvent, std::vector<PendingEvent>,
                      PendingCompare>
      queue;
  std::size_t sequence = 0;
  auto emit = [&](const SimEvent& event) {
    for (SimObserver* observer : observers_) observer->on_event(event);
  };
  auto drain_until = [&](TimePoint time) {
    while (!queue.empty() && queue.top().event.time <= time + kTimeEps) {
      const SimEvent event = queue.top().event;
      queue.pop();
      emit(event);
    }
  };

  // Every decision, check, deferral and count comes from the engine; this
  // loop only turns the applied decisions into events.
  StreamingRunner runner(scheduler_);
  runner.reserve_decisions(instance.size());
  auto decided = [&](const Job& job, const Decision& decision,
                     TimePoint decided_at) {
    drain_until(decided_at);
    SimEvent outcome;
    outcome.time = decided_at;
    outcome.job = job;
    if (!decision.accepted) {
      outcome.type = SimEventType::kRejected;
      emit(outcome);
      return;
    }
    outcome.type = SimEventType::kAccepted;
    outcome.machine = decision.machine;
    outcome.start = decision.start;
    emit(outcome);

    SimEvent started = outcome;
    started.type = SimEventType::kStarted;
    started.time = decision.start;
    queue.push({started, sequence++});
    SimEvent completed = outcome;
    completed.type = SimEventType::kCompleted;
    completed.time = decision.start + runner.result().schedule.exec_time(
                                          decision.machine, job.proc);
    queue.push({completed, sequence++});
  };
  runner.set_resolution_hook([&](const DeferredResolution& resolved) {
    decided(resolved.job, resolved.decision, resolved.decided_at);
  });

  for (const Job& job : instance.jobs()) {
    // Deferred decisions that became binding before this arrival reach
    // `decided` from inside feed(), ahead of the submission event.
    const FeedOutcome fed = runner.feed(job);
    if (!fed.decided) break;
    drain_until(job.release);
    SimEvent submitted;
    submitted.type = SimEventType::kSubmitted;
    submitted.time = job.release;
    submitted.job = job;
    emit(submitted);
    if (fed.legal && !fed.decision.deferred) {
      decided(job, fed.decision, job.release);
    }
    if (runner.halted()) break;
  }
  RunResult result = runner.finish();
  drain_until(kTimeInfinity);

  for (SimObserver* observer : observers_) observer->on_finish(result.metrics);
  return result;
}

}  // namespace slacksched
