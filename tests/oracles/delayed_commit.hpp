/// \file
/// Commitment-on-admission event simulator (the weaker commitment model of
/// the early admission-control literature, e.g. Goldwasser '99 and Lee '03):
/// the scheduler only commits to a job when it actually starts it, so a
/// submitted job may wait in a queue and be silently dropped if its latest
/// start time passes.
///
/// Test-only oracle: the library's streaming form of this model is
/// DeltaCommitScheduler with commit_on_admission = true
/// (models/delta_commit.hpp), driven by run_online.
/// tests/test_model_equivalence.cpp pins the two schedule for schedule, so
/// this file keeps its own event loop and queue pick on purpose.
///
/// Substitution note (see DESIGN.md): Lee's exact multi-machine algorithm is
/// not specified in this paper; this queue-based greedy realizes the same
/// commitment model and serves as the commitment-model comparison point.
#pragma once

#include "job/instance.hpp"
#include "models/delta_commit.hpp"
#include "sched/metrics.hpp"
#include "sched/schedule.hpp"

namespace slacksched {

/// Result of a delayed-commitment run.
struct DelayedCommitResult {
  Schedule schedule;
  RunMetrics metrics;
};

/// Simulates the commitment-on-admission queue scheduler on m machines.
[[nodiscard]] DelayedCommitResult run_delayed_commit(
    const Instance& instance, int machines,
    QueuePolicy policy = QueuePolicy::kEdf);

}  // namespace slacksched
