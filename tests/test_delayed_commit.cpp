#include "oracles/delayed_commit.hpp"

#include <gtest/gtest.h>

#include "common/expects.hpp"
#include "sched/validator.hpp"
#include "workload/generators.hpp"

namespace slacksched {
namespace {

Job make_job(JobId id, TimePoint r, Duration p, TimePoint d) {
  Job j;
  j.id = id;
  j.release = r;
  j.proc = p;
  j.deadline = d;
  return j;
}

TEST(DelayedCommit, RunsSingleJob) {
  const Instance inst({make_job(1, 0.0, 2.0, 5.0)});
  const auto result = run_delayed_commit(inst, 1);
  EXPECT_EQ(result.metrics.accepted, 1u);
  EXPECT_DOUBLE_EQ(result.metrics.accepted_volume, 2.0);
  EXPECT_TRUE(validate_schedule(inst, result.schedule).ok);
}

TEST(DelayedCommit, WaitsInsteadOfRejecting) {
  // Immediate commitment would have to reject the second job (machine busy
  // until 4, deadline 6 < 4 + 3); commitment on admission can wait: the
  // machine frees at 4 and the job still makes its deadline 8.
  const Instance inst({make_job(1, 0.0, 4.0, 10.0),
                       make_job(2, 0.0, 3.0, 8.0)});
  const auto result = run_delayed_commit(inst, 1);
  EXPECT_EQ(result.metrics.accepted, 2u);
}

TEST(DelayedCommit, DropsJobsWhoseLatestStartPasses) {
  // Job 2 arrives while the machine is already busy until 4; its latest
  // start (1.0) passes in the queue, so it is implicitly rejected.
  const Instance inst({make_job(1, 0.0, 4.0, 10.0),
                       make_job(2, 0.5, 3.0, 4.0)});
  const auto result = run_delayed_commit(inst, 1);
  EXPECT_EQ(result.metrics.accepted, 1u);
  EXPECT_EQ(result.metrics.rejected, 1u);
  EXPECT_DOUBLE_EQ(result.metrics.rejected_volume, 3.0);
}

TEST(DelayedCommit, EdfPrefersUrgentJob) {
  // Two jobs queued while the machine is busy; EDF starts the earlier
  // deadline first when the machine frees.
  const Instance inst({make_job(1, 0.0, 2.0, 10.0),
                       make_job(2, 0.5, 2.0, 20.0),
                       make_job(3, 0.5, 2.0, 6.0)});
  const auto result = run_delayed_commit(inst, 1, QueuePolicy::kEdf);
  const auto p3 = result.schedule.find(3);
  const auto p2 = result.schedule.find(2);
  ASSERT_TRUE(p3.has_value());
  ASSERT_TRUE(p2.has_value());
  EXPECT_LT(p3->start, p2->start);
}

TEST(DelayedCommit, LargestFirstPrefersVolume) {
  const Instance inst({make_job(1, 0.0, 2.0, 10.0),
                       make_job(2, 0.5, 1.0, 20.0),
                       make_job(3, 0.5, 3.0, 20.0)});
  const auto result =
      run_delayed_commit(inst, 1, QueuePolicy::kLargestFirst);
  const auto p3 = result.schedule.find(3);
  const auto p2 = result.schedule.find(2);
  ASSERT_TRUE(p3.has_value());
  ASSERT_TRUE(p2.has_value());
  EXPECT_LT(p3->start, p2->start);
}

TEST(DelayedCommit, AccountsEveryJob) {
  WorkloadConfig config;
  config.n = 500;
  config.eps = 0.05;
  config.arrival_rate = 5.0;
  config.seed = 2718;
  const Instance inst = generate_workload(config);
  for (QueuePolicy policy : {QueuePolicy::kEdf, QueuePolicy::kLargestFirst,
                             QueuePolicy::kLeastSlackFirst}) {
    const auto result = run_delayed_commit(inst, 2, policy);
    EXPECT_EQ(result.metrics.accepted + result.metrics.rejected,
              result.metrics.submitted)
        << to_string(policy);
    EXPECT_NEAR(
        result.metrics.accepted_volume + result.metrics.rejected_volume,
        inst.total_volume(), 1e-6)
        << to_string(policy);
    EXPECT_TRUE(validate_schedule(inst, result.schedule).ok)
        << to_string(policy);
  }
}

TEST(DelayedCommit, MultiMachineUsesAllMachines) {
  const Instance inst({make_job(1, 0.0, 4.0, 8.0), make_job(2, 0.0, 4.0, 8.0),
                       make_job(3, 0.0, 4.0, 8.0)});
  const auto result = run_delayed_commit(inst, 3);
  EXPECT_EQ(result.metrics.accepted, 3u);
  EXPECT_DOUBLE_EQ(result.metrics.makespan, 4.0);
}

TEST(DelayedCommit, EmptyInstance) {
  const auto result = run_delayed_commit(Instance{}, 2);
  EXPECT_EQ(result.metrics.submitted, 0u);
  EXPECT_DOUBLE_EQ(result.metrics.accepted_volume, 0.0);
}

TEST(DelayedCommit, RejectsBadMachineCount) {
  EXPECT_THROW((void)run_delayed_commit(Instance{}, 0), PreconditionError);
}

TEST(DelayedCommit, PolicyNames) {
  EXPECT_EQ(to_string(QueuePolicy::kEdf), "edf");
  EXPECT_EQ(to_string(QueuePolicy::kLargestFirst), "largest-first");
  EXPECT_EQ(to_string(QueuePolicy::kLeastSlackFirst), "least-slack");
}

}  // namespace
}  // namespace slacksched
