// Tests of the event simulator and its stock observers, including the
// contract that the simulator's decisions/metrics are identical to the
// engine's for every scheduler.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "baselines/greedy.hpp"
#include "common/expects.hpp"
#include "core/threshold.hpp"
#include "models/model_factory.hpp"
#include "sched/timeline.hpp"
#include "sim/observers.hpp"
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

Instance tiny_instance() {
  return Instance({make_job(1, 0.0, 2.0, 10.0), make_job(2, 1.0, 1.0, 3.0),
                   make_job(3, 5.0, 2.0, 8.0)});
}

Instance overload_instance() {
  WorkloadConfig config = scenario("overload", 0.1, 17);
  config.n = 400;
  return generate_workload(config);
}

/// The five commitment-model points the simulator must reproduce: the
/// on-arrival Threshold on identical and on related machines, the greedy
/// on related machines, and the two deferred models.
std::vector<ModelConfig> model_points() {
  ModelConfig threshold;
  threshold.machines = 3;
  threshold.eps = 0.1;
  ModelConfig threshold_speeds = threshold;
  threshold_speeds.speeds = {1.0, 2.0, 0.5};
  ModelConfig greedy_speeds = threshold_speeds;
  greedy_speeds.arrival = ArrivalPolicy::kGreedyBestFit;
  ModelConfig delta = threshold;
  delta.model = CommitModel::kDelta;
  delta.delta = 0.5;
  ModelConfig admission = threshold;
  admission.model = CommitModel::kOnAdmission;
  return {threshold, threshold_speeds, greedy_speeds, delta, admission};
}

TEST(Simulator, MatchesEngineDecisionsAndMetrics) {
  const Instance inst = overload_instance();
  for (const ModelConfig& point : model_points()) {
    SCOPED_TRACE(point.label() + (point.speeds.empty() ? "" : " with speeds"));
    const std::unique_ptr<OnlineScheduler> alg = make_scheduler(point);
    const RunResult engine_result = run_online(*alg, inst);
    Simulator simulator(*alg);
    const RunResult sim_result = simulator.run(inst);

    ASSERT_EQ(sim_result.decisions.size(), engine_result.decisions.size());
    for (std::size_t i = 0; i < sim_result.decisions.size(); ++i) {
      EXPECT_EQ(sim_result.decisions[i].job, engine_result.decisions[i].job);
      EXPECT_EQ(sim_result.decisions[i].decision,
                engine_result.decisions[i].decision);
    }
    const RunMetrics& a = sim_result.metrics;
    const RunMetrics& b = engine_result.metrics;
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.accepted_volume, b.accepted_volume);
    EXPECT_EQ(a.rejected_volume, b.rejected_volume);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(sim_result.commitment_violation,
              engine_result.commitment_violation);
    EXPECT_TRUE(sim_result.clean()) << sim_result.commitment_violation;
    EXPECT_GT(sim_result.metrics.accepted, 0u);
  }
}

TEST(Simulator, EventStreamIsTimeOrdered) {
  GreedyScheduler alg(2);
  Simulator simulator(alg);
  EventLogObserver log;
  simulator.add_observer(&log);
  (void)simulator.run(tiny_instance());

  ASSERT_FALSE(log.events().empty());
  for (std::size_t i = 1; i < log.events().size(); ++i) {
    EXPECT_GE(log.events()[i].time + kTimeEps, log.events()[i - 1].time)
        << "event " << i << ": " << log.events()[i].to_string();
  }
}

void expect_event_counts_match_outcomes(OnlineScheduler& alg,
                                        const Instance& inst) {
  Simulator simulator(alg);
  EventLogObserver log;
  simulator.add_observer(&log);
  const RunResult result = simulator.run(inst);

  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t started = 0;
  std::size_t completed = 0;
  TimePoint last = 0.0;
  std::map<JobId, TimePoint> started_at;
  for (const SimEvent& event : log.events()) {
    EXPECT_GE(event.time + kTimeEps, last) << event.to_string();
    last = event.time;
    switch (event.type) {
      case SimEventType::kSubmitted:
        ++submitted;
        break;
      case SimEventType::kAccepted:
        ++accepted;
        break;
      case SimEventType::kRejected:
        ++rejected;
        break;
      case SimEventType::kStarted:
        ++started;
        started_at[event.job.id] = event.time;
        break;
      case SimEventType::kCompleted:
        ++completed;
        // One execution time, at the machine's speed, after the start.
        ASSERT_EQ(started_at.count(event.job.id), 1u) << event.to_string();
        EXPECT_EQ(event.time, started_at[event.job.id] +
                                  result.schedule.exec_time(event.machine,
                                                            event.job.proc))
            << event.to_string();
        break;
    }
  }
  EXPECT_EQ(submitted, result.metrics.submitted);
  EXPECT_EQ(accepted, result.metrics.accepted);
  EXPECT_EQ(rejected, result.metrics.rejected);
  EXPECT_EQ(started, accepted);
  EXPECT_EQ(completed, accepted);
}

TEST(Simulator, EventCountsMatchOutcomes) {
  GreedyScheduler alg(1);
  expect_event_counts_match_outcomes(alg, tiny_instance());
  const Instance inst = overload_instance();
  for (const ModelConfig& point : model_points()) {
    SCOPED_TRACE(point.label() + (point.speeds.empty() ? "" : " with speeds"));
    expect_event_counts_match_outcomes(*make_scheduler(point), inst);
  }
}

TEST(Simulator, CompletionPrecedesArrivalAtSameInstant) {
  // Job 1 runs [0, 2); job 2 arrives exactly at 2. The completion event
  // must be delivered before the submission event.
  const Instance inst({make_job(1, 0.0, 2.0, 5.0), make_job(2, 2.0, 1.0, 5.0)});
  GreedyScheduler alg(1);
  Simulator simulator(alg);
  EventLogObserver log;
  simulator.add_observer(&log);
  (void)simulator.run(inst);

  int completed_index = -1;
  int second_submit_index = -1;
  for (std::size_t i = 0; i < log.events().size(); ++i) {
    const SimEvent& e = log.events()[i];
    if (e.type == SimEventType::kCompleted && e.job.id == 1) {
      completed_index = static_cast<int>(i);
    }
    if (e.type == SimEventType::kSubmitted && e.job.id == 2) {
      second_submit_index = static_cast<int>(i);
    }
  }
  ASSERT_GE(completed_index, 0);
  ASSERT_GE(second_submit_index, 0);
  EXPECT_LT(completed_index, second_submit_index);
}

TEST(Simulator, MirrorStreamWrites) {
  std::ostringstream os;
  GreedyScheduler alg(1);
  Simulator simulator(alg);
  EventLogObserver log(&os);
  simulator.add_observer(&log);
  (void)simulator.run(tiny_instance());
  EXPECT_NE(os.str().find("submitted"), std::string::npos);
  EXPECT_NE(os.str().find("completed"), std::string::npos);
}

TEST(Simulator, RejectsNullObserver) {
  GreedyScheduler alg(1);
  Simulator simulator(alg);
  EXPECT_THROW(simulator.add_observer(nullptr), PreconditionError);
}

TEST(UtilizationObserver, MatchesScheduleUtilization) {
  WorkloadConfig config;
  config.n = 300;
  config.eps = 0.2;
  config.arrival_rate = 3.0;
  config.seed = 5;
  const Instance inst = generate_workload(config);

  GreedyScheduler alg(2);
  Simulator simulator(alg);
  UtilizationObserver util(2);
  simulator.add_observer(&util);
  const RunResult result = simulator.run(inst);

  EXPECT_NEAR(util.average_utilization(),
              utilization(result.schedule, result.metrics.makespan), 1e-6);
  EXPECT_GE(util.peak_running(), 1);
  EXPECT_LE(util.peak_running(), 2);
  EXPECT_NEAR(util.busy_machine_time(), result.metrics.accepted_volume, 1e-6);
}

TEST(UtilizationObserver, ReusableAcrossRuns) {
  GreedyScheduler alg(1);
  Simulator simulator(alg);
  UtilizationObserver util(1);
  simulator.add_observer(&util);
  (void)simulator.run(tiny_instance());
  const double first = util.average_utilization();
  (void)simulator.run(tiny_instance());
  EXPECT_DOUBLE_EQ(util.average_utilization(), first);
}

TEST(BacklogObserver, PeakTracksAcceptedWork) {
  // Two jobs accepted back to back at t = 0: peak backlog is their sum.
  const Instance inst({make_job(1, 0.0, 2.0, 10.0),
                       make_job(2, 0.0, 3.0, 10.0)});
  GreedyScheduler alg(1);
  Simulator simulator(alg);
  BacklogObserver backlog;
  simulator.add_observer(&backlog);
  (void)simulator.run(inst);
  EXPECT_DOUBLE_EQ(backlog.peak_backlog(), 5.0);
  EXPECT_GT(backlog.average_backlog(), 0.0);
  EXPECT_LE(backlog.average_backlog(), 5.0);
}

TEST(AcceptanceRateObserver, WindowsCoverTheRun) {
  WorkloadConfig config = scenario("overload", 0.05, 3);
  config.n = 500;
  const Instance inst = generate_workload(config);
  ThresholdScheduler alg(0.05, 2);
  Simulator simulator(alg);
  AcceptanceRateObserver acceptance(10.0);
  simulator.add_observer(&acceptance);
  const RunResult result = simulator.run(inst);

  ASSERT_FALSE(acceptance.rates().empty());
  for (double rate : acceptance.rates()) {
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0 + 1e-9);
  }
  // Roughly one window per 10 time units of the horizon.
  EXPECT_GE(acceptance.rates().size(),
            static_cast<std::size_t>(result.metrics.makespan / 10.0));
}

TEST(AcceptanceRateObserver, RejectsBadWindow) {
  EXPECT_THROW(AcceptanceRateObserver(0.0), PreconditionError);
}

TEST(SimEvent, ToStringMentionsTypeAndJob) {
  SimEvent event;
  event.type = SimEventType::kStarted;
  event.time = 1.5;
  event.job = make_job(9, 0.0, 1.0, 2.0);
  event.machine = 1;
  const std::string s = event.to_string();
  EXPECT_NE(s.find("started"), std::string::npos);
  EXPECT_NE(s.find("J9"), std::string::npos);
  EXPECT_NE(s.find("m1"), std::string::npos);
}

}  // namespace
}  // namespace slacksched
