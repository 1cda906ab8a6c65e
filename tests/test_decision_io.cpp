// Tests of decision-log serialization and offline schedule reconstruction
// (the audit path), plus fuzzing of both CSV parsers with garbage input.
#include "sched/decision_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "baselines/greedy.hpp"
#include "common/expects.hpp"
#include "common/rng.hpp"
#include "core/threshold.hpp"
#include "sched/validator.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace slacksched {
namespace {

RunResult sample_run(std::uint64_t seed, Instance* out_instance) {
  WorkloadConfig config;
  config.n = 200;
  config.eps = 0.1;
  config.arrival_rate = 3.0;
  config.seed = seed;
  *out_instance = generate_workload(config);
  ThresholdScheduler alg(0.1, 3);
  return run_online(alg, *out_instance);
}

TEST(DecisionIo, RoundTripReconstructsTheSchedule) {
  Instance instance;
  const RunResult run = sample_run(5, &instance);

  std::ostringstream out;
  write_decisions(out, run.decisions);
  std::istringstream in(out.str());
  const auto rows = read_decisions(in);
  ASSERT_EQ(rows.size(), run.decisions.size());

  const Schedule rebuilt = reconstruct_schedule(instance, rows, 3);
  EXPECT_DOUBLE_EQ(rebuilt.total_volume(), run.schedule.total_volume());
  EXPECT_EQ(rebuilt.job_count(), run.schedule.job_count());
  EXPECT_TRUE(validate_schedule(instance, rebuilt).ok);
}

TEST(DecisionIo, FileRoundTrip) {
  Instance instance;
  const RunResult run = sample_run(9, &instance);
  const std::string path = ::testing::TempDir() + "/slacksched_decisions.csv";
  write_decisions_file(path, run.decisions);
  const auto rows = read_decisions_file(path);
  EXPECT_EQ(rows.size(), run.decisions.size());
}

TEST(DecisionIo, RejectsBadHeader) {
  std::istringstream in("nope,accepted,machine,start\n1,1,0,0\n");
  EXPECT_THROW((void)read_decisions(in), PreconditionError);
}

TEST(DecisionIo, RejectsMalformedRows) {
  {
    std::istringstream in("id,accepted,machine,start\n1,1,0\n");
    EXPECT_THROW((void)read_decisions(in), PreconditionError);
  }
  {
    std::istringstream in("id,accepted,machine,start\n1,maybe,0,0\n");
    EXPECT_THROW((void)read_decisions(in), PreconditionError);
  }
  {
    std::istringstream in("id,accepted,machine,start\nx,1,0,0\n");
    EXPECT_THROW((void)read_decisions(in), PreconditionError);
  }
}

TEST(DecisionIo, ReconstructionRejectsUnknownJob) {
  Instance instance;
  (void)sample_run(5, &instance);
  std::vector<DecisionRow> rows{{999999, Decision::accept(0, 0.0)}};
  EXPECT_THROW((void)reconstruct_schedule(instance, rows, 3),
               PreconditionError);
}

TEST(DecisionIo, ReconstructionRejectsDuplicates) {
  Instance instance;
  const RunResult run = sample_run(5, &instance);
  std::vector<DecisionRow> rows;
  rows.push_back({run.decisions.front().job.id, Decision::reject()});
  rows.push_back({run.decisions.front().job.id, Decision::reject()});
  EXPECT_THROW((void)reconstruct_schedule(instance, rows, 3),
               PreconditionError);
}

TEST(DecisionIo, ReconstructionRejectsTamperedStart) {
  Instance instance;
  const RunResult run = sample_run(5, &instance);
  // Find an accepted decision and move its start past the deadline.
  for (const DecisionRecord& record : run.decisions) {
    if (!record.decision.accepted) continue;
    std::vector<DecisionRow> rows{
        {record.job.id,
         Decision::accept(record.decision.machine, record.job.deadline)}};
    EXPECT_THROW((void)reconstruct_schedule(instance, rows, 3),
                 PreconditionError);
    break;
  }
}

TEST(DecisionIo, ReconstructionRejectsOverlap) {
  Job a;
  a.id = 1;
  a.release = 0.0;
  a.proc = 4.0;
  a.deadline = 10.0;
  Job b = a;
  b.id = 2;
  const Instance instance({a, b});
  std::vector<DecisionRow> rows{{1, Decision::accept(0, 0.0)},
                                {2, Decision::accept(0, 2.0)}};
  EXPECT_THROW((void)reconstruct_schedule(instance, rows, 1),
               PreconditionError);
  // A non-finite start and a machine beyond the fleet are illegal too.
  for (const char* row : {"1,1,0,nan", "1,1,50000000,0"}) {
    std::istringstream in(std::string("id,accepted,machine,start\n") + row +
                          "\n");
    EXPECT_THROW((void)reconstruct_schedule(instance, read_decisions(in), 1),
                 PreconditionError)
        << row;
  }
}

// ---------- parser fuzzing ----------

std::string random_garbage(Rng& rng, std::size_t length) {
  static const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789,.-+eE \n\r\t\"'";
  std::string s;
  s.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    s += alphabet[static_cast<std::size_t>(
        rng.uniform_int(0, sizeof(alphabet) - 2))];
  }
  return s;
}

TEST(ParserFuzz, TraceReaderNeverCrashes) {
  Rng rng(0xf022);
  for (int trial = 0; trial < 300; ++trial) {
    std::istringstream in(random_garbage(rng, 200));
    try {
      (void)read_trace(in);
    } catch (const PreconditionError&) {
      // expected for malformed input
    }
  }
  SUCCEED();
}

TEST(ParserFuzz, DecisionReaderNeverCrashes) {
  Rng rng(0xf033);
  for (int trial = 0; trial < 300; ++trial) {
    // Half the trials get a valid header followed by garbage.
    std::string text = trial % 2 == 0 ? "id,accepted,machine,start\n" : "";
    text += random_garbage(rng, 200);
    std::istringstream in(text);
    try {
      (void)read_decisions(in);
    } catch (const PreconditionError&) {
    }
  }
  SUCCEED();
}

TEST(ParserFuzz, ValidPrefixThenGarbage) {
  Rng rng(0xf044);
  WorkloadConfig config;
  config.n = 5;
  const Instance instance = generate_workload(config);
  std::ostringstream valid;
  write_trace(valid, instance);
  for (int trial = 0; trial < 100; ++trial) {
    std::istringstream in(valid.str() + random_garbage(rng, 80));
    try {
      (void)read_trace(in);
    } catch (const PreconditionError&) {
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace slacksched
