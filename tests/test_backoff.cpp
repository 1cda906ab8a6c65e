// Pins the three backoff schedules built on common/backoff.hpp: shard
// restarts (SupervisorConfig::restart_delay), follower probes
// (FailoverConfig::probe_delay) and client retries (RetryPolicy::delay).
// The expected tables were recorded from each caller's own implementation
// before they shared the primitive, so any drift in growth, capping,
// jitter or seed mixing shows up as a changed delay.

#include <chrono>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/backoff.hpp"
#include "net/admission_client.hpp"
#include "replication/failover.hpp"
#include "service/supervisor.hpp"

namespace slacksched {
namespace {

using std::chrono::milliseconds;

std::vector<std::int64_t> counts(int attempts, auto&& delay) {
  std::vector<std::int64_t> out;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    out.push_back(delay(attempt).count());
  }
  return out;
}

TEST(Backoff, FlooredAtOneMillisecondAndCapped) {
  for (int attempt = 1; attempt <= 40; ++attempt) {
    const milliseconds d =
        backoff_delay(milliseconds(0), 2.0, milliseconds(100), attempt, 7);
    EXPECT_EQ(d, milliseconds(1));
    const milliseconds big =
        backoff_delay(milliseconds(10), 3.0, milliseconds(100), attempt,
                      static_cast<std::uint64_t>(attempt));
    EXPECT_GE(big, milliseconds(1));
    EXPECT_LE(big, milliseconds(100));
  }
}

TEST(Backoff, SupervisorRestartScheduleIsPinned) {
  struct Row {
    SupervisorConfig config;
    std::vector<std::int64_t> shard0;
    std::vector<std::int64_t> shard3;
  };
  SupervisorConfig tuned;
  tuned.backoff_initial = milliseconds(7);
  tuned.backoff_factor = 1.5;
  tuned.backoff_max = milliseconds(300);
  tuned.jitter_seed = 42;
  SupervisorConfig steep;
  steep.backoff_initial = milliseconds(1);
  steep.backoff_factor = 3.0;
  steep.backoff_max = milliseconds(50);
  steep.jitter_seed = 0;
  const std::vector<Row> rows = {
      {SupervisorConfig{},
       {8, 18, 27, 52, 158, 239, 429, 674, 564, 607, 868, 598},
       {7, 16, 21, 47, 144, 282, 501, 911, 576, 621, 909, 571}},
      {tuned,
       {6, 6, 8, 20, 26, 52, 78, 91, 116, 258, 175, 287},
       {5, 10, 10, 18, 28, 32, 64, 69, 156, 136, 277, 250}},
      {steep,
       {1, 2, 5, 19, 34, 43, 34, 40, 42, 25, 32, 39},
       {1, 1, 5, 22, 38, 37, 39, 27, 40, 32, 47, 36}},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(counts(12, [&](int a) { return row.config.restart_delay(0, a); }),
              row.shard0);
    EXPECT_EQ(counts(12, [&](int a) { return row.config.restart_delay(3, a); }),
              row.shard3);
  }
}

TEST(Backoff, FailoverProbeScheduleIsPinned) {
  repl::FailoverConfig tuned;
  tuned.backoff_initial = milliseconds(3);
  tuned.backoff_factor = 3.0;
  tuned.backoff_max = milliseconds(500);
  tuned.jitter_seed = 7;
  repl::FailoverConfig gentle;
  gentle.backoff_initial = milliseconds(1);
  gentle.backoff_factor = 1.25;
  gentle.backoff_max = milliseconds(20);
  gentle.jitter_seed = 0;
  const auto probe = [](const repl::FailoverConfig& config) {
    return counts(12, [&](int a) { return config.probe_delay(a); });
  };
  EXPECT_EQ(probe(repl::FailoverConfig{}),
            (std::vector<std::int64_t>{6, 18, 23, 75, 107, 258, 629, 701, 761,
                                       510, 882, 504}));
  EXPECT_EQ(probe(tuned),
            (std::vector<std::int64_t>{2, 7, 13, 53, 191, 442, 354, 382, 341,
                                       375, 266, 433}));
  EXPECT_EQ(probe(gentle),
            (std::vector<std::int64_t>{1, 1, 1, 1, 1, 2, 2, 3, 5, 3, 6, 9}));
}

TEST(Backoff, ClientRetryScheduleIsPinned) {
  net::RetryPolicy tuned;
  tuned.initial_delay = milliseconds(5);
  tuned.factor = 2.5;
  tuned.max_delay = milliseconds(400);
  tuned.jitter_seed = 99;
  net::RetryPolicy flat;
  flat.initial_delay = milliseconds(1);
  flat.factor = 1.0;
  flat.max_delay = milliseconds(1);
  flat.jitter_seed = 0;
  const auto retry = [](const net::RetryPolicy& policy, std::uint32_t hint) {
    return counts(10, [&](int a) { return policy.delay(a, hint); });
  };
  using V = std::vector<std::int64_t>;
  EXPECT_EQ(retry(net::RetryPolicy{}, 0),
            (V{1, 3, 4, 15, 21, 51, 125, 175, 190, 127}));
  EXPECT_EQ(retry(net::RetryPolicy{}, 40),
            (V{40, 40, 40, 40, 40, 51, 125, 175, 190, 127}));
  EXPECT_EQ(retry(tuned, 0), (V{2, 11, 16, 43, 124, 346, 226, 227, 360, 339}));
  EXPECT_EQ(retry(tuned, 40),
            (V{40, 40, 40, 43, 124, 346, 226, 227, 360, 339}));
  EXPECT_EQ(retry(flat, 0), (V{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}));
  EXPECT_EQ(retry(flat, 40), (V{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}));
}

}  // namespace
}  // namespace slacksched
