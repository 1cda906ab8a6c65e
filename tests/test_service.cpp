// Tests for the service subsystem: the shard router, the metrics
// registry, and the gateway's backpressure and violation semantics. The
// bounded MPSC queue has its own torture/differential suite in
// tests/test_bounded_queue.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "baselines/greedy.hpp"
#include "sched/validator.hpp"
#include "service/gateway.hpp"
#include "workload/generators.hpp"

// Heap allocations made by the calling thread: the steady-state
// submission test counts its own thread only, so shard consumers and
// other tests' threads cannot disturb it.
namespace {
thread_local std::uint64_t t_heap_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++t_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Every unaligned form is replaced, so each allocation and its release
// pair up as malloc/free (sanitizers check that pairing).
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_heap_allocs;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

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

// ---------- ShardRouter ----------

TEST(Router, RoundRobinCycles) {
  ShardRouter router(RoutingPolicy::kRoundRobin, 3);
  Job j = make_job(1, 0.0, 1.0, 2.0);
  std::vector<int> seen;
  for (int i = 0; i < 7; ++i) seen.push_back(router.route(j));
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 0, 1, 2, 0}));
  router.reset();
  EXPECT_EQ(router.route(j), 0);
}

TEST(Router, HashIsDeterministicAndInRange) {
  ShardRouter a(RoutingPolicy::kHash, 5);
  ShardRouter b(RoutingPolicy::kHash, 5);
  for (JobId id = 0; id < 1000; ++id) {
    const Job j = make_job(id, 0.0, 1.0, 2.0);
    const int shard = a.route(j);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 5);
    EXPECT_EQ(shard, b.route(j));  // order/state independent
  }
}

TEST(Router, HashSpreadsSequentialIds) {
  ShardRouter router(RoutingPolicy::kHash, 4);
  std::vector<int> counts(4, 0);
  for (JobId id = 0; id < 4000; ++id) {
    ++counts[static_cast<std::size_t>(
        router.route(make_job(id, 0.0, 1.0, 2.0)))];
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);  // roughly balanced (expected 1000 per shard)
    EXPECT_LT(c, 1300);
  }
}

TEST(Router, SingleShardAlwaysZero) {
  ShardRouter router(RoutingPolicy::kHash, 1);
  EXPECT_EQ(router.route(make_job(123456, 0.0, 1.0, 2.0)), 0);
}

// ---------- MetricsRegistry ----------

TEST(MetricsRegistry, CountsAndAggregates) {
  MetricsRegistry registry(2);
  registry.on_enqueued(0, 3, /*depth=*/3);
  registry.on_enqueued(1, 1, /*depth=*/1);
  registry.on_backpressure(0, 2);
  registry.on_batch(0);
  registry.on_decision(0, 5.0, true, 1e-5);
  registry.on_decision(0, 2.0, false, 1e-4);
  registry.on_decision(1, 1.5, true, 1e-3);

  // The live depths come from the rings: shard 0 drained, shard 1 not.
  const std::array<std::size_t, 2> depths{0, 1};
  const MetricsSnapshot snap = registry.snapshot(depths);
  ASSERT_EQ(snap.shards.size(), 2u);
  EXPECT_EQ(snap.shards[0].enqueued, 3u);
  EXPECT_EQ(snap.shards[0].backpressure_rejected, 2u);
  EXPECT_EQ(snap.shards[0].peak_queue_depth, 3u);
  EXPECT_EQ(snap.shards[0].queue_depth, 0u);
  EXPECT_EQ(snap.shards[1].queue_depth, 1u);
  EXPECT_EQ(snap.total.queue_depth, 1u);
  EXPECT_EQ(snap.shards[0].accepted, 1u);
  EXPECT_EQ(snap.shards[0].rejected, 1u);
  EXPECT_DOUBLE_EQ(snap.shards[0].accepted_volume, 5.0);
  EXPECT_DOUBLE_EQ(snap.shards[0].rejected_volume, 2.0);
  EXPECT_EQ(snap.shards[0].batches, 1u);

  EXPECT_EQ(snap.total.enqueued, 4u);
  EXPECT_EQ(snap.total.submitted, 3u);
  EXPECT_EQ(snap.total.accepted, 2u);
  EXPECT_EQ(snap.total.backpressure_rejected, 2u);
  EXPECT_DOUBLE_EQ(snap.total.accepted_volume, 6.5);

  // Every decision landed in the merged latency histogram.
  EXPECT_EQ(snap.admit_latency.total_count(), 3u);
}

TEST(MetricsRegistry, LatencyClampsIntoRange) {
  MetricsRegistry registry(1);
  registry.on_decision(0, 1.0, true, 0.0);    // below the lowest edge
  registry.on_decision(0, 1.0, true, 100.0);  // above the highest edge
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.admit_latency.total_count(), 2u);
  EXPECT_EQ(snap.admit_latency.count_in_bin(0), 1u);
  EXPECT_EQ(snap.admit_latency.count_in_bin(kAdmitLatencyBins - 1), 1u);
}

TEST(MetricsRegistry, SnapshotCopiesLatencyBinsExactly) {
  // Regression: snapshot() used to rebuild the merged histogram by
  // depositing synthetic values at geometric bin centers — a lossy float
  // round trip one ULP away from the wrong bin. Depositing exactly on
  // every bin's lower edge is the adversarial case: any re-search that
  // rounds down by one ULP lands the count one bin too low.
  MetricsRegistry registry(2);
  const Histogram reference = Histogram::logarithmic(
      kAdmitLatencyLo, kAdmitLatencyHi, kAdmitLatencyBins);
  for (std::size_t bin = 0; bin < kAdmitLatencyBins; ++bin) {
    const double edge = reference.bin_range(bin).first;
    EXPECT_EQ(registry.latency_bin(edge), bin);
    registry.on_decision(static_cast<int>(bin % 2), 1.0, true, edge);
  }
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.admit_latency.total_count(), kAdmitLatencyBins);
  for (std::size_t bin = 0; bin < kAdmitLatencyBins; ++bin) {
    EXPECT_EQ(snap.admit_latency.count_in_bin(bin), 1u)
        << "count deposited in bin " << bin << " leaked to a neighbor";
  }
}

TEST(MetricsRegistry, PeakQueueDepthAggregatesAsMaxNotSum) {
  // Regression: the aggregate peak used to SUM per-shard high-water
  // marks, reporting a backlog that never existed at any single instant.
  MetricsRegistry registry(2);
  registry.on_enqueued(0, 3, /*depth=*/3);  // shard 0 peak: 3
  registry.on_batch(0);
  registry.on_enqueued(0, 1, /*depth=*/1);  // shallower: the peak stays
  registry.on_enqueued(1, 5, /*depth=*/5);  // shard 1 peak: 5
  registry.on_batch(1);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.shards[0].peak_queue_depth, 3u);
  EXPECT_EQ(snap.shards[1].peak_queue_depth, 5u);
  EXPECT_EQ(snap.total.peak_queue_depth, 5u);
  EXPECT_EQ(snap.total.queue_depth, 0u);
}

TEST(MetricsRegistry, LatencySumAccumulatesPerShardAndTotal) {
  MetricsRegistry registry(2);
  registry.on_decision(0, 1.0, true, 1e-5);
  registry.on_decision(0, 1.0, false, 2e-5);
  registry.on_decision(1, 1.0, true, 5e-4);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.shards[0].latency_sum_seconds, 3e-5);
  EXPECT_DOUBLE_EQ(snap.shards[1].latency_sum_seconds, 5e-4);
  EXPECT_DOUBLE_EQ(snap.total.latency_sum_seconds, 3e-5 + 5e-4);
}

// ---------- gateway: backpressure ----------

/// Accept-everything scheduler that burns wall time per decision, so a
/// fast producer outruns the consumer and hits the bounded queue.
class SlowScheduler final : public OnlineScheduler {
 public:
  Decision on_arrival(const Job& job) override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const TimePoint start = std::max(frontier_, job.release);
    frontier_ = start + job.proc;
    return Decision::accept(0, start);
  }
  int machines() const override { return 1; }
  void reset() override { frontier_ = 0.0; }
  std::string name() const override { return "Slow"; }

 private:
  TimePoint frontier_ = 0.0;
};

TEST(Gateway, QueueFullIsExplicitNeverSilent) {
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 2;  // tiny on purpose
  config.batch_size = 2;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<SlowScheduler>(); });

  const int n = 200;
  int enqueued = 0;
  int shed = 0;
  for (JobId id = 0; id < n; ++id) {
    // Loose deadlines: the slow scheduler accepts whatever arrives.
    const Outcome status =
        gateway.submit(make_job(id, 0.0, 1.0, 1e9));
    if (status == Outcome::kEnqueued) {
      ++enqueued;
    } else {
      ASSERT_EQ(status, Outcome::kRejectedQueueFull);
      EXPECT_NE(describe(status).find("backpressure"), std::string::npos);
      ++shed;
    }
  }
  // The producer outruns a 200us-per-decision consumer through a 2-slot
  // queue: some jobs must be shed, and every job is accounted for.
  EXPECT_GT(shed, 0);
  EXPECT_EQ(enqueued + shed, n);

  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.metrics.total.backpressure_rejected,
            static_cast<std::size_t>(shed));
  EXPECT_EQ(result.metrics.total.enqueued, static_cast<std::size_t>(enqueued));
  // Everything enqueued was decided; nothing vanished.
  EXPECT_EQ(result.merged.submitted, static_cast<std::size_t>(enqueued));
}

TEST(Gateway, SubmitAfterFinishIsRejectedClosed) {
  GatewayConfig config;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });
  (void)gateway.finish();
  EXPECT_EQ(gateway.submit(make_job(1, 0.0, 1.0, 5.0)),
            Outcome::kRejectedClosed);
  std::vector<Outcome> statuses;
  const std::vector<Job> jobs{make_job(2, 0.0, 1.0, 5.0)};
  const BatchSubmitResult batch = gateway.submit_batch(jobs, &statuses);
  EXPECT_EQ(batch.rejected_closed, 1u);
  EXPECT_EQ(statuses[0], Outcome::kRejectedClosed);
}

// ---------- gateway: multi-shard processing ----------

TEST(Gateway, HashRoutedShardsProcessEverything) {
  WorkloadConfig wconfig;
  wconfig.n = 3000;
  wconfig.seed = 11;
  const Instance instance = generate_workload(wconfig);

  GatewayConfig config;
  config.shards = 4;
  config.routing = RoutingPolicy::kHash;
  config.queue_capacity = std::bit_ceil(instance.size());  // no shedding here
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });

  const BatchSubmitResult batch = gateway.submit_batch(instance.jobs());
  EXPECT_EQ(batch.enqueued, instance.size());
  EXPECT_EQ(batch.rejected_queue_full, 0u);

  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.merged.submitted, instance.size());
  EXPECT_EQ(result.merged.accepted + result.merged.rejected, instance.size());

  // Each shard's committed schedule is independently legal against the
  // merged instance (placed jobs are a subset with identical parameters).
  std::size_t decisions = 0;
  for (const RunResult& shard : result.shards) {
    EXPECT_TRUE(validate_schedule(instance, shard.schedule).ok);
    decisions += shard.decisions.size();
  }
  EXPECT_EQ(decisions, instance.size());  // every job decided exactly once

  // The live registry agrees with the merged engine metrics.
  EXPECT_EQ(result.metrics.total.submitted, result.merged.submitted);
  EXPECT_EQ(result.metrics.total.accepted, result.merged.accepted);
  EXPECT_DOUBLE_EQ(result.metrics.total.accepted_volume,
                   result.merged.accepted_volume);
  EXPECT_EQ(result.metrics.total.queue_depth, 0u);
  EXPECT_EQ(result.metrics.admit_latency.total_count(),
            result.merged.submitted);
}

TEST(Gateway, ConcurrentProducersAccountForEveryJob) {
  GatewayConfig config;
  config.shards = 2;
  config.routing = RoutingPolicy::kHash;
  config.queue_capacity = 64;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::atomic<std::size_t> enqueued{0};
  std::atomic<std::size_t> shed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&gateway, &enqueued, &shed, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const JobId id = static_cast<JobId>(p * kPerProducer + i);
        const Outcome status =
            gateway.submit(make_job(id, 0.0, 1.0, 1e9));
        if (status == Outcome::kEnqueued) {
          ++enqueued;
        } else {
          ++shed;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(enqueued + shed, kProducers * kPerProducer);
  EXPECT_EQ(result.merged.submitted, enqueued.load());
  EXPECT_EQ(result.metrics.total.backpressure_rejected, shed.load());
}

/// Drives a 1-shard gateway (capacity 64) from 4 producers, mixing single
/// submissions and small batches, while sampling metrics_snapshot(). The
/// ring is the only depth source, so every sampled depth and the final
/// peak must stay within the capacity however producers and the consumer
/// interleave.
void expect_depth_within_capacity(const ShardSchedulerFactory& factory,
                                  bool saturates) {
  constexpr std::size_t kCapacity = 64;
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = kCapacity;
  AdmissionGateway gateway(config, factory);

  constexpr int kProducers = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> offered{0};
  std::atomic<std::size_t> enqueued{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      JobId id = static_cast<JobId>(p) << 32;
      std::vector<Job> batch;
      while (!stop.load(std::memory_order_relaxed)) {
        if (gateway.submit(make_job(id++, 0.0, 1.0, 1e9)) ==
            Outcome::kEnqueued) {
          ++enqueued;
        }
        batch.clear();
        for (int k = 0; k < 5; ++k) {
          batch.push_back(make_job(id++, 0.0, 1.0, 1e9));
        }
        enqueued += gateway.submit_batch(batch).enqueued;
        offered += 1 + batch.size();
      }
    });
  }
  std::size_t samples = 0;
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(150);
  while (std::chrono::steady_clock::now() < until) {
    const MetricsSnapshot snap = gateway.metrics_snapshot();
    ASSERT_LE(snap.shards[0].queue_depth, kCapacity);
    ASSERT_LE(snap.total.queue_depth, kCapacity);
    ASSERT_LE(snap.total.peak_queue_depth, kCapacity);
    ++samples;
  }
  stop = true;
  for (auto& t : producers) t.join();
  const GatewayResult result = gateway.finish();
  EXPECT_GT(samples, 0u);
  if (saturates) {
    EXPECT_GT(result.metrics.total.backpressure_rejected, 0u)
        << "the producers never filled the queue";
  }
  EXPECT_GT(result.metrics.total.peak_queue_depth, 0u);
  EXPECT_LE(result.metrics.total.peak_queue_depth, kCapacity);
  EXPECT_EQ(result.metrics.total.queue_depth, 0u);
  EXPECT_EQ(result.metrics.total.enqueued, enqueued.load());
  EXPECT_EQ(result.metrics.total.enqueued +
                result.metrics.total.backpressure_rejected,
            offered.load());
}

TEST(Gateway, QueueDepthNeverExceedsCapacityUnderConcurrentProducers) {
  // A slow consumer keeps the ring full: the peak meets the capacity and
  // must not pass it.
  expect_depth_within_capacity(
      [](int) { return std::make_unique<SlowScheduler>(); },
      /*saturates=*/true);
}

TEST(Gateway, QueueDepthNeverWrapsWhenTheConsumerRacesProducers) {
  // A fast consumer often pops a job before its producer has counted the
  // push. The old shadow counter went negative there, and the peak it
  // raised wrapped to 2^64 - 1.
  expect_depth_within_capacity(
      [](int) { return std::make_unique<GreedyScheduler>(2); },
      /*saturates=*/false);
}

TEST(Gateway, SteadyStateSubmissionMakesNoHeapAllocation) {
  // submit() and submit_batch() share one body whose grouping scratch is
  // kept per producer thread: once it is sized, ingest allocates nothing.
  GatewayConfig config;
  config.shards = 2;
  config.queue_capacity = 4096;
  config.record_decisions = false;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });
  std::vector<Job> batch;
  std::vector<std::uint64_t> ctxs;
  for (JobId id = 0; id < 8; ++id) {
    batch.push_back(make_job(id, 0.0, 1.0, 1e9));
    ctxs.push_back(static_cast<std::uint64_t>(id) + 100);
  }
  std::vector<Outcome> statuses;
  const auto round = [&] {
    (void)gateway.submit(batch[0], 7);
    (void)gateway.submit_batch(batch, &statuses, ctxs);
    (void)gateway.submit_batch(batch);
  };
  round();  // the first call on this thread sizes its scratch
  const std::uint64_t before = t_heap_allocs;
  for (int r = 0; r < 100; ++r) round();
  EXPECT_EQ(t_heap_allocs - before, 0u);
  const GatewayResult result = gateway.finish();
  EXPECT_EQ(result.metrics.total.enqueued, 101u * 17u);
}

// ---------- gateway: commitment violations ----------

/// Commits every job at its release on machine 0: from the second arrival
/// on, the interval overlaps the first commitment.
class CheatingScheduler final : public OnlineScheduler {
 public:
  Decision on_arrival(const Job& job) override {
    ++seen_;
    return Decision::accept(0, job.release);
  }
  int machines() const override { return 1; }
  void reset() override { seen_ = 0; }
  std::string name() const override { return "Cheater"; }

 private:
  int seen_ = 0;
};

TEST(Gateway, HaltsPoisonedShardAndReportsViolation) {
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 16;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<CheatingScheduler>(); });
  for (JobId id = 1; id <= 5; ++id) {
    // Retry on transient backpressure; the shard keeps draining even after
    // it halts, so this always terminates.
    while (gateway.submit(make_job(id, 0.0, 2.0, 100.0)) !=
           Outcome::kEnqueued) {
      std::this_thread::yield();
    }
  }
  const GatewayResult result = gateway.finish();
  EXPECT_FALSE(result.clean());
  EXPECT_NE(result.first_violation().find("overlaps"), std::string::npos);
  // Halted at the violation, exactly like run_online: one commitment.
  EXPECT_EQ(result.shards[0].metrics.accepted, 1u);
}

// ---------- Gateway: closed-tail vs backpressure accounting ----------

TEST(Gateway, BatchTailOnAClosedShardIsRejectedClosedNotBackpressure) {
  // One shard, force-drained: every job offered to it must come back as
  // kRejectedClosed. Before the accounting fix the batch path charged the
  // closed-queue tail to rejected_queue_full, which tells the caller to
  // retry a shard that is gone.
  GatewayConfig config;
  config.shards = 1;
  config.supervisor.enabled = false;
  config.enable_failover = false;  // offer to the home shard anyway
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });
  gateway.supervisor().force_down(0);

  std::vector<Job> jobs;
  for (JobId id = 0; id < 6; ++id) {
    jobs.push_back(make_job(id, 0.0, 1.0, 100.0));
  }
  std::vector<Outcome> statuses;
  const BatchSubmitResult result = gateway.submit_batch(
      std::span<const Job>(jobs.data(), jobs.size()), &statuses);
  EXPECT_EQ(result.enqueued, 0u);
  EXPECT_EQ(result.rejected_closed, 6u);
  EXPECT_EQ(result.rejected_queue_full, 0u);
  for (const Outcome s : statuses) {
    EXPECT_EQ(s, Outcome::kRejectedClosed);
  }
  // And none of it was counted as backpressure in the live metrics.
  EXPECT_EQ(gateway.metrics_snapshot().total.backpressure_rejected, 0u);
  (void)gateway.finish();
}

TEST(Gateway, BatchTailOnAFullQueueIsStillBackpressure) {
  // The complementary case: a live shard with a tiny queue and a slow
  // consumer sheds the tail as rejected_queue_full, never rejected_closed.
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 2;
  config.supervisor.enabled = false;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<SlowScheduler>(); });

  std::vector<Job> jobs;
  for (JobId id = 0; id < 32; ++id) {
    jobs.push_back(make_job(id, 0.0, 1.0, 1000.0));
  }
  std::vector<Outcome> statuses;
  const BatchSubmitResult result = gateway.submit_batch(
      std::span<const Job>(jobs.data(), jobs.size()), &statuses);
  EXPECT_EQ(result.rejected_closed, 0u);
  EXPECT_GT(result.rejected_queue_full, 0u);
  EXPECT_EQ(result.enqueued + result.rejected_queue_full, jobs.size());
  (void)gateway.finish();
}

TEST(Gateway, BatchRouteContextsTravelWithTheirOwnJobs) {
  // Round-robin over three shards scatters the batch, so each shard sees
  // a non-contiguous subset: every decision must still echo the context
  // submitted alongside that very job, not its position in a shard group.
  GatewayConfig config;
  config.shards = 3;
  config.routing = RoutingPolicy::kRoundRobin;
  config.queue_capacity = 64;
  std::mutex echoed_mutex;
  std::vector<std::pair<JobId, std::uint64_t>> echoed;
  config.on_decision = [&](int /*shard*/, const Job& job,
                           const Decision& /*decision*/,
                           std::uint64_t route_ctx) {
    std::lock_guard lock(echoed_mutex);
    echoed.emplace_back(job.id, route_ctx);
  };
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });

  std::vector<Job> jobs;
  std::vector<std::uint64_t> contexts;
  for (JobId id = 0; id < 30; ++id) {
    jobs.push_back(make_job(id, 0.0, 1.0, 1000.0));
    contexts.push_back(1000 + static_cast<std::uint64_t>(id) * 7);
  }
  const BatchSubmitResult batch =
      gateway.submit_batch(jobs, nullptr, contexts);
  EXPECT_EQ(batch.enqueued, jobs.size());
  // No contexts at all: every job is echoed with 0.
  const BatchSubmitResult plain = gateway.submit_batch(
      std::span<const Job>(jobs.data(), 3));
  EXPECT_EQ(plain.enqueued, 3u);
  (void)gateway.finish();

  ASSERT_EQ(echoed.size(), jobs.size() + 3);
  std::size_t zero = 0;
  for (const auto& [id, ctx] : echoed) {
    if (ctx == 0) {
      ++zero;
      continue;
    }
    EXPECT_EQ(ctx, contexts[static_cast<std::size_t>(id)]) << "job " << id;
  }
  EXPECT_EQ(zero, 3u);
}

// ---------- Gateway: run-to-completion hand-off ----------

TEST(Gateway, RunToCompletionAndRingProducersNeverOverlapAndKeepTheirOrder) {
  // Producer 1 submits one job per call run-to-completion; producer 2
  // pushes small batches through the ring and pauses between them, so the
  // shards go idle now and then. Each hook call checks that no other
  // mutator of its shard is inside a hook at the same time, and records
  // the producer's sequence number carried in route_ctx.
  constexpr int kShards = 2;
  constexpr std::uint64_t kPerProducer = 6000;
  GatewayConfig config;
  config.shards = kShards;
  config.routing = RoutingPolicy::kHash;
  config.queue_capacity = 4096;
  config.record_decisions = false;
  std::array<std::atomic<int>, kShards> inside{};
  std::atomic<bool> overlap{false};
  // Per shard, the contexts in decision order. The shard's baton orders
  // its hook calls, so each vector has one writer at a time.
  std::array<std::vector<std::uint64_t>, kShards> seen;
  config.on_decision = [&](int shard, const Job& /*job*/,
                           const Decision& /*decision*/, std::uint64_t ctx) {
    const auto s = static_cast<std::size_t>(shard);
    if (inside[s].fetch_add(1) != 0) overlap = true;
    seen[s].push_back(ctx);
    inside[s].fetch_sub(1);
  };
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(4); });

  // Context: producer in the high half, 1-based sequence in the low half.
  auto ctx_of = [](std::uint64_t producer, std::uint64_t seq) {
    return (producer << 32) | (seq + 1);
  };
  std::atomic<std::size_t> enqueued{0};
  std::thread run_to_completion([&] {
    for (std::uint64_t seq = 0; seq < kPerProducer; ++seq) {
      const Job job = make_job(static_cast<JobId>(ctx_of(1, seq)), 0.0, 1.0,
                               1e9);
      const std::uint64_t ctx = ctx_of(1, seq);
      enqueued += gateway
                      .submit_batch({&job, 1}, nullptr, {&ctx, 1},
                                    SubmitHandoff::kRunToCompletion)
                      .enqueued;
    }
  });
  std::thread ring([&] {
    constexpr std::uint64_t kBurst = 16;
    std::vector<Job> jobs;
    std::vector<std::uint64_t> ctxs;
    for (std::uint64_t seq = 0; seq < kPerProducer; seq += kBurst) {
      jobs.clear();
      ctxs.clear();
      for (std::uint64_t k = seq; k < seq + kBurst; ++k) {
        ctxs.push_back(ctx_of(2, k));
        jobs.push_back(make_job(static_cast<JobId>(ctxs.back()), 0.0, 1.0,
                                1e9));
      }
      enqueued += gateway.submit_batch(jobs, nullptr, ctxs).enqueued;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  run_to_completion.join();
  ring.join();
  const GatewayResult result = gateway.finish();

  EXPECT_FALSE(overlap.load()) << "two mutators of one shard overlapped";
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.merged.submitted, enqueued.load());
  EXPECT_EQ(result.merged.submitted, 2 * kPerProducer);
  const ShardMetricsSnapshot& total = result.metrics.total;
  EXPECT_GT(total.inline_decisions, 0u) << "no job ran to completion";
  EXPECT_LT(total.inline_decisions, total.submitted) << "the ring was unused";
  EXPECT_GE(total.batches, total.inline_decisions);
  for (int s = 0; s < kShards; ++s) {
    std::uint64_t last[3] = {0, 0, 0};
    for (const std::uint64_t ctx : seen[static_cast<std::size_t>(s)]) {
      const std::uint64_t producer = ctx >> 32;
      ASSERT_TRUE(producer == 1 || producer == 2);
      EXPECT_GT(ctx & 0xffffffffu, last[producer])
          << "producer " << producer << " reordered on shard " << s;
      last[producer] = ctx & 0xffffffffu;
    }
  }
}

TEST(Gateway, WalBackedGatewayNeverDecidesRunToCompletion) {
  // sync_batch may fsync or wait for a follower's ack, which a caller
  // such as an event loop must never do: a shard with a commit log
  // refuses every run-to-completion offer, even when idle.
  const std::string dir = ::testing::TempDir() + "slacksched_rtc_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  GatewayConfig config;
  config.shards = 1;
  config.wal_dir = dir;
  config.wal_fsync = FsyncPolicy::kNever;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });
  constexpr std::size_t kJobs = 50;
  for (std::size_t i = 0; i < kJobs; ++i) {
    const Job job = make_job(static_cast<JobId>(i), 0.0, 1.0, 1e9);
    const std::uint64_t ctx = 0;
    EXPECT_EQ(gateway
                  .submit_batch({&job, 1}, nullptr, {&ctx, 1},
                                SubmitHandoff::kRunToCompletion)
                  .enqueued,
              1u);
    // Let the shard go idle before the next offer.
    while (gateway.metrics_snapshot().total.submitted < i + 1) {
      std::this_thread::yield();
    }
  }
  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.errors.empty());
  EXPECT_EQ(result.merged.submitted, kJobs);
  EXPECT_EQ(result.metrics.total.inline_decisions, 0u);
  std::filesystem::remove_all(dir);
}

TEST(Gateway, SubmitFromARunToCompletionHookTripsTheReentryGuard) {
  // A run-to-completion decision fires on_decision inside the submitting
  // thread's own submit_batch pass; a submit from there would overwrite
  // that thread's scratch mid-pass, so the gateway refuses it. The hook
  // catches the refusal here, so the shard lives on.
  GatewayConfig config;
  config.shards = 1;
  AdmissionGateway* self = nullptr;
  std::atomic<int> refused{0};
  std::atomic<int> nested_ok{0};
  config.on_decision = [&](int, const Job& job, const Decision&,
                           std::uint64_t ctx) {
    if (ctx == 0) return;  // the nested submission's own decision
    try {
      if (self->submit(make_job(job.id + 1000, 0.0, 1.0, 1e9)) ==
          Outcome::kEnqueued) {
        ++nested_ok;
      }
    } catch (const PreconditionError&) {
      ++refused;
    }
  };
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });
  self = &gateway;
  const Job job = make_job(1, 0.0, 1.0, 1e9);
  const std::uint64_t ctx = 7;
  std::vector<Outcome> statuses;
  const BatchSubmitResult submitted = gateway.submit_batch(
      {&job, 1}, &statuses, {&ctx, 1}, SubmitHandoff::kRunToCompletion);
  EXPECT_EQ(submitted.enqueued, 1u);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0], Outcome::kEnqueued);
  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.errors.empty());
  ASSERT_EQ(result.metrics.total.inline_decisions, 1u)
      << "the idle shard should have decided run-to-completion";
  EXPECT_EQ(refused.load(), 1);
  EXPECT_EQ(nested_ok.load(), 0);
  EXPECT_EQ(result.merged.submitted, 1u);
}

/// Greedy scheduler whose decisions wait for a gate on any thread but the
/// submitting one, like an embedder's scheduler that waits on an outside
/// resource; on the submitting thread it records the call and decides at
/// once, so a broken contract shows as a flag instead of a hang.
class GatedGreedy final : public OnlineScheduler {
 public:
  GatedGreedy(std::thread::id submitter, const std::atomic<bool>* gate,
              std::atomic<int>* on_submitter)
      : submitter_(submitter), gate_(gate), on_submitter_(on_submitter) {}

  Decision on_arrival(const Job& job) override {
    if (std::this_thread::get_id() == submitter_) {
      ++*on_submitter_;
    } else {
      while (!gate_->load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return inner_.on_arrival(job);
  }
  int machines() const override { return inner_.machines(); }
  void reset() override { inner_.reset(); }
  std::string name() const override { return "GatedGreedy"; }

 private:
  GreedyScheduler inner_{2};
  std::thread::id submitter_;
  const std::atomic<bool>* gate_;
  std::atomic<int>* on_submitter_;
};

TEST(Gateway, DefaultHandoffNeverRunsTheSchedulerOnTheSubmittingThread) {
  // submit() and the default submit_batch() are non-blocking: even a
  // one-job call to an idle shard goes to the ring, so a scheduler that
  // waits (here on a gate opened only after the producer is done) never
  // holds up the producer. Only an explicit kRunToCompletion call decides
  // on the calling thread.
  const std::thread::id self = std::this_thread::get_id();
  std::atomic<bool> gate{false};
  std::atomic<int> on_submitter{0};
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 64;
  AdmissionGateway gateway(config, [&](int) {
    return std::make_unique<GatedGreedy>(self, &gate, &on_submitter);
  });
  for (JobId id = 0; id < 20; ++id) {
    const Job job = make_job(id, 0.0, 1.0, 1e9);
    if (id % 2 == 0) {
      EXPECT_EQ(gateway.submit(job), Outcome::kEnqueued);
    } else {
      EXPECT_EQ(gateway.submit_batch({&job, 1}).enqueued, 1u);
    }
  }
  gate.store(true, std::memory_order_release);
  // Let the consumer decide the backlog.
  while (gateway.metrics_snapshot().total.submitted < 20) {
    std::this_thread::yield();
  }
  EXPECT_EQ(on_submitter.load(), 0);
  // The run-to-completion offer succeeds once the consumer has released
  // the idle shard; until then it takes the ring like any other job.
  std::uint64_t offered = 0;
  while (on_submitter.load() == 0 && offered < 1000) {
    const Job job = make_job(static_cast<JobId>(20 + offered), 0.0, 1.0, 1e9);
    ++offered;
    EXPECT_EQ(gateway.submit_batch({&job, 1}, nullptr, {},
                                   SubmitHandoff::kRunToCompletion)
                  .enqueued,
              1u);
    while (gateway.metrics_snapshot().total.submitted < 20 + offered) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(on_submitter.load(), 1);
  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.merged.submitted, 20 + offered);
  EXPECT_EQ(result.metrics.total.inline_decisions, 1u);
}

}  // namespace
}  // namespace slacksched
