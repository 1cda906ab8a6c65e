// SERVICE: end-to-end throughput of the sharded admission gateway.
//
// Two sweeps over 1..16 shards (each shard = an independent Threshold
// engine on its own machine group), both multi-producer:
//
//   * closed loop — replays a multi-million-job synthetic stream as fast
//     as admission allows (backpressure retries until accepted), and
//     reports sustained submissions/second. This is the scaling number
//     perf_check.py gates: on a multi-core host aggregate throughput must
//     grow with the shard count.
//   * open loop — P producers pace submissions at a fixed target rate
//     (1.25x the closed-loop rate of the same configuration, i.e.
//     sustained overload), shedding on a full queue instead of retrying,
//     and report p50/p99/p999 admit latency from the gateway's own
//     log-spaced histogram plus per-shard decision throughput. Open-loop
//     runs exercise GatewayConfig::pin_shards.
//
// Every configuration must finish clean: zero commitment violations,
// every accepted job decided. Emits BENCH_service.json (with the uniform
// provenance fields from bench_env.hpp) so the perf trajectory stays
// machine-readable and machine-interpretable.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.hpp"
#include "common/histogram.hpp"
#include "core/threshold.hpp"
#include "service/gateway.hpp"
#include "workload/generators.hpp"

namespace {

using namespace slacksched;

constexpr double kEps = 0.1;
constexpr int kMachinesPerShard = 8;
constexpr double kOverloadFactor = 1.25;

struct RunStats {
  int shards = 0;
  std::size_t jobs = 0;
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  double accepted_volume = 0.0;
  std::uint64_t backpressure_retries = 0;
  std::size_t peak_queue_depth = 0;
  std::size_t queue_capacity = 0;  ///< per-shard bound the peak must obey
  std::size_t batches = 0;
  bool clean = false;
  std::string violation;
};

struct OpenLoopStats {
  int shards = 0;
  double target_rate = 0.0;     ///< offered jobs/sec across all producers
  std::size_t offered = 0;
  std::size_t shed = 0;         ///< rejected at the full queue (no retry)
  double seconds = 0.0;
  double decided_per_sec = 0.0; ///< decisions rendered / wall time
  double p50 = 0.0, p99 = 0.0, p999 = 0.0;  ///< admit latency, seconds
  std::vector<double> per_shard_rate;       ///< decisions/sec per shard
  bool clean = false;
  std::string violation;
};

/// Quantile over a log-spaced histogram with log interpolation inside the
/// hit bin. Underflow clamps to the low edge, overflow to the high edge —
/// same convention as a Prometheus histogram_quantile over these buckets.
double histogram_quantile(const Histogram& h, double q) {
  const std::size_t total =
      h.total_count() + h.underflow_count() + h.overflow_count();
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double cum = static_cast<double>(h.underflow_count());
  if (cum >= target) return h.bin_range(0).first;
  for (std::size_t bin = 0; bin < h.bin_count(); ++bin) {
    const double count = static_cast<double>(h.count_in_bin(bin));
    if (count > 0.0 && cum + count >= target) {
      const auto [lo, hi] = h.bin_range(bin);
      const double frac = (target - cum) / count;
      return lo * std::pow(hi / lo, frac);
    }
    cum += count;
  }
  return h.bin_range(h.bin_count() - 1).second;
}

/// Pushes every job in [begin, end) through the gateway, retrying the
/// backpressure-shed tail until the shard accepts it. Hash routing keeps a
/// retried job on its shard, so retrying cannot starve: the consumer always
/// drains. Returns the number of retried submissions.
std::uint64_t submit_range(AdmissionGateway& gateway, const Job* jobs,
                           std::size_t count, std::size_t chunk) {
  std::uint64_t retries = 0;
  std::vector<Outcome> statuses;
  std::vector<Job> pending;
  std::vector<Job> still_pending;
  for (std::size_t offset = 0; offset < count; offset += chunk) {
    const std::size_t n = std::min(chunk, count - offset);
    pending.assign(jobs + offset, jobs + offset + n);
    while (!pending.empty()) {
      const BatchSubmitResult result = gateway.submit_batch(
          std::span<const Job>(pending.data(), pending.size()), &statuses);
      if (result.rejected_queue_full == 0) break;
      retries += result.rejected_queue_full;
      still_pending.clear();
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (statuses[i] == Outcome::kRejectedQueueFull) {
          still_pending.push_back(pending[i]);
        }
      }
      pending.swap(still_pending);
      std::this_thread::yield();  // give the consumers a slice
    }
  }
  return retries;
}

GatewayConfig gateway_config(int shards, bool pin_shards) {
  GatewayConfig config;
  config.shards = shards;
  config.queue_capacity = 8192;
  config.batch_size = 512;
  config.routing = RoutingPolicy::kHash;
  config.record_decisions = false;  // multi-million-job run: metrics only
  config.pin_shards = pin_shards;
  return config;
}

std::unique_ptr<AdmissionGateway> make_gateway(int shards, bool pin_shards) {
  return std::make_unique<AdmissionGateway>(
      gateway_config(shards, pin_shards), [](int) {
        return std::make_unique<ThresholdScheduler>(kEps, kMachinesPerShard);
      });
}

RunStats run_closed_loop(const Instance& instance, int shards,
                         unsigned producers) {
  auto gateway = make_gateway(shards, /*pin_shards=*/false);

  const Job* jobs = instance.jobs().data();
  const std::size_t n = instance.size();
  const std::size_t per_producer = (n + producers - 1) / producers;
  std::vector<std::uint64_t> retries(producers, 0);

  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (unsigned p = 0; p < producers; ++p) {
      const std::size_t begin = p * per_producer;
      const std::size_t end = std::min(begin + per_producer, n);
      if (begin >= end) break;
      threads.emplace_back([&, p, begin, end] {
        retries[p] = submit_range(*gateway, jobs + begin, end - begin, 1024);
      });
    }
    for (auto& t : threads) t.join();
  }
  const GatewayResult result = gateway->finish();
  const auto stop = std::chrono::steady_clock::now();

  RunStats stats;
  stats.shards = shards;
  stats.jobs = n;
  stats.seconds = std::chrono::duration<double>(stop - start).count();
  stats.jobs_per_sec = static_cast<double>(n) / stats.seconds;
  stats.accepted = result.merged.accepted;
  stats.rejected = result.merged.rejected;
  stats.accepted_volume = result.merged.accepted_volume;
  for (const std::uint64_t r : retries) stats.backpressure_retries += r;
  stats.peak_queue_depth = result.metrics.total.peak_queue_depth;
  stats.queue_capacity = gateway->config().queue_capacity;
  stats.batches = result.metrics.total.batches;
  stats.clean = result.clean() && result.merged.submitted == n;
  stats.violation = result.first_violation();
  return stats;
}

/// Open-loop load: each producer offers its share of the stream at
/// `target_rate / producers` jobs/sec (paced in chunks against an absolute
/// deadline schedule, so a slow chunk borrows no budget from the next),
/// shedding on a full queue instead of retrying. Sustained overload keeps
/// the queues occupied, which is what makes the admit-latency percentiles
/// meaningful.
OpenLoopStats run_open_loop(const Instance& instance, int shards,
                            unsigned producers, double target_rate) {
  auto gateway = make_gateway(shards, /*pin_shards=*/true);

  const Job* jobs = instance.jobs().data();
  const std::size_t n = instance.size();
  const std::size_t per_producer = (n + producers - 1) / producers;
  constexpr std::size_t kChunk = 256;
  const double per_producer_rate = target_rate / producers;
  std::vector<std::uint64_t> shed(producers, 0);

  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (unsigned p = 0; p < producers; ++p) {
      const std::size_t begin = p * per_producer;
      const std::size_t end = std::min(begin + per_producer, n);
      if (begin >= end) break;
      threads.emplace_back([&, p, begin, end] {
        const auto t0 = std::chrono::steady_clock::now();
        std::size_t offered = 0;
        for (std::size_t offset = begin; offset < end; offset += kChunk) {
          const std::size_t count = std::min(kChunk, end - offset);
          const BatchSubmitResult result = gateway->submit_batch(
              std::span<const Job>(jobs + offset, count));
          shed[p] += result.rejected_queue_full + result.rejected_closed +
                     result.rejected_retry_after;
          offered += count;
          // Absolute pacing schedule: sleep until the instant this many
          // offered jobs "should" have taken at the target rate.
          const auto due =
              t0 + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(offered) / per_producer_rate));
          std::this_thread::sleep_until(due);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const GatewayResult result = gateway->finish();
  const auto stop = std::chrono::steady_clock::now();

  OpenLoopStats stats;
  stats.shards = shards;
  stats.target_rate = target_rate;
  stats.offered = n;
  stats.seconds = std::chrono::duration<double>(stop - start).count();
  for (const std::uint64_t s : shed) stats.shed += s;
  stats.decided_per_sec =
      static_cast<double>(result.metrics.total.submitted) / stats.seconds;
  stats.p50 = histogram_quantile(result.metrics.admit_latency, 0.50);
  stats.p99 = histogram_quantile(result.metrics.admit_latency, 0.99);
  stats.p999 = histogram_quantile(result.metrics.admit_latency, 0.999);
  stats.per_shard_rate.reserve(result.metrics.shards.size());
  for (const ShardMetricsSnapshot& shard : result.metrics.shards) {
    stats.per_shard_rate.push_back(
        static_cast<double>(shard.submitted) / stats.seconds);
  }
  // Open loop sheds by design; clean means no violations and every job
  // accounted for (decided or shed).
  stats.clean = result.clean() &&
                result.merged.submitted + stats.shed == stats.offered;
  stats.violation = result.first_violation();
  return stats;
}

void write_json(const bench::BenchEnv& env, const std::vector<RunStats>& runs,
                const std::vector<OpenLoopStats>& open_runs, std::size_t jobs,
                double speedup_8v1) {
  std::ofstream out("BENCH_service.json");
  out << "{\n"
      << "  \"bench\": \"service_throughput\",\n"
      << "  \"scheduler\": \"Threshold(eps=" << kEps
      << ", m=" << kMachinesPerShard << " per shard)\",\n"
      << "  \"routing\": \"hash\",\n"
      << "  \"jobs\": " << jobs << ",\n"
      << env.json_fields()
      << "  \"speedup_8shard_vs_1shard\": " << speedup_8v1 << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunStats& r = runs[i];
    out << "    {\"shards\": " << r.shards << ", \"seconds\": " << r.seconds
        << ", \"jobs_per_sec\": " << r.jobs_per_sec
        << ", \"accepted\": " << r.accepted
        << ", \"rejected\": " << r.rejected
        << ", \"accepted_volume\": " << r.accepted_volume
        << ", \"backpressure_retries\": " << r.backpressure_retries
        << ", \"peak_queue_depth\": " << r.peak_queue_depth
        << ", \"queue_capacity\": " << r.queue_capacity
        << ", \"batches\": " << r.batches
        << ", \"clean\": " << (r.clean ? "true" : "false") << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"open_loop\": [\n";
  for (std::size_t i = 0; i < open_runs.size(); ++i) {
    const OpenLoopStats& r = open_runs[i];
    out << "    {\"shards\": " << r.shards
        << ", \"target_rate\": " << r.target_rate
        << ", \"offered\": " << r.offered << ", \"shed\": " << r.shed
        << ", \"seconds\": " << r.seconds
        << ", \"decided_per_sec\": " << r.decided_per_sec
        << ", \"admit_latency_p50\": " << r.p50
        << ", \"admit_latency_p99\": " << r.p99
        << ", \"admit_latency_p999\": " << r.p999
        << ", \"pinned\": true"
        << ", \"per_shard_decided_per_sec\": [";
    for (std::size_t s = 0; s < r.per_shard_rate.size(); ++s) {
      out << (s > 0 ? ", " : "") << r.per_shard_rate[s];
    }
    out << "], \"clean\": " << (r.clean ? "true" : "false") << "}"
        << (i + 1 < open_runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Optional override: service_throughput [jobs], default 1M (the
  // acceptance bar); smoke-test with a smaller count, e.g. 100000.
  std::size_t n = 1'000'000;
  if (argc > 1) {
    char* end = nullptr;
    n = static_cast<std::size_t>(std::strtoull(argv[1], &end, 10));
    if (end == argv[1] || *end != '\0' || n == 0) {
      std::fprintf(stderr, "usage: %s [jobs>0]  (got '%s')\n", argv[0], argv[1]);
      return 2;
    }
  }

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  // Producers scale with the host so a big machine offers real ingest
  // parallelism, but stay fixed across shard counts: the consumer side is
  // the variable under test.
  const unsigned producers = cores >= 8 ? 4 : (cores >= 4 ? 2 : 1);

  std::printf("SERVICE: sharded admission-gateway throughput\n");
  std::printf("  jobs=%zu  scheduler=Threshold(eps=%.2f, m=%d/shard)  "
              "producers=%u  cores=%u\n\n",
              n, kEps, kMachinesPerShard, producers, cores);

  WorkloadConfig wconfig;
  wconfig.n = n;
  wconfig.eps = kEps;
  wconfig.arrival_rate = 4.0;
  wconfig.seed = 7;
  const Instance instance = generate_workload(wconfig);

  std::printf("closed loop (retry until admitted):\n");
  std::printf("  %6s  %10s  %14s  %10s  %12s  %9s  %s\n", "shards", "seconds",
              "jobs/sec", "accepted", "bp-retries", "peak-q", "status");
  std::vector<RunStats> runs;
  bool all_clean = true;
  for (const int shards : {1, 2, 4, 8, 16}) {
    const RunStats stats = run_closed_loop(instance, shards, producers);
    std::printf("  %6d  %10.3f  %14.0f  %10zu  %12llu  %9zu  %s\n",
                stats.shards, stats.seconds, stats.jobs_per_sec,
                stats.accepted,
                static_cast<unsigned long long>(stats.backpressure_retries),
                stats.peak_queue_depth,
                stats.clean ? "clean" : stats.violation.c_str());
    all_clean = all_clean && stats.clean;
    runs.push_back(stats);
  }

  double speedup = 0.0;
  for (const RunStats& r : runs) {
    if (r.shards == 8) speedup = r.jobs_per_sec / runs.front().jobs_per_sec;
  }
  std::printf("\n  8-shard vs 1-shard aggregate throughput: %.2fx"
              " (on %u hardware threads)\n\n",
              speedup, cores);

  // Open loop at 1.25x each configuration's own closed-loop rate:
  // sustained overload, so the latency percentiles reflect queues that
  // stay occupied rather than an idle gateway.
  std::printf("open loop (%.2fx overload, shed on full, pinned shards):\n",
              kOverloadFactor);
  std::printf("  %6s  %12s  %14s  %8s  %10s  %10s  %10s  %s\n", "shards",
              "target/s", "decided/s", "shed%", "p50", "p99", "p999",
              "status");
  std::vector<OpenLoopStats> open_runs;
  for (const RunStats& closed : runs) {
    const OpenLoopStats stats = run_open_loop(
        instance, closed.shards, producers,
        closed.jobs_per_sec * kOverloadFactor);
    std::printf("  %6d  %12.0f  %14.0f  %7.2f%%  %9.1fus  %9.1fus  %9.1fus  "
                "%s\n",
                stats.shards, stats.target_rate, stats.decided_per_sec,
                100.0 * static_cast<double>(stats.shed) /
                    static_cast<double>(stats.offered),
                stats.p50 * 1e6, stats.p99 * 1e6, stats.p999 * 1e6,
                stats.clean ? "clean" : stats.violation.c_str());
    all_clean = all_clean && stats.clean;
    open_runs.push_back(stats);
  }

  const bench::BenchEnv env =
      bench::BenchEnv::detect(producers, /*pinned=*/false, "closed+open");
  write_json(env, runs, open_runs, n, speedup);
  std::printf("\n  wrote BENCH_service.json\n");

  if (!all_clean) {
    std::printf("  FATAL: a configuration was not clean\n");
    return 1;
  }
  return 0;
}
