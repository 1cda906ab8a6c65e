// NET: end-to-end throughput of the networked admission front end.
//
// Starts an AdmissionServer on a loopback TCP port and replays a
// multi-million-job synthetic stream through it over the wire protocol,
// sweeping event loops x client connections x submit batch size. Each
// connection runs on its own thread with its own AdmissionClient behind
// a RetryingSubmitter, pipelines SUBMIT_BATCH frames up to a bounded
// in-flight window, and lets the submitter resubmit jobs the server shed
// under backpressure (hash routing keeps a retried job on its shard, so
// retrying cannot starve). Every run must finish clean: every job
// answered by exactly one rendered decision, zero commitment violations,
// and the DRAINED counters equal to what the clients observed. Emits
// BENCH_net.json so the perf trajectory is machine-readable.
//
// Next to the closed-loop sweep, one open-loop "wake" row offers SUBMIT
// frames at a nominal 20k jobs/s over 2 connections to a 1-loop server
// and records decide latency (client send to reply read) and the
// cross-thread wake-ups the server issued per decision — shard futex
// wakes plus event-loop eventfd writes, read from the
// slacksched_wakeups_total counters. At this rate every read pass
// carries one job, so an idle shard decides it run-to-completion on the
// loop and the row reads about 0 wake-ups per decision; a server that
// hands each job to a parked shard thread and the decision back to a
// waiting loop reads about 2.
//
// Expectation on a multi-core host: batching amortizes the framing + CRC
// cost, so jobs/sec rises steeply from batch=1 to batch=512, and with
// enough connections the multi-loop rows pull ahead of loops=1 — each
// shared-nothing loop owns its connections' epoll set, pending replies
// and outbox, so the wire-side work parallelizes (scripts/perf_check.py
// gates this on >= 4-core recorders).
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.hpp"
#include "core/threshold.hpp"
#include "net/admission_client.hpp"
#include "net/admission_server.hpp"
#include "net/protocol.hpp"
#include "workload/generators.hpp"

namespace {

using namespace slacksched;

constexpr double kEps = 0.1;
constexpr int kMachinesPerShard = 8;
constexpr int kShards = 4;

struct ClientStats {
  std::size_t answered = 0;  ///< rendered decisions received
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t shed = 0;  ///< closed/retry-after sheds (must stay 0)
  std::uint64_t backpressure_retries = 0;
};

struct RunStats {
  int loops = 1;
  unsigned connections = 0;
  std::size_t batch = 0;
  std::size_t jobs = 0;
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
  std::size_t answered = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::uint64_t backpressure_retries = 0;
  bool clean = false;
  std::string problem;
};

/// Replays jobs[0..count) through one connection. Keeps up to `window`
/// submissions in flight through a RetryingSubmitter: backpressure sheds
/// are resubmitted by the client library under its capped-backoff policy
/// (unlimited attempts — every job must end in a rendered decision).
ClientStats run_client(std::uint16_t port, const Job* jobs, std::size_t count,
                       std::size_t batch, unsigned client_index) {
  net::AdmissionClient client("127.0.0.1", port);
  net::RetryPolicy policy;
  policy.max_attempts = 0;  // unlimited: the contract is every-job-answered
  policy.initial_delay = std::chrono::milliseconds(1);
  policy.max_delay = std::chrono::milliseconds(8);
  // Distinct seeds decorrelate concurrent clients' retry bursts.
  policy.jitter_seed = 0x9e3779b97f4a7c15ULL * (client_index + 1);
  net::RetryingSubmitter submitter(client, policy);
  ClientStats stats;
  const std::size_t window = std::max<std::size_t>(4 * batch, 64);
  std::size_t next = 0;
  std::size_t remaining = count;
  while (remaining > 0) {
    while (next < count && submitter.in_flight() < window) {
      const std::size_t take = std::min(batch, count - next);
      submitter.enqueue_batch(std::span<const Job>(jobs + next, take));
      next += take;
    }
    net::DecisionReply reply;
    if (!submitter.pump(reply)) break;  // nothing left in flight
    if (reply.outcome == Outcome::kAccepted) {
      ++stats.accepted;
      ++stats.answered;
      --remaining;
    } else if (reply.outcome == Outcome::kRejected) {
      ++stats.rejected;
      ++stats.answered;
      --remaining;
    } else {
      ++stats.shed;  // only kRejectedClosed survives unlimited retries
      --remaining;
    }
  }
  stats.backpressure_retries = submitter.retries();
  return stats;
}

RunStats run_config(const Instance& instance, int loops,
                    unsigned connections, std::size_t batch) {
  net::AdmissionServerConfig config;
  config.loops = loops;
  config.gateway.shards = kShards;
  config.gateway.queue_capacity = 8192;
  config.gateway.batch_size = 512;
  config.gateway.routing = RoutingPolicy::kHash;
  config.gateway.record_decisions = false;  // multi-million-job run
  net::AdmissionServer server(config, [](int) {
    return std::make_unique<ThresholdScheduler>(kEps, kMachinesPerShard);
  });

  const Job* jobs = instance.jobs().data();
  const std::size_t n = instance.size();
  const std::size_t per_client = (n + connections - 1) / connections;
  std::vector<ClientStats> stats(connections);

  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (unsigned c = 0; c < connections; ++c) {
      const std::size_t begin = c * per_client;
      const std::size_t end = std::min(begin + per_client, n);
      if (begin >= end) break;
      threads.emplace_back([&, c, begin, end] {
        stats[c] =
            run_client(server.port(), jobs + begin, end - begin, batch, c);
      });
    }
    for (auto& t : threads) t.join();
  }
  net::AdmissionClient control("127.0.0.1", server.port());
  const net::DrainedMsg drained = control.drain();
  const auto stop = std::chrono::steady_clock::now();
  const GatewayResult result = server.shutdown();

  RunStats run;
  run.loops = loops;
  run.connections = connections;
  run.batch = batch;
  run.jobs = n;
  run.seconds = std::chrono::duration<double>(stop - start).count();
  run.jobs_per_sec = static_cast<double>(n) / run.seconds;
  std::size_t shed = 0;
  for (const ClientStats& s : stats) {
    run.answered += s.answered;
    run.accepted += s.accepted;
    run.rejected += s.rejected;
    run.backpressure_retries += s.backpressure_retries;
    shed += s.shed;
  }
  // No silent drops: every job answered by exactly one rendered decision,
  // and the server's drained counters agree with what the wire carried.
  run.clean = true;
  if (run.answered != n) {
    run.clean = false;
    run.problem = "answered != jobs";
  } else if (shed != 0) {
    run.clean = false;
    run.problem = "jobs shed as closed/retry-after";
  } else if (drained.submitted != n || drained.accepted != run.accepted ||
             drained.rejected != run.rejected) {
    run.clean = false;
    run.problem = "DRAINED counters disagree with client-observed replies";
  } else if (drained.clean == 0 || !result.clean()) {
    run.clean = false;
    run.problem = result.first_violation().empty()
                      ? "gateway reported an unclean drain"
                      : result.first_violation();
  }
  return run;
}

/// The open-loop wake row: nominal rate, 1 loop, 2 connections.
struct WakeStats {
  double rate = 0.0;        ///< offered jobs/s
  std::size_t jobs = 0;
  std::size_t answered = 0;  ///< SUBMITs answered (decision or shed)
  std::size_t decided = 0;   ///< answers a scheduler rendered
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t futex_wakeups = 0;
  std::uint64_t loop_wakeups = 0;
  std::uint64_t inline_decisions = 0;
  double wakeups_per_decision = 0.0;
  bool clean = false;
  std::string problem;
};

/// One generator thread paces SUBMIT frames at `rate` over two
/// non-blocking sockets, alternating between them, and reads replies
/// between sends, so no job waits behind another's answer.
WakeStats run_wake_row(const Instance& instance, std::size_t n, double rate) {
  constexpr int kConns = 2;
  net::AdmissionServerConfig config;
  config.loops = 1;
  config.gateway.shards = kShards;
  config.gateway.routing = RoutingPolicy::kHash;
  net::AdmissionServer server(config, [](int) {
    return std::make_unique<ThresholdScheduler>(kEps, kMachinesPerShard);
  });
  struct Conn {
    int fd = -1;
    std::vector<char> out;
    std::size_t out_pos = 0;
    net::FrameDecoder decoder;
  };
  Conn conns[kConns];
  for (Conn& c : conns) {
    c.fd = net::connect_with_timeout("127.0.0.1", server.port(),
                                     std::chrono::milliseconds(5000));
    (void)::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> sent(n);
  std::vector<double> latency_us;
  latency_us.reserve(n);
  std::vector<std::uint8_t> answers(n, 0);
  WakeStats row;
  row.rate = rate;
  row.jobs = n;
  std::size_t accepted = 0;
  bool drained_seen = false;
  net::DrainedMsg drained{};

  auto pump = [&](Conn& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t put = ::write(c.fd, c.out.data() + c.out_pos,
                                  c.out.size() - c.out_pos);
      if (put <= 0) break;  // EAGAIN: the next turn retries
      c.out_pos += static_cast<std::size_t>(put);
    }
    if (c.out_pos == c.out.size()) {
      c.out.clear();
      c.out_pos = 0;
    }
    char chunk[65536];
    const ssize_t got = ::read(c.fd, chunk, sizeof chunk);
    if (got <= 0) return;
    const Clock::time_point now = Clock::now();
    c.decoder.feed(chunk, static_cast<std::size_t>(got));
    net::Frame frame;
    while (c.decoder.next(frame) == net::FrameDecoder::Status::kFrame) {
      std::uint64_t request_id = 0;
      bool decided = false;
      if (frame.type == net::FrameType::kDecision) {
        net::DecisionMsg msg;
        if (!net::parse_decision(frame, msg, nullptr)) continue;
        request_id = msg.request_id;
        decided = true;
        accepted += msg.outcome == Outcome::kAccepted ? 1 : 0;
      } else if (frame.type == net::FrameType::kReject) {
        net::RejectMsg msg;
        if (!net::parse_reject(frame, msg, nullptr)) continue;
        request_id = msg.request_id;
      } else if (frame.type == net::FrameType::kDrained) {
        drained_seen = net::parse_drained(frame, drained, nullptr);
        continue;
      } else {
        continue;
      }
      if (request_id < 1 || request_id > n) continue;
      const std::size_t i = request_id - 1;
      if (answers[i]++ != 0) continue;  // a duplicate answer: unclean
      ++row.answered;
      row.decided += decided ? 1 : 0;
      latency_us.push_back(
          std::chrono::duration<double, std::micro>(now - sent[i]).count());
    }
  };

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point give_up = t0 + std::chrono::seconds(30) +
                                    std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(
                                            static_cast<double>(n) / rate));
  std::size_t k = 0;
  while ((k < n || row.answered < n) && Clock::now() < give_up) {
    const Clock::time_point now = Clock::now();
    while (k < n && t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 static_cast<double>(k) / rate)) <= now) {
      sent[k] = now;
      net::encode_submit(conns[k % kConns].out,
                         net::SubmitMsg{k + 1, instance.jobs()[k]});
      ++k;
    }
    for (Conn& c : conns) pump(c);
  }
  // The counters before DRAIN: shutting the shards down wakes each one.
  const MetricsSnapshot snap = server.gateway().metrics_snapshot();
  row.futex_wakeups = snap.total.futex_wakeups;
  row.inline_decisions = snap.total.inline_decisions;
  row.loop_wakeups = server.loop_wakeups();
  net::encode_drain(conns[0].out);
  while (!drained_seen && Clock::now() < give_up) pump(conns[0]);
  for (Conn& c : conns) ::close(c.fd);
  const GatewayResult result = server.shutdown();

  std::sort(latency_us.begin(), latency_us.end());
  auto percentile = [&](double q) {
    if (latency_us.empty()) return 0.0;
    const auto at = static_cast<std::size_t>(
        q * static_cast<double>(latency_us.size() - 1));
    return latency_us[at];
  };
  row.p50_us = percentile(0.50);
  row.p99_us = percentile(0.99);
  row.wakeups_per_decision =
      row.decided == 0 ? 0.0
                       : static_cast<double>(row.futex_wakeups +
                                             row.loop_wakeups) /
                             static_cast<double>(row.decided);
  const bool duplicates = std::any_of(answers.begin(), answers.end(),
                                      [](std::uint8_t a) { return a > 1; });
  row.clean = true;
  if (row.answered != n || duplicates) {
    row.clean = false;
    row.problem = "a SUBMIT was not answered exactly once";
  } else if (row.decided != n) {
    row.clean = false;
    row.problem = "a job was shed at nominal load";
  } else if (!drained_seen || drained.submitted != n ||
             drained.accepted != accepted) {
    row.clean = false;
    row.problem = "DRAINED counters disagree with client-observed replies";
  } else if (!result.clean()) {
    row.clean = false;
    row.problem = result.first_violation();
  }
  return row;
}

void write_json(const std::vector<RunStats>& runs, const WakeStats& wake,
                std::size_t jobs, const bench::BenchEnv& env) {
  std::ofstream out("BENCH_net.json");
  out << "{\n"
      << "  \"bench\": \"net_throughput\",\n"
      << "  \"transport\": \"tcp-loopback\",\n"
      << "  \"scheduler\": \"Threshold(eps=" << kEps
      << ", m=" << kMachinesPerShard << " per shard)\",\n"
      << "  \"shards\": " << kShards << ",\n"
      << "  \"jobs\": " << jobs << ",\n"
      << env.json_fields()
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunStats& r = runs[i];
    out << "    {\"loops\": " << r.loops
        << ", \"connections\": " << r.connections
        << ", \"batch\": " << r.batch
        << ", \"jobs\": " << r.jobs
        << ", \"seconds\": " << r.seconds
        << ", \"jobs_per_sec\": " << r.jobs_per_sec
        << ", \"answered\": " << r.answered
        << ", \"accepted\": " << r.accepted
        << ", \"rejected\": " << r.rejected
        << ", \"backpressure_retries\": " << r.backpressure_retries
        << ", \"clean\": " << (r.clean ? "true" : "false") << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"wake\": {\"loops\": 1, \"connections\": 2"
      << ", \"loop_mode\": \"open\""
      << ", \"rate\": " << wake.rate
      << ", \"jobs\": " << wake.jobs
      << ", \"answered\": " << wake.answered
      << ", \"decided\": " << wake.decided
      << ", \"decide_p50_us\": " << wake.p50_us
      << ", \"decide_p99_us\": " << wake.p99_us
      << ", \"futex_wakeups\": " << wake.futex_wakeups
      << ", \"loop_wakeups\": " << wake.loop_wakeups
      << ", \"inline_decisions\": " << wake.inline_decisions
      << ", \"wakeups_per_decision\": " << wake.wakeups_per_decision
      << ", \"clean\": " << (wake.clean ? "true" : "false") << "}\n"
      << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Optional override: net_throughput [jobs], default 1M (the acceptance
  // bar); smoke-test with a smaller count, e.g. 50000.
  std::size_t n = 1'000'000;
  if (argc > 1) {
    char* end = nullptr;
    n = static_cast<std::size_t>(std::strtoull(argv[1], &end, 10));
    if (end == argv[1] || *end != '\0' || n == 0) {
      std::fprintf(stderr, "usage: %s [jobs>0]  (got '%s')\n", argv[0],
                   argv[1]);
      return 2;
    }
  }

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  std::printf("NET: admission front end over loopback TCP\n");
  std::printf("  jobs=%zu  scheduler=Threshold(eps=%.2f, m=%d/shard)  "
              "shards=%d  cores=%u\n\n",
              n, kEps, kMachinesPerShard, kShards, cores);

  WorkloadConfig wconfig;
  wconfig.n = n;
  wconfig.eps = kEps;
  wconfig.arrival_rate = 4.0;
  wconfig.seed = 7;
  const Instance instance = generate_workload(wconfig);

  std::printf("  %5s  %5s  %6s  %10s  %14s  %10s  %12s  %s\n", "loops",
              "conns", "batch", "seconds", "jobs/sec", "accepted",
              "bp-retries", "status");
  std::vector<RunStats> runs;
  bool all_clean = true;
  for (const int loops : {1, 2, 4}) {
    for (const unsigned connections : {1u, 4u}) {
      for (const std::size_t batch : {std::size_t{1}, std::size_t{64},
                                      std::size_t{512}}) {
        const RunStats run = run_config(instance, loops, connections, batch);
        std::printf("  %5d  %5u  %6zu  %10.3f  %14.0f  %10zu  %12llu  %s\n",
                    run.loops, run.connections, run.batch, run.seconds,
                    run.jobs_per_sec, run.accepted,
                    static_cast<unsigned long long>(run.backpressure_retries),
                    run.clean ? "clean" : run.problem.c_str());
        all_clean = all_clean && run.clean;
        runs.push_back(run);
      }
    }
  }

  constexpr double kWakeRate = 20000.0;
  const WakeStats wake =
      run_wake_row(instance, std::min<std::size_t>(n, 20000), kWakeRate);
  std::printf("\n  wake row (open loop, %.0f jobs/s, 1 loop, 2 conns, %zu "
              "jobs): decide p50 %.1f us, p99 %.1f us, %.3f wake-ups per "
              "decision (futex %llu, eventfd %llu), %llu run-to-completion  "
              "%s\n",
              wake.rate, wake.jobs, wake.p50_us, wake.p99_us,
              wake.wakeups_per_decision,
              static_cast<unsigned long long>(wake.futex_wakeups),
              static_cast<unsigned long long>(wake.loop_wakeups),
              static_cast<unsigned long long>(wake.inline_decisions),
              wake.clean ? "clean" : wake.problem.c_str());
  all_clean = all_clean && wake.clean;

  // Provenance: the sweep's peak ingest parallelism (4 client
  // connections); clients pipeline within a bounded in-flight window and
  // retry sheds, which is closed-loop load. The wake row records its own
  // open-loop mode.
  write_json(runs, wake, n,
             bench::BenchEnv::detect(4, /*pinned=*/false, "closed"));
  std::printf("\n  wrote BENCH_net.json\n");

  if (!all_clean) {
    std::fprintf(stderr, "FAIL: at least one configuration was not clean\n");
    return 1;
  }
  return 0;
}
