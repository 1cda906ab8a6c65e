// Loopback end-to-end coverage of the networked admission front end:
// the wire path (AdmissionClient -> AdmissionServer -> gateway -> shard
// -> decision hook -> DECISION frame) must be observationally identical
// to the in-process engine, drain must hand back exactly the counters
// AdmissionGateway::finish() reports, the HTTP metrics page must agree
// with those counters after quiesce, and protocol violations must be
// answered with an ERROR frame and a closed connection — never a hang,
// never a silent drop.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "baselines/greedy.hpp"
#include "common/expects.hpp"
#include "core/threshold.hpp"
#include "models/model_factory.hpp"
#include "net/admission_client.hpp"
#include "net/admission_server.hpp"
#include "sched/engine.hpp"
#include "sched/online.hpp"
#include "workload/generators.hpp"

namespace slacksched::net {
namespace {

Instance test_instance(std::size_t n, std::uint64_t seed) {
  WorkloadConfig config;
  config.n = n;
  config.eps = 0.1;
  config.arrival_rate = 2.0;
  config.seed = seed;
  return generate_workload(config);
}

AdmissionServerConfig loopback_config(std::size_t queue_capacity) {
  AdmissionServerConfig config;
  config.gateway.shards = 1;
  config.gateway.routing = RoutingPolicy::kRoundRobin;
  // The lock-free ring requires a power-of-two bound; round instance
  // sizes up rather than sprinkling bit_ceil over every call site.
  config.gateway.queue_capacity = std::bit_ceil(queue_capacity);
  return config;
}

/// Extracts the value of an unlabelled sample from an exposition page.
double metric_value(const std::string& page, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const std::size_t pos = page.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::stod(page.substr(pos + needle.size()));
}

// ---------- equivalence with the in-process engine ----------

TEST(NetServer, LoopbackDecisionStreamEqualsRunOnline) {
  const Instance instance = test_instance(400, 2026);
  ThresholdScheduler reference(0.1, 4);
  const RunResult engine = run_online(reference, instance, RunOptions{});

  AdmissionServerConfig config = loopback_config(instance.size());
  AdmissionServer server(config, [](int) {
    return std::make_unique<ThresholdScheduler>(0.1, 4);
  });
  AdmissionClient client("127.0.0.1", server.port());

  // Pipeline everything, then read replies: a single connection into a
  // single shard preserves submission order end to end.
  std::vector<std::uint64_t> request_ids;
  for (const Job& job : instance.jobs()) {
    request_ids.push_back(client.submit(job));
  }
  std::vector<DecisionReply> replies;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    replies.push_back(client.wait_reply());
  }
  EXPECT_EQ(client.outstanding(), 0u);

  ASSERT_EQ(engine.decisions.size(), instance.size());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const DecisionRecord& expected = engine.decisions[i];
    const DecisionReply& got = replies[i];
    EXPECT_EQ(got.request_id, request_ids[i]) << "reply order broke at " << i;
    EXPECT_EQ(got.job_id, expected.job.id);
    ASSERT_TRUE(got.is_decision());
    EXPECT_EQ(got.outcome == Outcome::kAccepted, expected.decision.accepted);
    if (expected.decision.accepted) {
      EXPECT_EQ(got.machine, expected.decision.machine);
      EXPECT_EQ(got.start, expected.decision.start);  // bit-exact doubles
    }
  }

  // The DRAINED counters are the engine's RunMetrics, bit for bit.
  const DrainedMsg drained = client.drain();
  EXPECT_EQ(drained.submitted, engine.metrics.submitted);
  EXPECT_EQ(drained.accepted, engine.metrics.accepted);
  EXPECT_EQ(drained.rejected, engine.metrics.rejected);
  EXPECT_EQ(drained.accepted_volume, engine.metrics.accepted_volume);
  EXPECT_EQ(drained.rejected_volume, engine.metrics.rejected_volume);
  EXPECT_EQ(drained.makespan, engine.metrics.makespan);
  EXPECT_EQ(drained.clean, 1);

  // The metrics page after drain reports the same final counters.
  const std::string page = http_get_metrics("127.0.0.1", server.port());
  EXPECT_EQ(metric_value(page, "slacksched_accepted_total"),
            static_cast<double>(engine.metrics.accepted));
  EXPECT_EQ(metric_value(page, "slacksched_rejected_total"),
            static_cast<double>(engine.metrics.rejected));
  EXPECT_EQ(metric_value(page, "slacksched_submitted_total"),
            static_cast<double>(engine.metrics.submitted));
}

TEST(NetServer, BatchedSubmitMatchesSingleSubmits) {
  const Instance instance = test_instance(300, 7);
  ThresholdScheduler reference(0.1, 4);
  const RunResult engine = run_online(reference, instance, RunOptions{});

  AdmissionServerConfig config = loopback_config(instance.size());
  AdmissionServer server(config, [](int) {
    return std::make_unique<ThresholdScheduler>(0.1, 4);
  });
  AdmissionClient client("127.0.0.1", server.port());

  const std::uint64_t base = client.submit_batch(instance.jobs());
  std::map<std::uint64_t, DecisionReply> by_request;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const DecisionReply reply = client.wait_reply();
    by_request[reply.request_id] = reply;
  }
  ASSERT_EQ(by_request.size(), instance.size());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const DecisionRecord& expected = engine.decisions[i];
    ASSERT_TRUE(by_request.count(base + i));
    const DecisionReply& got = by_request[base + i];
    EXPECT_EQ(got.job_id, expected.job.id);
    EXPECT_EQ(got.outcome == Outcome::kAccepted, expected.decision.accepted);
  }
}

// ---------- no silent drops under backpressure ----------

TEST(NetServer, EverySubmitIsAnsweredUnderBackpressure) {
  // Tiny queue + slow-ish consumer: many submissions bounce with
  // kRejectedQueueFull. Contract: submitted == decisions + rejects.
  AdmissionServerConfig config = loopback_config(8);
  config.gateway.batch_size = 4;
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });

  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 500;
  std::vector<std::size_t> decided(kClients, 0);
  std::vector<std::size_t> shed(kClients, 0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      AdmissionClient client("127.0.0.1", server.port());
      for (int i = 0; i < kJobsPerClient; ++i) {
        const JobId id = c * kJobsPerClient + i;
        Job job;
        job.id = id;
        job.release = 0.0;
        job.proc = 1.0;
        job.deadline = 1e9;
        (void)client.submit(job);
        const DecisionReply reply = client.wait_reply();
        EXPECT_EQ(reply.job_id, id);
        if (reply.is_decision()) {
          ++decided[static_cast<std::size_t>(c)];
        } else {
          EXPECT_EQ(reply.outcome, Outcome::kRejectedQueueFull);
          ++shed[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::size_t total_decided = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(decided[static_cast<std::size_t>(c)] +
                  shed[static_cast<std::size_t>(c)],
              static_cast<std::size_t>(kJobsPerClient));
    total_decided += decided[static_cast<std::size_t>(c)];
  }
  const GatewayResult result = server.shutdown();
  EXPECT_EQ(result.merged.submitted, total_decided);
}

// ---------- drain semantics ----------

TEST(NetServer, SubmitAfterDrainIsRejectedClosed) {
  AdmissionServerConfig config = loopback_config(64);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });
  AdmissionClient client("127.0.0.1", server.port());

  Job job;
  job.id = 1;
  job.proc = 1.0;
  job.deadline = 100.0;
  const DecisionReply before = client.submit_wait(job);
  EXPECT_TRUE(before.is_decision());

  const DrainedMsg drained = client.drain();
  EXPECT_EQ(drained.submitted, 1u);
  EXPECT_TRUE(server.drained());

  job.id = 2;
  const DecisionReply after = client.submit_wait(job);
  EXPECT_EQ(after.outcome, Outcome::kRejectedClosed);

  // A second DRAIN answers again with the same cached counters.
  const DrainedMsg again = client.drain();
  EXPECT_EQ(again.submitted, drained.submitted);
  EXPECT_EQ(again.accepted, drained.accepted);
}

TEST(NetServer, PingPongEchoesToken) {
  AdmissionServerConfig config = loopback_config(16);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(1);
  });
  AdmissionClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.ping(0xdeadbeef), 0xdeadbeefu);
  // Pipelined submits in flight are buffered, not lost, across a ping.
  Job job;
  job.id = 10;
  job.proc = 1.0;
  job.deadline = 100.0;
  (void)client.submit(job);
  EXPECT_EQ(client.ping(7), 7u);
  DecisionReply reply;
  while (!client.try_reply(reply)) {
    reply = client.wait_reply();
    break;
  }
  EXPECT_EQ(reply.job_id, 10);
}

// ---------- config validation ----------

TEST(NetServer, RefusesToStartOnInvalidGatewayConfig) {
  AdmissionServerConfig config;
  config.gateway.shards = 0;
  config.gateway.enable_tracing = true;
  config.gateway.trace_capacity = 1000;  // not a power of two
  config.gateway.metrics_textfile = "/tmp/slacksched-net-test-metrics.prom";
  config.gateway.metrics_period = std::chrono::milliseconds{0};
  try {
    AdmissionServer server(config, [](int) {
      return std::make_unique<GreedyScheduler>(1);
    });
    FAIL() << "server started on an invalid config";
  } catch (const PreconditionError& e) {
    const std::string message = e.what();
    // Every problem is named in the single refusal message.
    EXPECT_NE(message.find("shards"), std::string::npos);
    EXPECT_NE(message.find("trace_capacity"), std::string::npos);
    EXPECT_NE(message.find("metrics_period"), std::string::npos);
  }
}

TEST(NetServer, GatewayConfigValidateListsEveryProblem) {
  GatewayConfig config;
  EXPECT_TRUE(config.validate().empty());  // defaults are deployable
  config.shards = 0;
  config.queue_capacity = 0;
  config.batch_size = 0;
  config.pop_timeout = std::chrono::milliseconds{0};
  EXPECT_GE(config.validate().size(), 4u);
}

// ---------- protocol violations over a real socket ----------

/// Raw loopback socket for sending hand-forged bytes.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    SLACKSCHED_EXPECTS(fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    SLACKSCHED_EXPECTS(
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
    SLACKSCHED_EXPECTS(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                 sizeof(addr)) == 0);
    // A server that never answers fails the test instead of hanging it.
    timeval timeout{};
    timeout.tv_sec = 10;
    SLACKSCHED_EXPECTS(::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                                    sizeof(timeout)) == 0);
  }
  ~RawConn() { ::close(fd_); }

  void send_bytes(const void* data, std::size_t n) {
    ASSERT_EQ(::send(fd_, data, n, MSG_NOSIGNAL),
              static_cast<ssize_t>(n));
  }

  /// Reads until EOF and returns everything.
  std::string read_to_eof() {
    std::string out;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

  /// Blocks until the next well-formed protocol frame arrives.
  Frame read_frame() {
    Frame frame;
    while (true) {
      const FrameDecoder::Status status = decoder_.next(frame);
      SLACKSCHED_EXPECTS(status != FrameDecoder::Status::kError);
      if (status == FrameDecoder::Status::kFrame) return frame;
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      SLACKSCHED_EXPECTS(n > 0);
      decoder_.feed(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

TEST(NetServer, MalformedStreamGetsErrorFrameAndClose) {
  AdmissionServerConfig config = loopback_config(16);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(1);
  });
  RawConn raw(server.port());
  // A bad-version frame: framing is unrecoverable, so the server answers
  // with one ERROR frame and closes.
  std::vector<char> bytes;
  encode_ping(bytes, 1);
  bytes[0] = 9;  // wrong protocol version
  raw.send_bytes(bytes.data(), bytes.size());
  const std::string response = raw.read_to_eof();

  FrameDecoder decoder;
  decoder.feed(response.data(), response.size());
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_NE(parse_error_message(frame).find("version"), std::string::npos);

  // The server survives to serve well-formed clients.
  AdmissionClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.ping(3), 3u);
}

TEST(NetServer, ClientOnlyFramesAreAProtocolError) {
  AdmissionServerConfig config = loopback_config(16);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(1);
  });
  RawConn raw(server.port());
  std::vector<char> bytes;
  encode_pong(bytes, 5);  // server-to-client frame sent at the server
  raw.send_bytes(bytes.data(), bytes.size());
  const std::string response = raw.read_to_eof();
  FrameDecoder decoder;
  decoder.feed(response.data(), response.size());
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kError);
}

TEST(NetServer, SubmitBreakingTheFieldRuleGetsErrorFrame) {
  AdmissionServerConfig config = loopback_config(16);
  AdmissionServer server(config, [](int) {
    return std::make_unique<ThresholdScheduler>(0.1, 2);
  });
  Job zero_proc;
  zero_proc.id = 1;
  zero_proc.proc = 0.0;
  zero_proc.deadline = 10.0;
  Job nan_deadline;
  nan_deadline.id = 2;
  nan_deadline.proc = 1.0;
  nan_deadline.deadline = std::nan("");
  for (const Job& bad : {zero_proc, nan_deadline}) {
    RawConn raw(server.port());
    std::vector<char> bytes;
    encode_submit(bytes, SubmitMsg{7, bad});
    raw.send_bytes(bytes.data(), bytes.size());
    const std::string response = raw.read_to_eof();
    FrameDecoder decoder;
    decoder.feed(response.data(), response.size());
    Frame frame;
    ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame)
        << bad.to_string();
    EXPECT_EQ(frame.type, FrameType::kError);
    EXPECT_NE(parse_error_message(frame).find("J" + std::to_string(bad.id)),
              std::string::npos)
        << parse_error_message(frame);
  }

  // No shard saw either job: a valid SUBMIT on a new connection is still
  // answered, and the shard stays healthy.
  RawConn raw(server.port());
  Job good;
  good.id = 3;
  good.proc = 1.0;
  good.deadline = 10.0;
  std::vector<char> bytes;
  encode_submit(bytes, SubmitMsg{8, good});
  raw.send_bytes(bytes.data(), bytes.size());
  const Frame frame = raw.read_frame();
  ASSERT_EQ(frame.type, FrameType::kDecision);
  DecisionMsg decision;
  std::string error;
  ASSERT_TRUE(parse_decision(frame, decision, &error)) << error;
  EXPECT_EQ(decision.job_id, good.id);
  EXPECT_EQ(server.gateway().shard_health(0), ShardHealth::kHealthy);
}

TEST(NetServer, HttpUnknownPathIs404) {
  AdmissionServerConfig config = loopback_config(16);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(1);
  });
  RawConn raw(server.port());
  const std::string request = "GET /nope HTTP/1.0\r\n\r\n";
  raw.send_bytes(request.data(), request.size());
  const std::string response = raw.read_to_eof();
  EXPECT_NE(response.find("404"), std::string::npos);
}

TEST(NetServer, HttpMetricsServesWhileTrafficFlows) {
  AdmissionServerConfig config = loopback_config(1024);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });
  AdmissionClient client("127.0.0.1", server.port());
  for (JobId id = 0; id < 100; ++id) {
    Job job;
    job.id = id;
    job.proc = 1.0;
    job.deadline = 1e9;
    (void)client.submit(job);
  }
  const std::string page = http_get_metrics("127.0.0.1", server.port());
  EXPECT_NE(page.find("# HELP slacksched_shards"), std::string::npos);
  EXPECT_NE(page.find("slacksched_outcomes_total"), std::string::npos);
  for (int i = 0; i < 100; ++i) (void)client.wait_reply();
}

// ---------- retry policy + retrying submitter ----------

TEST(NetClient, RetryPolicyDelayIsDeterministicCappedAndFloored) {
  RetryPolicy policy;
  policy.initial_delay = std::chrono::milliseconds(2);
  policy.factor = 2.0;
  policy.max_delay = std::chrono::milliseconds(50);
  policy.jitter_seed = 42;

  RetryPolicy same = policy;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const auto d = policy.delay(attempt, 0);
    // Equal seeds replay equal schedules.
    EXPECT_EQ(d.count(), same.delay(attempt, 0).count()) << attempt;
    // Jitter scales into [0.5, 1.0] of the capped exponential.
    EXPECT_GE(d.count(), 1) << attempt;
    EXPECT_LE(d.count(), policy.max_delay.count()) << attempt;
  }
  // A server hint larger than the local schedule becomes the floor.
  EXPECT_GE(policy.delay(1, 200).count(), 200);

  RetryPolicy other = policy;
  other.jitter_seed = 43;
  bool diverged = false;
  for (int attempt = 2; attempt <= 12 && !diverged; ++attempt) {
    diverged = other.delay(attempt, 0) != policy.delay(attempt, 0);
  }
  EXPECT_TRUE(diverged) << "different seeds never diverged";
}

TEST(NetClient, RetryingSubmitterAnswersEveryJobUnderBackpressure) {
  // Same tiny-queue squeeze as EverySubmitIsAnsweredUnderBackpressure,
  // but the library's RetryingSubmitter resubmits the queue-full sheds:
  // the contract tightens to every job ending in a rendered decision.
  AdmissionServerConfig config = loopback_config(8);
  config.gateway.batch_size = 4;
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });

  AdmissionClient client("127.0.0.1", server.port());
  RetryPolicy policy;
  policy.max_attempts = 0;  // unlimited
  policy.initial_delay = std::chrono::milliseconds(1);
  policy.max_delay = std::chrono::milliseconds(4);
  RetryingSubmitter submitter(client, policy);

  constexpr std::size_t kJobs = 300;
  std::vector<Job> jobs(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs[i].id = static_cast<JobId>(i);
    jobs[i].release = 0.0;
    jobs[i].proc = 1.0;
    jobs[i].deadline = 1e9;
  }
  // Mix the two enqueue shapes: a pipelined batch frame + singles.
  submitter.enqueue_batch(std::span<const Job>(jobs.data(), kJobs / 2));
  for (std::size_t i = kJobs / 2; i < kJobs; ++i) {
    submitter.enqueue(jobs[i]);
  }

  std::size_t decided = 0;
  DecisionReply reply;
  while (submitter.pump(reply)) {
    EXPECT_TRUE(reply.is_decision())
        << "job " << reply.job_id << " ended as "
        << static_cast<int>(reply.outcome);
    ++decided;
  }
  EXPECT_EQ(decided, kJobs);
  EXPECT_EQ(submitter.in_flight(), 0u);
  const GatewayResult result = server.shutdown();
  EXPECT_EQ(result.merged.submitted, kJobs);
}

// ---------- idle-connection reaping ----------

TEST(NetServer, IdleConnectionsAreReapedActiveOnesSurvive) {
  AdmissionServerConfig config = loopback_config(64);
  config.idle_timeout = std::chrono::milliseconds(100);
  config.reap_interval = std::chrono::milliseconds(20);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });

  RawConn idle(server.port());  // connects, then never sends a byte
  AdmissionClient active("127.0.0.1", server.port());

  // Keep the active connection busy well past the idle deadline.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  std::uint64_t token = 1;
  while (std::chrono::steady_clock::now() < until) {
    EXPECT_EQ(active.ping(token), token);
    ++token;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // The reaper closed the idle peer: its read sees EOF without help.
  EXPECT_EQ(idle.read_to_eof(), "");
  EXPECT_GE(server.connections_reaped(), 1u);
  const std::string page = http_get_metrics("127.0.0.1", server.port());
  EXPECT_GE(metric_value(page, "slacksched_connections_reaped_total"), 1.0);

  // The active connection outlived every deadline.
  EXPECT_EQ(active.ping(token), token);
}

TEST(NetServer, ReapingDisabledKeepsIdleConnectionsOpen) {
  AdmissionServerConfig config = loopback_config(64);  // idle_timeout 0
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });
  RawConn idle(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(server.connections_reaped(), 0u);
  // Still serviceable: a PING on the long-idle connection round-trips.
  AdmissionClient probe("127.0.0.1", server.port());
  EXPECT_EQ(probe.ping(7), 7u);
}

// ---------- owed DECISIONs outrank the idle reaper ----------

/// Delegates to an inner scheduler after a wall-clock stall, stretching
/// the submit->DECISION window far past any idle deadline.
class SlowScheduler final : public OnlineScheduler {
 public:
  SlowScheduler(std::unique_ptr<OnlineScheduler> inner,
                std::chrono::milliseconds stall)
      : inner_(std::move(inner)), stall_(stall) {}

  Decision on_arrival(const Job& job) override {
    std::this_thread::sleep_for(stall_);
    return inner_->on_arrival(job);
  }
  [[nodiscard]] int machines() const override { return inner_->machines(); }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::string name() const override {
    return "slow(" + inner_->name() + ")";
  }

 private:
  std::unique_ptr<OnlineScheduler> inner_;
  std::chrono::milliseconds stall_;
};

TEST(NetServer, ReaperNeverDropsAnOwedDecision) {
  // The decision takes ~8 reap ticks to render while the connection's
  // wire stays silent. The pre-fix reaper closed it mid-wait and dropped
  // the owed DECISION; the owed-count exemption must keep it alive until
  // both replies land — every SUBMIT answered exactly once, every seed.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    AdmissionServerConfig config = loopback_config(64);
    config.idle_timeout = std::chrono::milliseconds(30);
    config.reap_interval = std::chrono::milliseconds(10);
    AdmissionServer server(config, [](int) {
      return std::make_unique<SlowScheduler>(
          std::make_unique<GreedyScheduler>(2),
          std::chrono::milliseconds(80));
    });
    AdmissionClient client("127.0.0.1", server.port());
    RawConn idle(server.port());  // control: truly idle, still reapable

    std::vector<std::uint64_t> request_ids;
    for (int i = 0; i < 2; ++i) {
      Job job;
      job.id = static_cast<JobId>(2 * seed + static_cast<std::uint64_t>(i));
      job.proc = 1.0 + static_cast<double>(seed % 5);
      job.deadline = 1e9;
      request_ids.push_back(client.submit(job));
    }
    for (int i = 0; i < 2; ++i) {
      const DecisionReply reply = client.wait_reply();
      EXPECT_EQ(reply.request_id, request_ids[static_cast<std::size_t>(i)]);
      EXPECT_TRUE(reply.is_decision());
    }
    EXPECT_EQ(client.outstanding(), 0u);
    // The exemption is per-owed-connection, not a reaper kill switch: the
    // idle control connection was closed during the same window.
    EXPECT_EQ(idle.read_to_eof(), "");
    EXPECT_GE(server.connections_reaped(), 1u);
  }
}

// ---------- first-write classification ----------

TEST(NetServer, TrickledBinaryFirstByteReachesDecoder) {
  // One byte, then silence: the old sniffer buffered anything under 4
  // bytes without feeding the FrameDecoder, so a client that paused after
  // a short first write hung forever. The first byte of every protocol
  // frame (version = 1) already rules out "GET ".
  AdmissionServerConfig config = loopback_config(16);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(1);
  });
  RawConn raw(server.port());
  std::vector<char> bytes;
  encode_ping(bytes, 0x2a);
  raw.send_bytes(bytes.data(), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (std::size_t i = 1; i < bytes.size(); ++i) {
    raw.send_bytes(bytes.data() + i, 1);  // keep trickling, byte at a time
  }
  const Frame frame = raw.read_frame();
  ASSERT_EQ(frame.type, FrameType::kPong);
  std::uint64_t token = 0;
  std::string error;
  ASSERT_TRUE(parse_token(frame, token, &error)) << error;
  EXPECT_EQ(token, 0x2au);
}

TEST(NetServer, HttpClassificationSurvivesSplitPrefixWrite) {
  // "G" alone is still a proper prefix of "GET ", so classification must
  // stay open until the request line resolves it.
  AdmissionServerConfig config = loopback_config(16);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(1);
  });
  RawConn raw(server.port());
  raw.send_bytes("G", 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::string rest = "ET /metrics HTTP/1.0\r\n\r\n";
  raw.send_bytes(rest.data(), rest.size());
  const std::string response = raw.read_to_eof();
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("slacksched_submitted_total"), std::string::npos);
}

// ---------- accept failure handling ----------

std::size_t count_open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  SLACKSCHED_EXPECTS(dir != nullptr);
  std::size_t n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n - 3;  // ".", "..", and the directory's own fd
}

TEST(NetServer, FdExhaustionBacksOffCountsAndRecovers) {
  AdmissionServerConfig config = loopback_config(16);
  config.accept_backoff = std::chrono::milliseconds(50);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(1);
  });

  // The client socket exists before the clamp; its connect() completes in
  // the kernel regardless. Only the server-side accept4 needs a new fd.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  timeval rcv_timeout{5, 0};  // a broken rearm must fail, not hang
  (void)setsockopt(probe, SOL_SOCKET, SO_RCVTIMEO, &rcv_timeout,
                   sizeof(rcv_timeout));

  rlimit original{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);
  rlimit clamped = original;
  clamped.rlim_cur = count_open_fds();  // zero headroom: next fd fails
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &clamped), 0);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // accept4 hits EMFILE: the error is counted and the listener disarmed
  // (no hot spin — pre-fix this silently burned a core).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.accept_errors() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server.accept_errors(), 1u);

  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &original), 0);

  // The connection stayed in the backlog; after accept_backoff the
  // listener rearms and adopts it — the same socket now round-trips.
  std::vector<char> ping;
  encode_ping(ping, 17);
  ASSERT_EQ(::send(probe, ping.data(), ping.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(ping.size()));
  FrameDecoder decoder;
  Frame frame;
  char buf[4096];
  while (decoder.next(frame) != FrameDecoder::Status::kFrame) {
    const ssize_t n = ::recv(probe, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "no PONG after listener rearm";
    decoder.feed(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(frame.type, FrameType::kPong);
  ::close(probe);

  const std::string page = http_get_metrics("127.0.0.1", server.port());
  EXPECT_GE(metric_value(page, "slacksched_accept_errors_total"), 1.0);
}

// ---------- multi-loop front end ----------

TEST(NetServer, MultiLoopDecisionStreamEqualsRunOnline) {
  // One client lands on one loop; with a single shard behind the gateway
  // the ordered bit-identical pin must hold regardless of loop count.
  const Instance instance = test_instance(300, 4242);
  ThresholdScheduler reference(0.1, 4);
  const RunResult engine = run_online(reference, instance, RunOptions{});

  AdmissionServerConfig config = loopback_config(instance.size());
  config.loops = 2;
  AdmissionServer server(config, [](int) {
    return std::make_unique<ThresholdScheduler>(0.1, 4);
  });
  EXPECT_EQ(server.loops(), 2);
  AdmissionClient client("127.0.0.1", server.port());

  std::vector<std::uint64_t> request_ids;
  for (const Job& job : instance.jobs()) {
    request_ids.push_back(client.submit(job));
  }
  ASSERT_EQ(engine.decisions.size(), instance.size());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const DecisionRecord& expected = engine.decisions[i];
    const DecisionReply got = client.wait_reply();
    EXPECT_EQ(got.request_id, request_ids[i]);
    EXPECT_EQ(got.job_id, expected.job.id);
    ASSERT_TRUE(got.is_decision());
    EXPECT_EQ(got.outcome == Outcome::kAccepted, expected.decision.accepted);
    if (expected.decision.accepted) {
      EXPECT_EQ(got.machine, expected.decision.machine);
      EXPECT_EQ(got.start, expected.decision.start);  // bit-exact doubles
    }
  }
  const DrainedMsg drained = client.drain();
  EXPECT_EQ(drained.submitted, engine.metrics.submitted);
  EXPECT_EQ(drained.accepted, engine.metrics.accepted);
  EXPECT_EQ(drained.makespan, engine.metrics.makespan);
}

TEST(NetServer, MultiLoopAnswersEverySubmitHandoff) {
  AdmissionServerConfig config = loopback_config(8);
  config.gateway.batch_size = 4;
  config.loops = 4;
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });

  constexpr int kClients = 8;
  constexpr int kJobsPerClient = 200;
  std::vector<std::size_t> answered(kClients, 0);
  std::vector<std::size_t> decided(kClients, 0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      AdmissionClient client("127.0.0.1", server.port());
      for (int i = 0; i < kJobsPerClient; ++i) {
        const JobId id = c * kJobsPerClient + i;
        Job job;
        job.id = id;
        job.proc = 1.0;
        job.deadline = 1e9;
        (void)client.submit(job);
        const DecisionReply reply = client.wait_reply();
        EXPECT_EQ(reply.job_id, id);
        ++answered[static_cast<std::size_t>(c)];
        if (reply.is_decision()) ++decided[static_cast<std::size_t>(c)];
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::size_t total_decided = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(answered[static_cast<std::size_t>(c)],
              static_cast<std::size_t>(kJobsPerClient));
    total_decided += decided[static_cast<std::size_t>(c)];
  }
  const GatewayResult result = server.shutdown();
  EXPECT_EQ(result.merged.submitted, total_decided);
}

TEST(NetServer, DrainPropagatesAcrossLoops) {
  // The acceptor hands connections out round-robin, so three sequential
  // connects land on three different loops. A DRAIN on one loop must
  // close the gateway for all of them.
  AdmissionServerConfig config = loopback_config(64);
  config.loops = 3;
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });

  AdmissionClient a("127.0.0.1", server.port());
  Job job;
  job.id = 1;
  job.proc = 1.0;
  job.deadline = 100.0;
  EXPECT_TRUE(a.submit_wait(job).is_decision());

  AdmissionClient b("127.0.0.1", server.port());
  const DrainedMsg drained = b.drain();
  EXPECT_EQ(drained.submitted, 1u);
  EXPECT_TRUE(server.drained());

  job.id = 2;
  EXPECT_EQ(a.submit_wait(job).outcome, Outcome::kRejectedClosed);
  AdmissionClient c("127.0.0.1", server.port());
  EXPECT_EQ(c.ping(11), 11u);
}

// ---------- every submission is answered with its own decision ----------

/// Rejects every job: a shard whose answer cannot be mistaken for the
/// accepting shard's.
class RejectAllScheduler final : public OnlineScheduler {
 public:
  explicit RejectAllScheduler(int machines) : machines_(machines) {}
  Decision on_arrival(const Job& /*job*/) override {
    return Decision::reject();
  }
  [[nodiscard]] int machines() const override { return machines_; }
  void reset() override {}
  [[nodiscard]] std::string name() const override { return "reject-all"; }

 private:
  int machines_;
};

/// Two round-robin shards that answer the same job differently: shard 0
/// rejects after a 100 ms stall, shard 1 accepts at once. Whoever reads a
/// decision can tell which shard rendered it.
AdmissionServerConfig split_verdict_config() {
  AdmissionServerConfig config = loopback_config(16);
  config.gateway.shards = 2;
  return config;
}

std::unique_ptr<OnlineScheduler> split_verdict_shard(int shard) {
  if (shard == 0) {
    return std::make_unique<SlowScheduler>(
        std::make_unique<RejectAllScheduler>(2),
        std::chrono::milliseconds(100));
  }
  return std::make_unique<GreedyScheduler>(2);
}

/// Blocks until the gateway has enqueued `count` jobs in total, so the
/// next submission is routed to the next round-robin shard.
void wait_enqueued(AdmissionServer& server, std::size_t count) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.gateway().metrics_snapshot().total.enqueued < count) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Job job_seven() {
  Job job;
  job.id = 7;
  job.proc = 1.0;
  job.deadline = 1e9;
  return job;
}

TEST(NetServer, SameJobIdOnTwoConnectionsGetsItsOwnDecision) {
  // A's job 7 goes to the slow rejecting shard, B's job 7 to the fast
  // accepting one. Replies keyed by job id crossed them: B's acceptance
  // was delivered to A and A's rejection to B.
  AdmissionServerConfig config = split_verdict_config();
  AdmissionServer server(config, split_verdict_shard);
  AdmissionClient a("127.0.0.1", server.port());
  AdmissionClient b("127.0.0.1", server.port());

  const std::uint64_t a_request = a.submit(job_seven());
  wait_enqueued(server, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t b_request = b.submit(job_seven());

  const DecisionReply b_reply = b.wait_reply();
  const DecisionReply a_reply = a.wait_reply();
  EXPECT_EQ(a_reply.request_id, a_request);
  EXPECT_EQ(a_reply.job_id, 7);
  EXPECT_EQ(a_reply.outcome, Outcome::kRejected);
  EXPECT_EQ(b_reply.request_id, b_request);
  EXPECT_EQ(b_reply.job_id, 7);
  EXPECT_EQ(b_reply.outcome, Outcome::kAccepted);

  // Exactly one answer each: nothing else arrives before the DRAINED.
  (void)a.drain();
  DecisionReply extra;
  EXPECT_FALSE(a.try_reply(extra));
  EXPECT_EQ(b.ping(5), 5u);
  EXPECT_FALSE(b.try_reply(extra));
}

TEST(NetServer, EmbedderSubmissionDoesNotTakeAClientsReply) {
  // While the client's job 7 waits on the slow rejecting shard, the
  // embedding process submits its own job 7 (route_ctx 0), which the
  // accepting shard decides first. That decision is owed to nobody; the
  // client must still receive its own rejection, and only that.
  AdmissionServerConfig config = split_verdict_config();
  AdmissionServer server(config, split_verdict_shard);
  AdmissionClient client("127.0.0.1", server.port());

  const std::uint64_t request = client.submit(job_seven());
  wait_enqueued(server, 1);
  ASSERT_EQ(server.gateway().submit(job_seven()), Outcome::kEnqueued);

  const DecisionReply reply = client.wait_reply();
  EXPECT_EQ(reply.request_id, request);
  EXPECT_EQ(reply.job_id, 7);
  EXPECT_EQ(reply.outcome, Outcome::kRejected);

  const DrainedMsg drained = client.drain();
  EXPECT_EQ(drained.submitted, 2u);
  EXPECT_EQ(drained.accepted, 1u);
  DecisionReply extra;
  EXPECT_FALSE(client.try_reply(extra));
}

TEST(NetServer, DeltaCommitmentAnswersEverySubmitOnceAndMatchesRunOnline) {
  // δ-commitment defers decisions past the SUBMIT's arrival, so replies
  // come back out of submission order — some only when DRAIN flushes the
  // deferred tail. Each reply slot must survive the deferral and carry
  // its own (request id, job id); the accepted set is the engine's.
  ModelConfig model;
  model.model = CommitModel::kDelta;
  model.delta = 0.5;
  model.queue = QueuePolicy::kEdf;
  model.machines = 2;
  const Instance instance = test_instance(300, 611);
  auto reference = make_scheduler(model);
  const RunResult engine = run_online(*reference, instance, RunOptions{});
  std::set<JobId> expected_accepted;
  for (const DecisionRecord& record : engine.decisions) {
    if (record.decision.accepted) expected_accepted.insert(record.job.id);
  }
  ASSERT_FALSE(expected_accepted.empty());
  ASSERT_LT(expected_accepted.size(), instance.size());

  for (const int loops : {1, 2}) {
    SCOPED_TRACE("loops=" + std::to_string(loops));
    AdmissionServerConfig config = loopback_config(instance.size());
    config.loops = loops;
    config.gateway.model = model;
    AdmissionServer server(config, [model](int) {
      return make_scheduler(model);
    });
    // With two loops the first connection stays on loop 0; the client
    // under test is handed to loop 1.
    AdmissionClient bystander("127.0.0.1", server.port());
    EXPECT_EQ(bystander.ping(1), 1u);
    AdmissionClient client("127.0.0.1", server.port());

    std::map<std::uint64_t, JobId> job_of_request;
    for (const Job& job : instance.jobs()) {
      job_of_request[client.submit(job)] = job.id;
    }
    const DrainedMsg drained = client.drain();
    EXPECT_EQ(drained.submitted, instance.size());

    std::map<std::uint64_t, int> answers;
    std::vector<std::uint64_t> reply_order;
    std::set<JobId> accepted;
    DecisionReply reply;
    while (client.try_reply(reply)) {
      ++answers[reply.request_id];
      reply_order.push_back(reply.request_id);
      auto it = job_of_request.find(reply.request_id);
      ASSERT_NE(it, job_of_request.end()) << reply.request_id;
      EXPECT_EQ(reply.job_id, it->second);
      EXPECT_TRUE(reply.is_decision()) << "job " << reply.job_id;
      if (reply.outcome == Outcome::kAccepted) accepted.insert(reply.job_id);
    }
    EXPECT_EQ(answers.size(), instance.size());
    // Deferral really happened: answers left submission order.
    EXPECT_FALSE(std::is_sorted(reply_order.begin(), reply_order.end()));
    for (const auto& [request, count] : answers) {
      EXPECT_EQ(count, 1) << "request " << request;
    }
    EXPECT_EQ(accepted, expected_accepted);
    EXPECT_EQ(drained.accepted, expected_accepted.size());
  }
}

}  // namespace
}  // namespace slacksched::net
