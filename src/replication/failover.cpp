#include "replication/failover.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "replication/replica_server.hpp"
#include "service/commit_log.hpp"

namespace slacksched::repl {

namespace {

using Clock = std::chrono::steady_clock;

/// Fail-fast pre-check of one replica log's header before the real
/// replay. Returns false with `why` on a log promotion could never serve
/// from; a torn record tail passes (the replay truncates it).
bool precheck_log(const std::string& path, std::string* why) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return true;  // fresh shard: nothing to replay
    *why = "cannot read " + path + ": " + std::strerror(errno);
    return false;
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    *why = "cannot seek " + path + ": " + std::strerror(errno);
  } else if (static_cast<std::size_t>(size) >= kWalHeaderBytes) {
    // A whole header is only read and checked. The machine count is the
    // scheduler factory's to check, at replay.
    *why = prepare_wal_header(fd, static_cast<std::size_t>(size),
                              /*machines=*/0, path);
  }  // else: header never completed, recovers to a fresh state
  ::close(fd);
  return why->empty();
}

}  // namespace

std::string to_string(NodeHealth health) {
  switch (health) {
    case NodeHealth::kHealthy:
      return "healthy";
    case NodeHealth::kDegraded:
      return "degraded";
    case NodeHealth::kDown:
      return "down";
  }
  return "unknown";
}

FailoverDriver::FailoverDriver(const ReplicaServer& replica,
                               const FailoverConfig& config,
                               std::function<void()> on_down)
    : replica_(replica), config_(config), on_down_(std::move(on_down)) {}

FailoverDriver::~FailoverDriver() { stop(); }

void FailoverDriver::start() {
  if (started_) return;
  started_ = true;
  started_at_ = Clock::now();
  monitor_ = std::thread([this] { monitor_loop(); });
}

void FailoverDriver::stop() {
  stop_.store(true, std::memory_order_release);
  if (monitor_.joinable()) monitor_.join();
}

void FailoverDriver::monitor_loop() {
  auto next_probe = Clock::time_point::max();
  int attempts = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(config_.poll_interval);
    const auto now = Clock::now();
    // A leader that never connected has been "silent" since start();
    // otherwise silence is measured from its last valid frame.
    const auto activity_age = replica_.last_activity_age();
    const auto silence =
        std::min<Clock::duration>(activity_age, now - started_at_);

    if (silence < config_.stall_threshold) {
      if (health_.load(std::memory_order_relaxed) != NodeHealth::kHealthy) {
        health_.store(NodeHealth::kHealthy, std::memory_order_release);
      }
      attempts = 0;
      probes_.store(0, std::memory_order_relaxed);
      next_probe = Clock::time_point::max();
      continue;
    }

    if (health_.load(std::memory_order_relaxed) == NodeHealth::kHealthy) {
      health_.store(NodeHealth::kDegraded, std::memory_order_release);
      attempts = 1;
      probes_.store(1, std::memory_order_relaxed);
      next_probe = now + config_.probe_delay(attempts);
    }

    const bool probes_exhausted =
        attempts > config_.max_probes ||
        (now >= next_probe && attempts >= config_.max_probes);
    if (silence >= config_.down_threshold || probes_exhausted) {
      health_.store(NodeHealth::kDown, std::memory_order_release);
      if (!circuit_broken_.exchange(true, std::memory_order_acq_rel)) {
        if (on_down_) on_down_();
      }
      return;  // terminal: no automatic fail-back
    }

    if (now >= next_probe) {
      // The probe found the leader still silent (a resumed leader was
      // caught by the stall check above): burn one attempt, back off.
      ++attempts;
      probes_.store(attempts, std::memory_order_relaxed);
      next_probe = now + config_.probe_delay(attempts);
    }
  }
}

PromotionResult promote_replica(const GatewayConfig& config,
                                const ShardSchedulerFactory& factory,
                                FaultInjector* faults) {
  PromotionResult result;
  if (config.wal_dir.empty()) {
    result.error = "promotion requires config.wal_dir (the replica logs)";
    return result;
  }
  try {
    for (int s = 0; s < config.shards; ++s) {
      // The chaos harness arms this site to kill the follower between
      // per-shard replays — promotion must be idempotent across it.
      SLACKSCHED_FAULT_CRASH_POINT(faults, FaultSite::kFailover, s);
      const std::string path =
          config.wal_dir + "/shard-" + std::to_string(s) + ".wal";
      std::string why;
      if (!precheck_log(path, &why)) {
        result.error = "shard " + std::to_string(s) + ": " + why;
        return result;
      }
    }
    // The real replay: each Shard::spawn runs recover_commit_log with
    // full commitment re-validation and resumes serving from the result.
    result.gateway = factory
                         ? std::make_unique<AdmissionGateway>(config, factory)
                         : std::make_unique<AdmissionGateway>(config);
    result.records_recovered =
        result.gateway->metrics_snapshot().total.wal_records_replayed;
    result.ok = true;
  } catch (const std::exception& e) {
    result.gateway.reset();
    result.error = e.what();
  }
  return result;
}

}  // namespace slacksched::repl
