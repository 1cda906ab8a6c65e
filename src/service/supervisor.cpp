#include "service/supervisor.hpp"

#include "common/expects.hpp"

namespace slacksched {

std::string to_string(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kDown:
      return "down";
    case ShardHealth::kRecovering:
      return "recovering";
  }
  return "unknown";
}

ShardSupervisor::ShardSupervisor(std::vector<std::unique_ptr<Shard>>& shards,
                                 const SupervisorConfig& config)
    : shards_(shards), config_(config) {
  SLACKSCHED_EXPECTS(!shards.empty());
  SLACKSCHED_EXPECTS(config.poll_interval.count() >= 1);
  SLACKSCHED_EXPECTS(config.stall_threshold < config.down_threshold);
  SLACKSCHED_EXPECTS(config.max_restarts >= 0);
  SLACKSCHED_EXPECTS(config.backoff_factor >= 1.0);
  states_.reserve(shards.size());
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < shards.size(); ++s) {
    auto state = std::make_unique<State>();
    state->last_progress = now;
    states_.push_back(std::move(state));
  }
}

ShardSupervisor::~ShardSupervisor() { stop(); }

void ShardSupervisor::start() {
  if (!config_.enabled) return;
  std::lock_guard lock(control_mutex_);
  SLACKSCHED_EXPECTS(!running_);
  running_ = true;
  stop_requested_ = false;
  monitor_ = std::thread([this] { monitor_loop(); });
}

void ShardSupervisor::stop() {
  {
    std::lock_guard lock(control_mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  monitor_.join();
  std::lock_guard lock(control_mutex_);
  running_ = false;
}

bool ShardSupervisor::any_available() const {
  for (std::size_t s = 0; s < states_.size(); ++s) {
    if (available(static_cast<int>(s))) return true;
  }
  return false;
}

void ShardSupervisor::force_down(int shard) {
  State& state = *states_[static_cast<std::size_t>(shard)];
  state.forced_down.store(true, std::memory_order_release);
  state.health.store(ShardHealth::kDown, std::memory_order_release);
  shards_[static_cast<std::size_t>(shard)]->close();  // drain and exit
}

bool ShardSupervisor::force_recover(int shard) {
  std::lock_guard lock(control_mutex_);
  State& state = *states_[static_cast<std::size_t>(shard)];
  state.forced_down.store(false, std::memory_order_release);
  state.circuit_broken.store(false, std::memory_order_release);
  state.attempts = 0;
  state.restart_pending = false;
  Shard& target = *shards_[static_cast<std::size_t>(shard)];
  if (!target.worker_exited()) {
    // Worker still alive (e.g. force_down mid-drain): let it finish the
    // backlog first; the caller retries once worker_exited() holds.
    state.health.store(ShardHealth::kDown, std::memory_order_release);
    return false;
  }
  return restart_locked(shard, state);
}

bool ShardSupervisor::restart_locked(int shard, State& state) {
  Shard& target = *shards_[static_cast<std::size_t>(shard)];
  state.health.store(ShardHealth::kRecovering, std::memory_order_release);
  if (!target.restart()) {
    state.health.store(ShardHealth::kDown, std::memory_order_release);
    return false;
  }
  state.restarts.fetch_add(1, std::memory_order_relaxed);
  state.last_beat = target.heartbeat();
  state.last_progress = std::chrono::steady_clock::now();
  state.health.store(ShardHealth::kHealthy, std::memory_order_release);
  return true;
}

void ShardSupervisor::monitor_loop() {
  std::unique_lock lock(control_mutex_);
  while (!stop_requested_) {
    stop_cv_.wait_for(lock, config_.poll_interval,
                      [this] { return stop_requested_; });
    if (stop_requested_) break;
    tick(std::chrono::steady_clock::now());
  }
}

void ShardSupervisor::tick(std::chrono::steady_clock::time_point now) {
  // Caller (monitor_loop) holds control_mutex_.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    State& state = *states_[s];
    Shard& shard = *shards_[s];
    if (state.forced_down.load(std::memory_order_acquire) ||
        state.circuit_broken.load(std::memory_order_acquire)) {
      state.health.store(ShardHealth::kDown, std::memory_order_release);
      continue;
    }

    if (shard.worker_exited()) {
      if (!shard.worker_failed()) {
        // Clean exit (queue closed and drained): nothing to restart.
        state.health.store(ShardHealth::kDown, std::memory_order_release);
        continue;
      }
      if (!state.restart_pending) {
        ++state.attempts;
        if (state.attempts > config_.max_restarts) {
          state.circuit_broken.store(true, std::memory_order_release);
          state.health.store(ShardHealth::kDown, std::memory_order_release);
          continue;
        }
        state.restart_pending = true;
        state.next_restart =
            now + config_.restart_delay(static_cast<int>(s), state.attempts);
        state.health.store(ShardHealth::kDown, std::memory_order_release);
      } else if (now >= state.next_restart) {
        state.restart_pending = false;
        restart_locked(static_cast<int>(s), state);
        // On failure the shard is Down again; the next tick schedules the
        // next attempt (or breaks the circuit).
      }
      continue;
    }

    // Live worker: progress is a moving heartbeat.
    const std::uint64_t beat = shard.heartbeat();
    if (beat != state.last_beat) {
      state.last_beat = beat;
      state.last_progress = now;
      state.health.store(ShardHealth::kHealthy, std::memory_order_release);
      continue;
    }
    const auto stalled = now - state.last_progress;
    if (stalled >= config_.down_threshold) {
      // A live-but-wedged thread cannot be joined safely; exclude it from
      // routing and wait for the heartbeat to resume.
      state.health.store(ShardHealth::kDown, std::memory_order_release);
    } else if (stalled >= config_.stall_threshold) {
      state.health.store(ShardHealth::kDegraded, std::memory_order_release);
    }
  }
}

}  // namespace slacksched
