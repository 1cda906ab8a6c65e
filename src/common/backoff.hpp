// The one backoff primitive: capped exponential growth with deterministic
// SplitMix64 jitter. Shard restarts (service/supervisor.hpp), follower
// probes (replication/failover.hpp) and client retries
// (net/admission_client.hpp) all schedule their delays through it; each
// caller mixes its own jitter seed, so equal seeds replay equal schedules.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "common/rng.hpp"

namespace slacksched {

/// Delay before attempt `attempt` (1-based): `initial` grown by `factor`
/// once per earlier attempt and capped at `max` at every step, scaled by
/// a jitter in [0.5, 1.0] drawn from SplitMix64(`jitter_seed`), and never
/// below 1 ms.
[[nodiscard]] inline std::chrono::milliseconds backoff_delay(
    std::chrono::milliseconds initial, double factor,
    std::chrono::milliseconds max, int attempt, std::uint64_t jitter_seed) {
  const auto cap = static_cast<double>(max.count());
  double ms = std::min(static_cast<double>(initial.count()), cap);
  for (int i = 1; i < attempt; ++i) ms = std::min(ms * factor, cap);
  SplitMix64 mix(jitter_seed);
  ms *= 0.5 + 0.5 * static_cast<double>(mix.next() >> 11) * 0x1p-53;
  return std::chrono::milliseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(ms)));
}

}  // namespace slacksched
