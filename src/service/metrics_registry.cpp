#include "service/metrics_registry.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/expects.hpp"

namespace slacksched {

namespace {

/// Relaxed single-writer accumulate: only the shard's baton holder
/// read-modify-writes these doubles, and the baton orders one holder's
/// writes before the next's, so load+store (no CAS) is race-free.
void accumulate(std::atomic<double>& target, double delta) {
  target.store(target.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
}

/// Raises `peak` to at least `observed` under concurrent writers.
void raise_peak(std::atomic<std::uint64_t>& peak, std::uint64_t observed) {
  std::uint64_t current = peak.load(std::memory_order_relaxed);
  while (observed > current &&
         !peak.compare_exchange_weak(current, observed,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

std::string MetricsSnapshot::to_string() const {
  std::ostringstream os;
  os << "shards=" << shards.size() << " submitted=" << total.submitted
     << " accepted=" << total.accepted << " rejected=" << total.rejected
     << " backpressure=" << total.backpressure_rejected
     << " volume=" << total.accepted_volume
     << " queue_depth=" << total.queue_depth
     << " recoveries=" << total.recoveries
     << " replayed=" << total.wal_records_replayed
     << " truncations=" << total.wal_truncations
     << " failovers=" << total.failovers
     << " degraded_rejected=" << total.degraded_rejected;
  return os.str();
}

MetricsRegistry::MetricsRegistry(int shards)
    : slots_(new Slot[static_cast<std::size_t>(shards)]),
      shard_count_(shards) {
  SLACKSCHED_EXPECTS(shards >= 1);
  // Reuse Histogram's bin-edge construction so the atomic counters and the
  // snapshot histogram agree on boundaries exactly.
  const Histogram reference =
      Histogram::logarithmic(kAdmitLatencyLo, kAdmitLatencyHi,
                             kAdmitLatencyBins);
  latency_edges_.reserve(kAdmitLatencyBins + 1);
  for (std::size_t bin = 0; bin < kAdmitLatencyBins; ++bin) {
    latency_edges_.push_back(reference.bin_range(bin).first);
  }
  latency_edges_.push_back(
      reference.bin_range(kAdmitLatencyBins - 1).second);
}

void MetricsRegistry::on_enqueued(int shard, std::size_t count,
                                  std::size_t depth) {
  if (count == 0) return;
  Slot& slot = slots_[static_cast<std::size_t>(shard)];
  slot.enqueued.fetch_add(count, std::memory_order_relaxed);
  raise_peak(slot.peak_queue_depth, depth);
}

void MetricsRegistry::on_backpressure(int shard, std::size_t count) {
  if (count == 0) return;
  slots_[static_cast<std::size_t>(shard)].backpressure_rejected.fetch_add(
      count, std::memory_order_relaxed);
}

void MetricsRegistry::on_class_enqueued(int shard, Criticality criticality,
                                        std::size_t count) {
  if (count == 0) return;
  slots_[static_cast<std::size_t>(shard)]
      .class_enqueued[criticality_index(criticality)]
      .fetch_add(count, std::memory_order_relaxed);
}

void MetricsRegistry::on_class_shed(int shard, Criticality criticality) {
  slots_[static_cast<std::size_t>(shard)]
      .class_shed[criticality_index(criticality)]
      .fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::on_batch(int shard) {
  slots_[static_cast<std::size_t>(shard)].batches.fetch_add(
      1, std::memory_order_relaxed);
}

void MetricsRegistry::on_inline_decision(int shard) {
  slots_[static_cast<std::size_t>(shard)].inline_decisions.fetch_add(
      1, std::memory_order_relaxed);
}

std::size_t MetricsRegistry::on_decision(int shard, double job_volume,
                                         bool accepted,
                                         double latency_seconds,
                                         Criticality criticality) {
  Slot& slot = slots_[static_cast<std::size_t>(shard)];
  const std::size_t cls = criticality_index(criticality);
  slot.submitted.fetch_add(1, std::memory_order_relaxed);
  if (accepted) {
    slot.accepted.fetch_add(1, std::memory_order_relaxed);
    slot.class_accepted[cls].fetch_add(1, std::memory_order_relaxed);
    accumulate(slot.accepted_volume, job_volume);
  } else {
    slot.rejected.fetch_add(1, std::memory_order_relaxed);
    slot.class_rejected[cls].fetch_add(1, std::memory_order_relaxed);
    accumulate(slot.rejected_volume, job_volume);
  }
  accumulate(slot.latency_sum, latency_seconds);
  accumulate(slot.class_latency_sum[cls], latency_seconds);
  const std::size_t bin = latency_bin(latency_seconds);
  slot.latency[bin].fetch_add(1, std::memory_order_relaxed);
  slot.class_latency[cls][bin].fetch_add(1, std::memory_order_relaxed);
  return bin;
}

void MetricsRegistry::on_recovery(int shard, std::size_t records_replayed,
                                  bool truncated) {
  Slot& slot = slots_[static_cast<std::size_t>(shard)];
  slot.recoveries.fetch_add(1, std::memory_order_relaxed);
  slot.wal_records_replayed.fetch_add(records_replayed,
                                      std::memory_order_relaxed);
  if (truncated) {
    slot.wal_truncations.fetch_add(1, std::memory_order_relaxed);
  }
}

void MetricsRegistry::on_failover(int home_shard, std::size_t count) {
  if (count == 0) return;
  slots_[static_cast<std::size_t>(home_shard)].failovers.fetch_add(
      count, std::memory_order_relaxed);
}

void MetricsRegistry::on_degraded_reject(int home_shard, std::size_t count) {
  if (count == 0) return;
  slots_[static_cast<std::size_t>(home_shard)].degraded_rejected.fetch_add(
      count, std::memory_order_relaxed);
}

MetricsRegistry::IngestCounts MetricsRegistry::ingest_counts(
    int shard) const {
  const Slot& slot = slots_[static_cast<std::size_t>(shard)];
  IngestCounts counts;
  counts.shed = slot.backpressure_rejected.load(std::memory_order_relaxed);
  for (const auto& shed : slot.class_shed) {
    counts.shed += shed.load(std::memory_order_relaxed);
  }
  counts.offered =
      slot.enqueued.load(std::memory_order_relaxed) + counts.shed;
  return counts;
}

std::size_t MetricsRegistry::latency_bin(double seconds) const {
  const auto it = std::upper_bound(latency_edges_.begin(),
                                   latency_edges_.end(), seconds);
  const auto raw = std::distance(latency_edges_.begin(), it);
  if (raw <= 0) return 0;
  return std::min(static_cast<std::size_t>(raw - 1), kAdmitLatencyBins - 1);
}

MetricsSnapshot MetricsRegistry::snapshot(
    std::span<const std::size_t> queue_depths) const {
  SLACKSCHED_EXPECTS(queue_depths.empty() ||
                     queue_depths.size() ==
                         static_cast<std::size_t>(shard_count_));
  MetricsSnapshot snap;
  snap.shards.resize(static_cast<std::size_t>(shard_count_));
  std::array<std::uint64_t, kAdmitLatencyBins> bins{};
  for (int shard = 0; shard < shard_count_; ++shard) {
    const Slot& slot = slots_[static_cast<std::size_t>(shard)];
    ShardMetricsSnapshot& row = snap.shards[static_cast<std::size_t>(shard)];
    row.enqueued = slot.enqueued.load(std::memory_order_relaxed);
    row.submitted = slot.submitted.load(std::memory_order_relaxed);
    row.accepted = slot.accepted.load(std::memory_order_relaxed);
    row.rejected = slot.rejected.load(std::memory_order_relaxed);
    row.backpressure_rejected =
        slot.backpressure_rejected.load(std::memory_order_relaxed);
    row.accepted_volume = slot.accepted_volume.load(std::memory_order_relaxed);
    row.rejected_volume = slot.rejected_volume.load(std::memory_order_relaxed);
    row.latency_sum_seconds = slot.latency_sum.load(std::memory_order_relaxed);
    row.queue_depth = queue_depths.empty()
                          ? 0
                          : queue_depths[static_cast<std::size_t>(shard)];
    row.peak_queue_depth =
        slot.peak_queue_depth.load(std::memory_order_relaxed);
    row.batches = slot.batches.load(std::memory_order_relaxed);
    row.inline_decisions =
        slot.inline_decisions.load(std::memory_order_relaxed);
    row.recoveries = slot.recoveries.load(std::memory_order_relaxed);
    row.wal_records_replayed =
        slot.wal_records_replayed.load(std::memory_order_relaxed);
    row.wal_truncations = slot.wal_truncations.load(std::memory_order_relaxed);
    row.failovers = slot.failovers.load(std::memory_order_relaxed);
    row.degraded_rejected =
        slot.degraded_rejected.load(std::memory_order_relaxed);
    for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
      row.class_enqueued[cls] =
          slot.class_enqueued[cls].load(std::memory_order_relaxed);
      row.class_accepted[cls] =
          slot.class_accepted[cls].load(std::memory_order_relaxed);
      row.class_rejected[cls] =
          slot.class_rejected[cls].load(std::memory_order_relaxed);
      row.class_shed[cls] =
          slot.class_shed[cls].load(std::memory_order_relaxed);
      row.criticality_shed += row.class_shed[cls];
    }

    snap.total.enqueued += row.enqueued;
    snap.total.submitted += row.submitted;
    snap.total.accepted += row.accepted;
    snap.total.rejected += row.rejected;
    snap.total.backpressure_rejected += row.backpressure_rejected;
    snap.total.accepted_volume += row.accepted_volume;
    snap.total.rejected_volume += row.rejected_volume;
    snap.total.latency_sum_seconds += row.latency_sum_seconds;
    snap.total.queue_depth += row.queue_depth;
    // Per-shard peaks were reached at different instants: summing them
    // would overstate the aggregate. Max = the deepest any queue got.
    snap.total.peak_queue_depth =
        std::max(snap.total.peak_queue_depth, row.peak_queue_depth);
    snap.total.batches += row.batches;
    snap.total.inline_decisions += row.inline_decisions;
    snap.total.recoveries += row.recoveries;
    snap.total.wal_records_replayed += row.wal_records_replayed;
    snap.total.wal_truncations += row.wal_truncations;
    snap.total.failovers += row.failovers;
    snap.total.degraded_rejected += row.degraded_rejected;
    snap.total.criticality_shed += row.criticality_shed;
    for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
      snap.total.class_enqueued[cls] += row.class_enqueued[cls];
      snap.total.class_accepted[cls] += row.class_accepted[cls];
      snap.total.class_rejected[cls] += row.class_rejected[cls];
      snap.total.class_shed[cls] += row.class_shed[cls];
      snap.class_latency_sum[cls] +=
          slot.class_latency_sum[cls].load(std::memory_order_relaxed);
      for (std::size_t bin = 0; bin < kAdmitLatencyBins; ++bin) {
        snap.class_latency_bins[cls][bin] +=
            slot.class_latency[cls][bin].load(std::memory_order_relaxed);
      }
    }

    for (std::size_t bin = 0; bin < kAdmitLatencyBins; ++bin) {
      bins[bin] += slot.latency[bin].load(std::memory_order_relaxed);
    }
  }
  for (std::size_t bin = 0; bin < kAdmitLatencyBins; ++bin) {
    if (bins[bin] == 0) continue;
    // Exact copy of the atomic counters. Depositing a synthetic value at
    // the geometric bin center would go back through the float->bin
    // search, one ULP away from landing the count in the wrong bin.
    snap.admit_latency.add_to_bin(bin, bins[bin]);
  }
  return snap;
}

}  // namespace slacksched
