// Dinic's max-flow on real-valued capacities. Substrate for the offline
// upper bound: the maximum preemptive-with-migration load of an instance is
// exactly a max flow from jobs to time intervals, and it dominates the
// non-preemptive integral optimum our online algorithms compete against.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/time.hpp"

namespace slacksched {

/// Capacity/flow tolerance: residuals below this count as saturated.
inline constexpr double kFlowEps = 1e-9;

/// Max-flow solver over a fixed node set; edges accumulate via add_edge.
class MaxFlow {
 public:
  explicit MaxFlow(std::size_t nodes);

  /// Adds a directed edge u -> v with the given capacity (>= 0).
  /// Returns an edge handle usable with flow_on().
  std::size_t add_edge(std::size_t u, std::size_t v, double capacity);

  /// Computes the maximum s-t flow. May be called once per instance.
  double max_flow(std::size_t s, std::size_t t);

  /// Flow routed over the edge returned by add_edge (after max_flow).
  [[nodiscard]] double flow_on(std::size_t edge_handle) const;

 private:
  struct Edge {
    std::size_t to;
    double capacity;  ///< residual capacity
    std::size_t reverse;
  };

  bool bfs(std::size_t s, std::size_t t);
  double dfs(std::size_t v, std::size_t t, double pushed);

  std::vector<std::vector<Edge>> graph_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
  std::vector<std::pair<std::size_t, std::size_t>> handles_;  // (node, index)
  std::vector<double> original_capacity_;
};

/// Sorts event points and merges the ones approx_eq to their predecessor:
/// the time grid of the job -> interval network.
void sort_event_points(std::vector<TimePoint>& events);

/// One job of the job -> interval network: up to `demand` units, runnable
/// in the intervals that lie inside [release, deadline].
struct FlowJob {
  double demand = 0.0;
  TimePoint release = 0.0;
  TimePoint deadline = 0.0;
};

/// The flow a solved network routed over one job -> interval edge.
struct IntervalEdgeFlow {
  std::size_t job = 0;
  std::size_t interval = 0;  ///< [events[interval], events[interval + 1])
  double flow = 0.0;
};

/// Max flow of the preemptive-migration network over the grid `events`
/// (>= 1 point): source -> job j with capacity demand_j; job j ->
/// interval v, for every interval inside j's window, with capacity |v|
/// (a job runs on one machine at a time); interval v -> sink with
/// capacity machines * |v|. Edges go in per interval, the sink edge
/// first, then the job edges in job order; Dinic's answer depends on that
/// order, so it is fixed here. When `edge_flows` is non-null it receives
/// the job -> interval edges in that order, with their flows: the witness
/// a fluid schedule executes.
[[nodiscard]] double interval_max_flow(
    std::span<const FlowJob> jobs, std::span<const TimePoint> events,
    int machines, std::vector<IntervalEdgeFlow>* edge_flows = nullptr);

}  // namespace slacksched
