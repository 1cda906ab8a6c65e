#include "offline/maxflow.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/expects.hpp"

namespace slacksched {

MaxFlow::MaxFlow(std::size_t nodes) : graph_(nodes) {
  SLACKSCHED_EXPECTS(nodes >= 2);
}

std::size_t MaxFlow::add_edge(std::size_t u, std::size_t v, double capacity) {
  SLACKSCHED_EXPECTS(u < graph_.size() && v < graph_.size());
  SLACKSCHED_EXPECTS(capacity >= 0.0);
  graph_[u].push_back({v, capacity, graph_[v].size()});
  graph_[v].push_back({u, 0.0, graph_[u].size() - 1});
  handles_.emplace_back(u, graph_[u].size() - 1);
  original_capacity_.push_back(capacity);
  return handles_.size() - 1;
}

bool MaxFlow::bfs(std::size_t s, std::size_t t) {
  level_.assign(graph_.size(), -1);
  std::queue<std::size_t> queue;
  level_[s] = 0;
  queue.push(s);
  while (!queue.empty()) {
    const std::size_t v = queue.front();
    queue.pop();
    for (const Edge& e : graph_[v]) {
      if (e.capacity > kFlowEps && level_[e.to] < 0) {
        level_[e.to] = level_[v] + 1;
        queue.push(e.to);
      }
    }
  }
  return level_[t] >= 0;
}

double MaxFlow::dfs(std::size_t v, std::size_t t, double pushed) {
  if (v == t) return pushed;
  for (std::size_t& i = iter_[v]; i < graph_[v].size(); ++i) {
    Edge& e = graph_[v][i];
    if (e.capacity <= kFlowEps || level_[e.to] != level_[v] + 1) continue;
    const double got = dfs(e.to, t, std::min(pushed, e.capacity));
    if (got > kFlowEps) {
      e.capacity -= got;
      graph_[e.to][e.reverse].capacity += got;
      return got;
    }
  }
  return 0.0;
}

double MaxFlow::max_flow(std::size_t s, std::size_t t) {
  SLACKSCHED_EXPECTS(s < graph_.size() && t < graph_.size());
  SLACKSCHED_EXPECTS(s != t);
  double total = 0.0;
  while (bfs(s, t)) {
    iter_.assign(graph_.size(), 0);
    while (true) {
      const double pushed =
          dfs(s, t, std::numeric_limits<double>::infinity());
      if (pushed <= kFlowEps) break;
      total += pushed;
    }
  }
  return total;
}

double MaxFlow::flow_on(std::size_t edge_handle) const {
  SLACKSCHED_EXPECTS(edge_handle < handles_.size());
  const auto [node, index] = handles_[edge_handle];
  return original_capacity_[edge_handle] - graph_[node][index].capacity;
}

void sort_event_points(std::vector<TimePoint>& events) {
  std::sort(events.begin(), events.end());
  events.erase(
      std::unique(events.begin(), events.end(),
                  [](TimePoint a, TimePoint b) { return approx_eq(a, b); }),
      events.end());
}

double interval_max_flow(std::span<const FlowJob> jobs,
                         std::span<const TimePoint> events, int machines,
                         std::vector<IntervalEdgeFlow>* edge_flows) {
  SLACKSCHED_EXPECTS(!events.empty());
  const std::size_t n = jobs.size();
  const std::size_t intervals = events.size() - 1;
  // Nodes: source, n jobs, `intervals` interval nodes, sink.
  const std::size_t source = 0;
  const std::size_t sink = 1 + n + intervals;
  MaxFlow flow(sink + 1);

  for (std::size_t i = 0; i < n; ++i) {
    flow.add_edge(source, 1 + i, jobs[i].demand);
  }
  std::vector<std::size_t> handles;  // parallel to *edge_flows
  if (edge_flows != nullptr) edge_flows->clear();
  for (std::size_t v = 0; v < intervals; ++v) {
    const Duration length = events[v + 1] - events[v];
    flow.add_edge(1 + n + v, sink, machines * length);
    for (std::size_t i = 0; i < n; ++i) {
      if (approx_ge(events[v], jobs[i].release) &&
          approx_le(events[v + 1], jobs[i].deadline)) {
        const std::size_t handle = flow.add_edge(1 + i, 1 + n + v, length);
        if (edge_flows != nullptr) {
          edge_flows->push_back({i, v, 0.0});
          handles.push_back(handle);
        }
      }
    }
  }
  const double routed = flow.max_flow(source, sink);
  for (std::size_t k = 0; k < handles.size(); ++k) {
    (*edge_flows)[k].flow = flow.flow_on(handles[k]);
  }
  return routed;
}

}  // namespace slacksched
