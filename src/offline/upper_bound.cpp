#include "offline/upper_bound.hpp"

#include <vector>

#include "common/expects.hpp"
#include "offline/maxflow.hpp"

namespace slacksched {

double preemptive_fractional_upper_bound(const Instance& instance,
                                         int machines) {
  SLACKSCHED_EXPECTS(machines >= 1);
  if (instance.empty()) return 0.0;

  // Event points: all release dates and deadlines.
  std::vector<TimePoint> events;
  std::vector<FlowJob> jobs;
  events.reserve(instance.size() * 2);
  jobs.reserve(instance.size());
  for (const Job& j : instance.jobs()) {
    events.push_back(j.release);
    events.push_back(j.deadline);
    jobs.push_back({j.proc, j.release, j.deadline});
  }
  sort_event_points(events);
  return interval_max_flow(jobs, events, machines);
}

}  // namespace slacksched
