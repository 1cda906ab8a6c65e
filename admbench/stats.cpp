#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace admbench {

namespace {

/// ceil(q * n), tolerant of the rounding in q * n (99.9% of 10000 must be
/// rank 9990, not 9991).
std::size_t nearest_rank(double q, std::size_t n) {
  return static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
}

}  // namespace

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) {
    q.q1 = q.median = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles(method='exclusive', n=4), exact integer rescale.
  const std::size_t m = n + 1;
  double cut[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  q.q1 = cut[0];
  q.median = cut[1];
  q.q3 = cut[2];
  return q;
}

std::optional<double> tail_percentile_sorted(const std::vector<double>& sorted,
                                             double q) {
  const std::size_t n = sorted.size();
  if (n == 0) return std::nullopt;
  auto rank = nearest_rank(q, n);
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  return sorted[rank - 1];
}

std::optional<double> tail_percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return tail_percentile_sorted(values, q);
}

double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const std::size_t rank = std::max<std::size_t>(nearest_rank(p / 100.0, n), 1);
    if (rank <= n && n - rank >= 10) best = p;
  }
  return best;
}

std::vector<LayerCost> subtract_rungs(
    const std::vector<std::vector<double>>& rungs,
    const std::vector<std::string>& layers, const std::vector<int>& base) {
  std::vector<LayerCost> out;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    LayerCost cost;
    cost.layer = layers[r];
    if (base[r] < 0) {
      cost.diff = quartiles(rungs[r]);
    } else {
      const auto& lower = rungs[static_cast<std::size_t>(base[r])];
      std::vector<double> diffs;
      for (std::size_t k = 0; k < rungs[r].size() && k < lower.size(); ++k) {
        diffs.push_back(rungs[r][k] - lower[k]);
      }
      cost.diff = quartiles(std::move(diffs));
    }
    out.push_back(std::move(cost));
  }
  return out;
}

namespace {

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

void expect(std::vector<std::string>& failures, bool ok, const char* what) {
  if (!ok) failures.emplace_back(what);
}

}  // namespace

std::vector<std::string> self_test() {
  std::vector<std::string> f;

  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  const Quartiles q10 = quartiles(ten);
  expect(f, near(q10.q1, 2.75) && near(q10.median, 5.5) && near(q10.q3, 8.25),
         "quartiles of 1..10 differ from statistics.quantiles");
  // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
  const Quartiles q4 = quartiles({4, 1, 3, 2});
  expect(f, near(q4.q1, 1.25) && near(q4.median, 2.5) && near(q4.q3, 3.75),
         "quartiles of 1..4 differ from statistics.quantiles");
  const Quartiles q1 = quartiles({7});
  expect(f, near(q1.q1, 7) && near(q1.q3, 7), "quartiles of one sample");

  // p99 needs ten samples strictly beyond its rank: n = 1000 has exactly
  // ten (ranks 991..1000), n = 999 has nine.
  std::vector<double> big;
  for (int i = 1000; i >= 1; --i) big.push_back(i);
  const auto p99 = tail_percentile(big, 0.99);
  expect(f, p99 && near(*p99, 990), "p99 of 1..1000 is not 990");
  big.pop_back();  // drop the 1: n = 999
  expect(f, !tail_percentile(big, 0.99), "p99 of 999 samples was reported");
  std::vector<double> twenty;
  for (int i = 1; i <= 20; ++i) twenty.push_back(i);
  const auto p50 = tail_percentile(twenty, 0.5);
  expect(f, p50 && near(*p50, 10), "median of 1..20 by nearest rank is not 10");
  twenty.pop_back();
  expect(f, !tail_percentile(twenty, 0.5), "median of 19 samples was reported");
  expect(f, near(highest_supported_percentile(1000), 99.0) &&
                near(highest_supported_percentile(999), 90.0) &&
                near(highest_supported_percentile(10000), 99.9) &&
                near(highest_supported_percentile(5), 0.0),
         "highest_supported_percentile");

  // Rung subtraction: a branching ladder R0 <- R1 <- R2 <- R3 and
  // R2 <- R4. Differences are paired per round, so a round-wide shift
  // (all rungs +1 in round 1) cancels out of every layer but the first.
  const std::vector<std::vector<double>> rungs = {
      {10, 11, 10}, {12, 13, 12}, {20, 21, 20}, {27, 28, 26}, {50, 52, 50}};
  const auto costs = subtract_rungs(rungs, {"a", "b", "c", "d", "e"},
                                    {-1, 0, 1, 2, 2});
  expect(f, costs.size() == 5, "subtract_rungs size");
  if (costs.size() == 5) {
    expect(f, near(costs[0].diff.median, 10), "rung 0 is its own cost");
    expect(f, near(costs[1].diff.median, 2) && near(costs[1].diff.q1, 2) &&
                  near(costs[1].diff.q3, 2),
           "R1 - R0 paired per round");
    expect(f, near(costs[2].diff.median, 8), "R2 - R1");
    expect(f, near(costs[3].diff.median, 7) && near(costs[3].diff.q1, 6),
           "R3 - R2 median/q1");
    expect(f, near(costs[4].diff.median, 30), "branch R4 - R2");
  }
  return f;
}

}  // namespace admbench
