// Statistics used by the admission benchmark: order statistics with the
// "at least ten samples beyond" rule, the quartile spread the acceptance
// check uses, and the rung subtraction that turns the layer ladder's
// per-rung costs into per-layer self costs.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace admbench {

/// Median and quartiles of a sample, as Python's
/// statistics.quantiles(values, n=4) (the default 'exclusive' method)
/// computes them; with one sample all three equal it.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// The q-quantile (0 < q < 1) of `values` by the nearest-rank rule, but
/// only when at least ten samples lie strictly above that rank: a tail
/// percentile resting on fewer samples is not reported. nullopt otherwise.
[[nodiscard]] std::optional<double> tail_percentile(std::vector<double> values,
                                                    double q);

/// Same rule on an already sorted sample (no copy).
[[nodiscard]] std::optional<double> tail_percentile_sorted(
    const std::vector<double>& sorted, double q);

/// The highest percentile in {50, 90, 99, 99.9, 99.99} that still has ten
/// samples beyond it for a sample of size n (0 when even the median
/// does not).
[[nodiscard]] double highest_supported_percentile(std::size_t n);

/// One layer's self cost from the ladder: the difference between adjacent
/// rungs, taken per interleaved round (rung i and rung i-1 of the same
/// round are paired), summarised by the median and quartiles of those
/// paired differences.
struct LayerCost {
  std::string layer;
  Quartiles diff;
};

/// `rungs[r][k]` is rung r's per-job cost in round k. `layers[r]` names the
/// layer that rung r adds; the cost of rung 0's layer is rung 0 itself.
/// `base[r]` is the index of the rung that rung r builds on (-1 for
/// rung 0), so a ladder may branch (e.g. the TCP rung builds on the
/// in-process gateway, not on the WAL rungs).
[[nodiscard]] std::vector<LayerCost> subtract_rungs(
    const std::vector<std::vector<double>>& rungs,
    const std::vector<std::string>& layers, const std::vector<int>& base);

/// Runs the statistics self-tests; returns one message per failure.
[[nodiscard]] std::vector<std::string> self_test();

}  // namespace admbench
