// Decision-log serialization and offline auditing.
//
// A decision log (one row per submitted job: accepted?, machine, start)
// together with the original trace fully determines a run. Persisting the
// log lets operators archive what an admission controller promised and
// re-audit it later: reconstruct_schedule() replays the log against the
// instance with full legality checking, and the validator then re-proves
// every deadline. Tampered or inconsistent logs are rejected.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "job/instance.hpp"
#include "sched/engine.hpp"

namespace slacksched {

/// Writes `id,accepted,machine,start` rows with round-trip precision.
void write_decisions(std::ostream& out,
                     const std::vector<DecisionRecord>& decisions);

/// A parsed decision row, keyed by job id.
struct DecisionRow {
  JobId id = 0;
  Decision decision;
};

/// Reads a log written by write_decisions. Throws PreconditionError on
/// malformed input.
[[nodiscard]] std::vector<DecisionRow> read_decisions(std::istream& in);

/// Replays a decision log against its instance on `machines` identical
/// machines: every row must reference an instance job (each at most once),
/// and every acceptance must be a legal commitment under
/// validate_commitment (sched/validator.hpp). Returns the committed
/// schedule; throws PreconditionError on any inconsistency.
[[nodiscard]] Schedule reconstruct_schedule(
    const Instance& instance, const std::vector<DecisionRow>& decisions,
    int machines);

/// Convenience file variants.
void write_decisions_file(const std::string& path,
                          const std::vector<DecisionRecord>& decisions);
[[nodiscard]] std::vector<DecisionRow> read_decisions_file(
    const std::string& path);

}  // namespace slacksched
