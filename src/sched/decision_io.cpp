#include "sched/decision_io.hpp"

#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include "common/csv.hpp"
#include "common/expects.hpp"
#include "sched/validator.hpp"

namespace slacksched {

void write_decisions(std::ostream& out,
                     const std::vector<DecisionRecord>& decisions) {
  CsvWriter writer(out, {"id", "accepted", "machine", "start"});
  for (const DecisionRecord& record : decisions) {
    writer.row({std::to_string(record.job.id),
                record.decision.accepted ? "1" : "0",
                std::to_string(record.decision.machine),
                CsvWriter::format(record.decision.start)});
  }
}

std::vector<DecisionRow> read_decisions(std::istream& in) {
  const auto rows = parse_csv(in);
  if (rows.empty() ||
      rows.front() != std::vector<std::string>{"id", "accepted", "machine",
                                               "start"}) {
    throw PreconditionError("decision log: missing or malformed header");
  }
  std::vector<DecisionRow> decisions;
  decisions.reserve(rows.size() - 1);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& cells = rows[r];
    if (cells.size() != 4) {
      throw PreconditionError("decision log: row " + std::to_string(r) +
                              " has wrong arity");
    }
    try {
      DecisionRow row;
      row.id = std::stoll(cells[0]);
      const bool accepted = cells[1] == "1";
      if (!accepted && cells[1] != "0") {
        throw PreconditionError("bad accepted flag");
      }
      if (accepted) {
        row.decision = Decision::accept(std::stoi(cells[2]),
                                        std::stod(cells[3]));
      } else {
        row.decision = Decision::reject();
      }
      decisions.push_back(row);
    } catch (const PreconditionError&) {
      throw;
    } catch (const std::exception&) {
      throw PreconditionError("decision log: row " + std::to_string(r) +
                              " has malformed cells");
    }
  }
  return decisions;
}

Schedule reconstruct_schedule(const Instance& instance,
                              const std::vector<DecisionRow>& decisions,
                              int machines) {
  SLACKSCHED_EXPECTS(machines >= 1);
  std::unordered_map<JobId, const Job*> by_id;
  by_id.reserve(instance.size());
  for (const Job& job : instance.jobs()) by_id.emplace(job.id, &job);

  Schedule schedule(machines);
  std::unordered_set<JobId> seen;
  for (const DecisionRow& row : decisions) {
    if (!seen.insert(row.id).second) {
      throw PreconditionError("decision log: duplicate row for job id " +
                              std::to_string(row.id));
    }
    const auto it = by_id.find(row.id);
    if (it == by_id.end()) {
      throw PreconditionError("decision log: unknown job id " +
                              std::to_string(row.id));
    }
    const Job& job = *it->second;
    const std::string violation =
        validate_commitment(schedule, job, row.decision);
    if (!violation.empty()) {
      throw PreconditionError("decision log: " + violation);
    }
    if (row.decision.accepted) {
      schedule.commit(job, row.decision.machine, row.decision.start);
    }
  }
  return schedule;
}

void write_decisions_file(const std::string& path,
                          const std::vector<DecisionRecord>& decisions) {
  std::ofstream out(path);
  if (!out) throw PreconditionError("cannot open decision log " + path);
  write_decisions(out, decisions);
}

std::vector<DecisionRow> read_decisions_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw PreconditionError("cannot open decision log " + path);
  return read_decisions(in);
}

}  // namespace slacksched
