#include "service/recovery.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "common/wire.hpp"
#include "policy/criticality.hpp"
#include "sched/decision.hpp"
#include "sched/validator.hpp"
#include "service/commit_log.hpp"

namespace slacksched {

namespace {

RecoveryResult fail(RecoveryResult result, std::string error) {
  result.ok = false;
  result.error = std::move(error);
  return result;
}

/// Replays the open log `fd` into `result` (see recover_commit_log); the
/// caller closes the descriptor.
RecoveryResult replay(int fd, const std::string& path, int machines,
                      OnlineScheduler* scheduler, bool truncate_file,
                      RecoveryResult result) {
  const off_t raw_size = ::lseek(fd, 0, SEEK_END);
  if (raw_size < 0) {
    return fail(std::move(result), "cannot seek commit log " + path + ": " +
                                       std::strerror(errno));
  }
  const std::size_t size = static_cast<std::size_t>(raw_size);

  if (size < kWalHeaderBytes) {
    // Torn inside the header: nothing was ever durably committed.
    if (size > 0) {
      result.tail_truncated = true;
      result.bytes_truncated = size;
      if (truncate_file && ::ftruncate(fd, 0) != 0) {
        return fail(std::move(result), "cannot truncate commit log " + path +
                                           ": " + std::strerror(errno));
      }
    }
    return result;
  }

  std::vector<char> data(size);
  // A concurrent shrink reads short; the rest is treated as torn.
  const ssize_t read = wire::pread_all(fd, data.data(), size, 0);
  if (read < 0) {
    return fail(std::move(result), "cannot read commit log " + path + ": " +
                                       std::strerror(errno));
  }
  const auto have = static_cast<std::size_t>(read);

  std::string why = wal_header_error(
      data.data(), static_cast<std::uint32_t>(machines), path);
  if (!why.empty()) return fail(std::move(result), std::move(why));

  std::size_t offset = kWalHeaderBytes;
  std::size_t good_offset = offset;
  while (offset + kWalRecordBytes <= have &&
         wal_record_intact(data.data() + offset)) {
    const WalRecord record = decode_wal_record(data.data() + offset);
    Job job = record.job;
    const int machine = record.machine;
    const TimePoint start = record.start;
    if (record.criticality >= kCriticalityCount) {
      // A class outside the enum passed the CRC: the record is corrupt in
      // a way framing cannot see, like an illegal commitment.
      return fail(std::move(result),
                  path + ": record " +
                      std::to_string(result.records_replayed + 1) +
                      " carries criticality " +
                      std::to_string(record.criticality) +
                      ", outside the frozen class range");
    }
    job.criticality = static_cast<Criticality>(record.criticality);

    if (wal_is_control_id(job.id)) {
      // Capacity control record: replay the resize at exactly this point
      // of the log, so every subsequent commitment sees the machine pool
      // the original run committed against. Control records count toward
      // records_replayed (the replication sequence space) but are not
      // jobs, so the run metrics ignore them.
      if (job.id == kWalControlGrow) {
        if (!result.schedule.uniform_speeds()) {
          return fail(std::move(result),
                      path + ": grow control record under a machine-speed "
                             "profile; elastic capacity requires identical "
                             "machines");
        }
        if (scheduler != nullptr) {
          const int grown = scheduler->add_machine();
          if (grown != machine) {
            return fail(std::move(result),
                        path + ": grow control record names machine " +
                            std::to_string(machine) +
                            " but the scheduler grew machine " +
                            std::to_string(grown) +
                            "; the replayed resize sequence diverged");
          }
        }
        result.schedule.ensure_machines(machine + 1);
      } else if (job.id == kWalControlRetireBegin) {
        if (scheduler != nullptr && !scheduler->begin_retire(machine)) {
          return fail(std::move(result),
                      path + ": retire-begin control record for machine " +
                          std::to_string(machine) +
                          " is not applicable to scheduler '" +
                          scheduler->name() + "'");
        }
      } else if (job.id == kWalControlRetireDone) {
        // The original run observed the drain before logging this, so the
        // retirement finishes unconditionally on replay.
        if (scheduler != nullptr && !scheduler->finish_retire(machine)) {
          return fail(std::move(result),
                      path + ": retire-done control record for machine " +
                          std::to_string(machine) +
                          " but that machine is not retiring");
        }
      } else {
        return fail(std::move(result),
                    path + ": unknown control record id " +
                        std::to_string(job.id));
      }
      ++result.records_replayed;
      offset += kWalRecordBytes;
      good_offset = offset;
      continue;
    }

    const Decision decision = Decision::accept(machine, start);
    const std::string violation =
        validate_commitment(result.schedule, job, decision);
    if (!violation.empty()) {
      return fail(std::move(result),
                  path + ": record " +
                      std::to_string(result.records_replayed + 1) +
                      " (job " + std::to_string(job.id) +
                      ") fails commitment validation: " + violation);
    }
    result.schedule.commit(job, machine, start);
    if (scheduler != nullptr &&
        !scheduler->restore_commitment(job, machine, start)) {
      return fail(std::move(result),
                  path + ": scheduler '" + scheduler->name() +
                      "' cannot restore commitments; recovery for it is "
                      "unsupported");
    }
    ++result.records_replayed;
    ++result.metrics.submitted;
    ++result.metrics.accepted;
    result.metrics.accepted_volume += job.proc;

    offset += kWalRecordBytes;
    good_offset = offset;
  }

  if (good_offset < have) {
    result.tail_truncated = true;
    result.bytes_truncated = have - good_offset;
    if (truncate_file &&
        ::ftruncate(fd, static_cast<off_t>(good_offset)) != 0) {
      return fail(std::move(result), "cannot truncate commit log " + path +
                                         ": " + std::strerror(errno));
    }
  }
  result.metrics.makespan = result.schedule.makespan();
  return result;
}

}  // namespace

RecoveryResult recover_commit_log(const std::string& path, int machines,
                                  OnlineScheduler* scheduler,
                                  bool truncate_file,
                                  const SpeedProfile* speeds) {
  const SpeedProfile* profile =
      speeds != nullptr
          ? speeds
          : (scheduler != nullptr ? scheduler->speed_profile() : nullptr);
  RecoveryResult result{.schedule = profile != nullptr
                                        ? Schedule(machines, profile->speeds())
                                        : Schedule(machines),
                        .metrics = {},
                        .records_replayed = 0,
                        .bytes_truncated = 0,
                        .tail_truncated = false,
                        .ok = true,
                        .error = {}};
  if (machines < 1) {
    return fail(std::move(result), "recovery requires machines >= 1");
  }

  const int fd = ::open(path.c_str(), truncate_file ? O_RDWR : O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return result;  // no log yet: fresh state
    return fail(std::move(result), "cannot open commit log " + path + ": " +
                                       std::strerror(errno));
  }
  result = replay(fd, path, machines, scheduler, truncate_file,
                  std::move(result));
  ::close(fd);
  return result;
}

}  // namespace slacksched
