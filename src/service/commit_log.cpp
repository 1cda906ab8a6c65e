#include "service/commit_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/expects.hpp"
#include "common/wire.hpp"
#include "policy/criticality.hpp"

namespace slacksched {

namespace {

using wire::get;
using wire::put;

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw CommitLogError(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

std::string to_string(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kEveryCommit:
      return "every-commit";
  }
  return "unknown";
}

std::uint32_t wal_crc32(const void* data, std::size_t n) {
  return wire::crc32_ieee(data, n);
}

void encode_wal_record(const Job& job, int machine, TimePoint start,
                       std::vector<char>& out) {
  const std::size_t frame = out.size();
  put(out, static_cast<std::uint32_t>(kWalPayloadBytes));
  put(out, std::uint32_t{0});  // crc, patched once the payload is in
  put(out, static_cast<std::int64_t>(job.id));
  put(out, job.release);
  put(out, job.proc);
  put(out, job.deadline);
  put(out, static_cast<std::int32_t>(machine));
  put(out, static_cast<std::uint32_t>(criticality_index(job.criticality)));
  put(out, start);
  SLACKSCHED_ENSURES(out.size() - frame == kWalRecordBytes);
  wire::patch(out, frame + 4,
              wal_crc32(out.data() + frame + kWalFrameBytes,
                        kWalPayloadBytes));
}

WalRecord decode_wal_record(const char* record) {
  const char* cursor = record + kWalFrameBytes;
  WalRecord out;
  out.job.id = get<std::int64_t>(&cursor);
  out.job.release = get<double>(&cursor);
  out.job.proc = get<double>(&cursor);
  out.job.deadline = get<double>(&cursor);
  out.machine = get<std::int32_t>(&cursor);
  out.criticality = get<std::uint32_t>(&cursor);
  out.start = get<double>(&cursor);
  return out;
}

std::string wal_header_error(const char* header, std::uint32_t machines,
                             const std::string& path) {
  if (std::memcmp(header, kWalMagic, sizeof(kWalMagic)) != 0) {
    return path + ": not a commit log (bad magic)";
  }
  const char* cursor = header + sizeof(kWalMagic);
  const auto version = get<std::uint32_t>(&cursor);
  const auto header_machines = get<std::uint32_t>(&cursor);
  if (version != kWalVersion) {
    return path + ": unsupported commit log version " +
           std::to_string(version);
  }
  if (machines != 0 && header_machines != machines) {
    return path + ": commit log is for " + std::to_string(header_machines) +
           " machines, expected " + std::to_string(machines);
  }
  return {};
}

std::string prepare_wal_header(int fd, std::size_t size,
                               std::uint32_t machines,
                               const std::string& path) {
  if (size >= kWalHeaderBytes) {
    char header[kWalHeaderBytes];
    if (::pread(fd, header, sizeof(header), 0) !=
        static_cast<ssize_t>(sizeof(header))) {
      return "cannot read commit log header " + path;
    }
    return wal_header_error(header, machines, path);
  }
  // Fresh log, or a tail torn inside the header: reset and write the
  // header at offset 0.
  if (size > 0 &&
      (::ftruncate(fd, 0) != 0 || ::lseek(fd, 0, SEEK_SET) != 0)) {
    return "cannot reset commit log " + path + ": " + std::strerror(errno);
  }
  std::vector<char> header(kWalMagic, kWalMagic + sizeof(kWalMagic));
  put(header, kWalVersion);
  put(header, machines);
  SLACKSCHED_ENSURES(header.size() == kWalHeaderBytes);
  if (!wire::write_all(fd, header.data(), header.size())) {
    return "cannot write commit log header " + path + ": " +
           std::strerror(errno);
  }
  return {};
}

bool wal_record_intact(const char* record) {
  const auto len = get<std::uint32_t>(&record);
  const auto crc = get<std::uint32_t>(&record);
  return len == kWalPayloadBytes &&
         wal_crc32(record, kWalPayloadBytes) == crc;
}

WalScan scan_wal_records(int fd, std::size_t size) {
  WalScan scan;
  // Whole records are read a chunk at a time: one pread per 1024 records.
  std::vector<char> chunk(1024 * kWalRecordBytes);
  while (scan.clean_end + kWalRecordBytes <= size) {
    const std::size_t want = std::min(
        chunk.size(),
        (size - scan.clean_end) / kWalRecordBytes * kWalRecordBytes);
    const ssize_t got = wire::pread_all(fd, chunk.data(), want,
                                        static_cast<off_t>(scan.clean_end));
    if (got < static_cast<ssize_t>(kWalRecordBytes)) break;
    const std::size_t whole = static_cast<std::size_t>(got) / kWalRecordBytes;
    for (std::size_t i = 0; i < whole; ++i) {
      if (!wal_record_intact(chunk.data() + i * kWalRecordBytes)) {
        scan.torn = true;
        return scan;
      }
      ++scan.records;
      scan.clean_end += kWalRecordBytes;
    }
  }
  scan.torn = scan.clean_end != size;
  return scan;
}

std::unique_ptr<CommitLog> CommitLog::open(const std::string& path,
                                           int machines,
                                           const CommitLogConfig& config,
                                           FaultInjector* faults, int shard) {
  SLACKSCHED_EXPECTS(!path.empty());
  SLACKSCHED_EXPECTS(machines >= 1);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) throw_errno("cannot open commit log", path);

  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    throw_errno("cannot seek commit log", path);
  }
  const std::string why = prepare_wal_header(
      fd, static_cast<std::size_t>(size),
      static_cast<std::uint32_t>(machines), path);
  if (!why.empty()) {
    ::close(fd);
    throw CommitLogError(why);
  }
  auto log = std::unique_ptr<CommitLog>(
      new CommitLog(path, fd, config, faults, shard));
  // The observer learns of the open last: it may throw (a stale leader
  // must not append), in which case the fresh descriptor closes with the
  // log and open() fails loudly.
  if (config.observer != nullptr) {
    config.observer->on_open(log->path(), machines, config.base_records);
  }
  return log;
}

CommitLog::CommitLog(std::string path, int fd, const CommitLogConfig& config,
                     FaultInjector* faults, int shard)
    : path_(std::move(path)),
      fd_(fd),
      config_(config),
      faults_(faults),
      shard_(shard) {
  buffer_.reserve(config_.buffer_bytes + kWalRecordBytes);
}

CommitLog::~CommitLog() {
  // Crash-consistent teardown: buffered records are lost, exactly as an
  // unflushed user-space buffer dies with a crashed process.
  if (fd_ >= 0) ::close(fd_);
}

void CommitLog::append(const Job& job, int machine, TimePoint start) {
  SLACKSCHED_EXPECTS(fd_ >= 0);
  const std::size_t offset = buffer_.size();
  encode_wal_record(job, machine, start, buffer_);
  ++records_;
  bytes_ += kWalRecordBytes;
  // Snapshot the encoded frame before any flush clears the buffer: the
  // observer streams the exact bytes the file carries.
  char frame[kWalRecordBytes];
  if (config_.observer != nullptr) {
    std::memcpy(frame, buffer_.data() + offset, kWalRecordBytes);
  }
  if (config_.fsync == FsyncPolicy::kEveryCommit) {
    flush_buffer();
    fsync_now();
  } else if (buffer_.size() >= config_.buffer_bytes) {
    flush_buffer();
  }
  // Local durability first, then replication: under an ack-on-commit
  // contract this blocks until the follower holds the record too.
  if (config_.observer != nullptr) {
    config_.observer->on_record(frame, kWalRecordBytes, records_total());
  }
}

void CommitLog::append_control(JobId control, int machine) {
  SLACKSCHED_EXPECTS(wal_is_control_id(control));
  Job job;
  job.id = control;
  append(job, machine, 0.0);
}

void CommitLog::sync_batch() {
  if (config_.fsync == FsyncPolicy::kBatch) {
    flush_buffer();
    fsync_now();
  }
  if (config_.observer != nullptr) {
    config_.observer->on_batch(records_total());
  }
}

void CommitLog::sync() {
  flush_buffer();
  fsync_now();
}

void CommitLog::close() {
  SLACKSCHED_EXPECTS(fd_ >= 0);
  flush_buffer();
  if (config_.fsync != FsyncPolicy::kNever) fsync_now();
  ::close(fd_);
  fd_ = -1;
  if (config_.observer != nullptr) {
    config_.observer->on_close(records_total());
  }
}

void CommitLog::flush_buffer() {
  if (!wire::write_all(fd_, buffer_.data(), buffer_.size())) {
    throw_errno("cannot append to commit log", path_);
  }
  buffer_.clear();
}

void CommitLog::fsync_now() {
  SLACKSCHED_FAULT_CRASH_POINT(faults_, FaultSite::kFsync, shard_);
  if (::fsync(fd_) != 0) throw_errno("cannot fsync commit log", path_);
  ++fsyncs_;
}

}  // namespace slacksched
