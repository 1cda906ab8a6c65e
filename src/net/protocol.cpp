#include "net/protocol.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/framing.hpp"
#include "common/wire.hpp"

namespace slacksched::net {

namespace {

using framing::end_frame;
using framing::parse_fields;
using wire::get;
using wire::put;

/// Per-job body inside SUBMIT and SUBMIT_BATCH frames.
constexpr std::size_t kJobBytes = 32;  // i64 id + 3 x f64

/// True when an in-memory Job is byte-for-byte the wire job: little-endian
/// host, no padding, fields at the wire offsets. Then a SUBMIT_BATCH job
/// array decodes with one memcpy instead of four field reads per job.
constexpr bool kJobMatchesWire =
    std::endian::native == std::endian::little && sizeof(Job) == kJobBytes &&
    std::is_trivially_copyable_v<Job> && offsetof(Job, id) == 0 &&
    offsetof(Job, release) == 8 && offsetof(Job, proc) == 16 &&
    offsetof(Job, deadline) == 24;

std::size_t begin_frame(std::vector<char>& out, FrameType type) {
  return framing::begin_frame(out, kProtocolVersion,
                              static_cast<std::uint8_t>(type), 0);
}

/// One complete frame whose payload is the fixed-width `fields`.
template <typename... Fields>
void encode(std::vector<char>& out, FrameType type, const Fields&... fields) {
  framing::encode_frame(out, kProtocolVersion,
                        static_cast<std::uint8_t>(type), 0, fields...);
}

void put_job(std::vector<char>& out, const Job& job) {
  put<std::int64_t>(out, job.id);
  put<double>(out, job.release);
  put<double>(out, job.proc);
  put<double>(out, job.deadline);
}

Job get_job(const char** cursor) {
  Job job;
  job.id = get<std::int64_t>(cursor);
  job.release = get<double>(cursor);
  job.proc = get<double>(cursor);
  job.deadline = get<double>(cursor);
  return job;
}

/// The SUBMIT field rule: finite fields, release >= 0, proc > 0 and
/// deadline > release — a job every scheduler can decide. A frame that
/// breaks it is a protocol error, never a job handed to a shard.
bool submitted_job_valid(const Job& job, const char* what,
                         std::string* error) {
  if (job.structurally_valid() && std::isfinite(job.release) &&
      std::isfinite(job.proc) && std::isfinite(job.deadline)) {
    return true;
  }
  if (error != nullptr) {
    *error = std::string(what) + " job " + job.to_string() +
             " breaks the field rule (finite, release >= 0, proc > 0, "
             "deadline > release)";
  }
  return false;
}

}  // namespace

void encode_submit(std::vector<char>& out, const SubmitMsg& msg) {
  encode(out, FrameType::kSubmit, msg.request_id, msg.job.id, msg.job.release,
         msg.job.proc, msg.job.deadline);
}

void encode_submit_batch(std::vector<char>& out,
                         std::uint64_t base_request_id,
                         std::span<const Job> jobs) {
  const std::size_t start = begin_frame(out, FrameType::kSubmitBatch);
  put<std::uint64_t>(out, base_request_id);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(jobs.size()));
  for (const Job& job : jobs) put_job(out, job);
  end_frame(out, start);
}

void encode_decision(std::vector<char>& out, const DecisionMsg& msg) {
  encode(out, FrameType::kDecision, msg.request_id, msg.job_id,
         static_cast<std::uint8_t>(msg.outcome), msg.machine, msg.start);
}

void encode_reject(std::vector<char>& out, const RejectMsg& msg) {
  encode(out, FrameType::kReject, msg.request_id, msg.job_id,
         static_cast<std::uint8_t>(msg.outcome), msg.retry_after_ms);
}

void encode_drain(std::vector<char>& out) { encode(out, FrameType::kDrain); }

void encode_drained(std::vector<char>& out, const DrainedMsg& msg) {
  encode(out, FrameType::kDrained, msg.submitted, msg.accepted, msg.rejected,
         msg.accepted_volume, msg.rejected_volume, msg.makespan, msg.clean);
}

void encode_ping(std::vector<char>& out, std::uint64_t token) {
  encode(out, FrameType::kPing, token);
}

void encode_pong(std::vector<char>& out, std::uint64_t token) {
  encode(out, FrameType::kPong, token);
}

void encode_error(std::vector<char>& out, std::string_view message) {
  const std::size_t start = begin_frame(out, FrameType::kError);
  out.insert(out.end(), message.begin(), message.end());
  end_frame(out, start);
}

bool parse_submit(const Frame& frame, SubmitMsg& out, std::string* error) {
  out.job = Job{};
  return parse_fields(frame.payload, "SUBMIT", error, out.request_id,
                      out.job.id, out.job.release, out.job.proc,
                      out.job.deadline) &&
         submitted_job_valid(out.job, "SUBMIT", error);
}

bool parse_submit_batch(const Frame& frame, std::uint64_t& base_request_id,
                        std::vector<Job>& jobs, std::string* error) {
  return parse_submit_batch_into(frame, base_request_id, jobs, error);
}

bool parse_submit_batch_into(const Frame& frame,
                             std::uint64_t& base_request_id,
                             std::vector<Job>& jobs, std::string* error) {
  std::uint32_t count = 0;
  if (!parse_fields(frame.payload, "SUBMIT_BATCH", error, base_request_id,
                    count)) {
    return false;
  }
  const char* cursor = frame.payload.data() + 12;
  const std::size_t need = 12 + static_cast<std::size_t>(count) * kJobBytes;
  if (frame.payload.size() < need) {
    if (error != nullptr) {
      *error = "SUBMIT_BATCH count " + std::to_string(count) +
               " exceeds payload (" + std::to_string(frame.payload.size()) +
               " bytes)";
    }
    return false;
  }
  jobs.resize(count);
  if constexpr (kJobMatchesWire) {
    if (count > 0) {
      std::memcpy(jobs.data(), cursor,
                  static_cast<std::size_t>(count) * kJobBytes);
    }
  } else {
    for (std::uint32_t i = 0; i < count; ++i) jobs[i] = get_job(&cursor);
  }
  for (const Job& job : jobs) {
    if (!submitted_job_valid(job, "SUBMIT_BATCH", error)) return false;
  }
  return true;
}

bool parse_decision(const Frame& frame, DecisionMsg& out,
                    std::string* error) {
  std::uint8_t raw = 0;
  if (!parse_fields(frame.payload, "DECISION", error, out.request_id,
                    out.job_id, raw, out.machine, out.start)) {
    return false;
  }
  if (!outcome_valid(raw) ||
      !outcome_is_decision(static_cast<Outcome>(raw))) {
    if (error != nullptr) {
      *error = "DECISION carries non-decision outcome code " +
               std::to_string(raw);
    }
    return false;
  }
  out.outcome = static_cast<Outcome>(raw);
  return true;
}

bool parse_reject(const Frame& frame, RejectMsg& out, std::string* error) {
  std::uint8_t raw = 0;
  if (!parse_fields(frame.payload, "REJECT", error, out.request_id,
                    out.job_id, raw, out.retry_after_ms)) {
    return false;
  }
  if (!outcome_valid(raw) || !outcome_is_shed(static_cast<Outcome>(raw))) {
    if (error != nullptr) {
      *error = "REJECT carries non-shed outcome code " + std::to_string(raw);
    }
    return false;
  }
  out.outcome = static_cast<Outcome>(raw);
  return true;
}

bool parse_drained(const Frame& frame, DrainedMsg& out, std::string* error) {
  return parse_fields(frame.payload, "DRAINED", error, out.submitted,
                      out.accepted, out.rejected, out.accepted_volume,
                      out.rejected_volume, out.makespan, out.clean);
}

bool parse_token(const Frame& frame, std::uint64_t& token,
                 std::string* error) {
  return parse_fields(frame.payload, "PING/PONG", error, token);
}

std::string parse_error_message(const Frame& frame) {
  return std::string(frame.payload.begin(), frame.payload.end());
}

}  // namespace slacksched::net
