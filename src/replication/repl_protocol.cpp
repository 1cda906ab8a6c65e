#include "replication/repl_protocol.hpp"

#include "common/framing.hpp"
#include "common/wire.hpp"
#include "service/commit_log.hpp"

namespace slacksched::repl {

namespace {

using framing::end_frame;
using framing::parse_fields;
using wire::put;

std::size_t begin_frame(std::vector<char>& out, ReplFrameType type,
                        std::uint16_t shard) {
  return framing::begin_frame(out, kReplProtocolVersion,
                              static_cast<std::uint8_t>(type), shard);
}

/// One complete frame whose payload is the fixed-width `fields`.
template <typename... Fields>
void encode(std::vector<char>& out, ReplFrameType type, std::uint16_t shard,
            const Fields&... fields) {
  framing::encode_frame(out, kReplProtocolVersion,
                        static_cast<std::uint8_t>(type), shard, fields...);
}

}  // namespace

std::string to_string(NackReason reason) {
  switch (reason) {
    case NackReason::kStaleLeader:
      return "stale-leader";
    case NackReason::kSequenceGap:
      return "sequence-gap";
    case NackReason::kCorruptRecord:
      return "corrupt-record";
    case NackReason::kBadState:
      return "bad-state";
  }
  return "unknown";
}

std::string to_string(ReplAckMode mode) {
  switch (mode) {
    case ReplAckMode::kAsync:
      return "async";
    case ReplAckMode::kAckOnBatch:
      return "ack-on-batch";
    case ReplAckMode::kAckOnCommit:
      return "ack-on-commit";
  }
  return "unknown";
}

void encode_hello(std::vector<char>& out, std::uint16_t shard,
                  const HelloMsg& msg) {
  encode(out, ReplFrameType::kHello, shard, msg.machines,
         static_cast<std::uint8_t>(msg.ack_mode), msg.leader_records);
}

void encode_welcome(std::vector<char>& out, std::uint16_t shard,
                    std::uint64_t follower_records) {
  encode(out, ReplFrameType::kWelcome, shard, follower_records);
}

void encode_append(std::vector<char>& out, std::uint16_t shard,
                   std::uint64_t base_seq, std::uint32_t count,
                   const char* records, std::size_t record_bytes) {
  const std::size_t start = begin_frame(out, ReplFrameType::kAppend, shard);
  put<std::uint64_t>(out, base_seq);
  put<std::uint32_t>(out, count);
  out.insert(out.end(), records, records + record_bytes);
  end_frame(out, start);
}

void encode_ack(std::vector<char>& out, std::uint16_t shard,
                std::uint64_t watermark) {
  encode(out, ReplFrameType::kAck, shard, watermark);
}

void encode_heartbeat(std::vector<char>& out, std::uint16_t shard,
                      std::uint64_t leader_records) {
  encode(out, ReplFrameType::kHeartbeat, shard, leader_records);
}

void encode_heartbeat_ack(std::vector<char>& out, std::uint16_t shard,
                          std::uint64_t follower_records) {
  encode(out, ReplFrameType::kHeartbeatAck, shard, follower_records);
}

void encode_nack(std::vector<char>& out, std::uint16_t shard,
                 NackReason reason, std::uint64_t detail,
                 std::string_view message) {
  const std::size_t start = begin_frame(out, ReplFrameType::kNack, shard);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(reason));
  put<std::uint64_t>(out, detail);
  out.insert(out.end(), message.begin(), message.end());
  end_frame(out, start);
}

bool parse_hello(const ReplFrame& frame, HelloMsg& out, std::string* error) {
  std::uint8_t mode = 0;
  if (!parse_fields(frame.payload, "HELLO", error, out.machines, mode,
                    out.leader_records)) {
    return false;
  }
  if (mode > static_cast<std::uint8_t>(ReplAckMode::kAckOnCommit)) {
    if (error != nullptr) {
      *error = "HELLO carries unknown ack mode " + std::to_string(mode);
    }
    return false;
  }
  out.ack_mode = static_cast<ReplAckMode>(mode);
  return true;
}

bool parse_watermark(const ReplFrame& frame, std::uint64_t& out,
                     std::string* error) {
  return parse_fields(frame.payload, "watermark frame", error, out);
}

bool parse_append(const ReplFrame& frame, std::uint64_t& base_seq,
                  std::uint32_t& count, const char** records,
                  std::string* error) {
  if (!parse_fields(frame.payload, "APPEND", error, base_seq, count)) {
    return false;
  }
  const std::size_t body = frame.payload.size() - 12;
  if (body != static_cast<std::size_t>(count) * kWalRecordBytes) {
    if (error != nullptr) {
      *error = "APPEND declares " + std::to_string(count) + " records but " +
               "carries " + std::to_string(body) + " body bytes";
    }
    return false;
  }
  *records = frame.payload.data() + 12;
  return true;
}

bool parse_nack(const ReplFrame& frame, NackMsg& out, std::string* error) {
  std::uint8_t reason = 0;
  if (!parse_fields(frame.payload, "NACK", error, reason, out.detail)) {
    return false;
  }
  if (reason < 1 || reason > static_cast<std::uint8_t>(NackReason::kBadState)) {
    if (error != nullptr) {
      *error = "NACK carries unknown reason code " + std::to_string(reason);
    }
    return false;
  }
  out.reason = static_cast<NackReason>(reason);
  out.message.assign(frame.payload.begin() + 9, frame.payload.end());
  return true;
}

}  // namespace slacksched::repl
