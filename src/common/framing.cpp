#include "common/framing.hpp"

#include "common/wire.hpp"

namespace slacksched::framing {

using wire::crc32_ieee;
using wire::get;
using wire::patch;
using wire::put;

std::size_t begin_frame(std::vector<char>& out, std::uint8_t version,
                        std::uint8_t type, std::uint16_t field) {
  put<std::uint8_t>(out, version);
  put<std::uint8_t>(out, type);
  put<std::uint16_t>(out, field);
  put<std::uint32_t>(out, 0);  // payload_len, patched by end_frame
  put<std::uint32_t>(out, 0);  // crc, patched by end_frame
  return out.size();
}

void end_frame(std::vector<char>& out, std::size_t payload_start) {
  const std::size_t len = out.size() - payload_start;
  patch<std::uint32_t>(out, payload_start - 8,
                       static_cast<std::uint32_t>(len));
  patch<std::uint32_t>(out, payload_start - 4,
                       crc32_ieee(out.data() + payload_start, len));
}

bool check_size(const std::vector<char>& payload, std::size_t need,
                const char* what, std::string* error) {
  if (payload.size() >= need) return true;
  if (error != nullptr) {
    *error = std::string(what) + " payload too short: " +
             std::to_string(payload.size()) + " < " + std::to_string(need) +
             " bytes";
  }
  return false;
}

void Decoder::feed(const char* data, std::size_t n) {
  if (!error_.empty()) return;  // sticky: the stream is already lost
  // Compact the consumed prefix before growing; amortized O(1) per byte.
  if (pos_ > 0 && (pos_ == buffer_.size() || pos_ >= 4096)) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

Decoder::Status Decoder::next(const Protocol& protocol, Header& header,
                              std::vector<char>& payload) {
  if (!error_.empty()) return Status::kError;
  if (buffered() < kHeaderSize) return Status::kNeedMore;
  const char* cursor = buffer_.data() + pos_;
  const std::uint8_t version = get<std::uint8_t>(&cursor);
  const std::uint8_t type = get<std::uint8_t>(&cursor);
  const std::uint16_t field = get<std::uint16_t>(&cursor);
  const std::uint32_t len = get<std::uint32_t>(&cursor);
  const std::uint32_t crc = get<std::uint32_t>(&cursor);
  if (version != protocol.version) {
    error_ = std::string("unsupported ") + protocol.label +
             "protocol version " + std::to_string(version) +
             " (this build speaks " + std::to_string(protocol.version) + ")";
    return Status::kError;
  }
  if (type < 1 || type > protocol.max_type) {
    error_ = std::string("unknown ") + protocol.label + "frame type " +
             std::to_string(type);
    return Status::kError;
  }
  if (len > protocol.max_payload) {
    error_ = "payload length " + std::to_string(len) + " exceeds the " +
             std::to_string(protocol.max_payload) + "-byte cap";
    return Status::kError;
  }
  if (buffered() < kHeaderSize + len) return Status::kNeedMore;
  if (crc32_ieee(cursor, len) != crc) {
    error_ = std::string("payload checksum mismatch on ") + protocol.label +
             "frame type " + std::to_string(type);
    return Status::kError;
  }
  header.type = type;
  header.field = field;
  payload.assign(cursor, cursor + len);
  pos_ += kHeaderSize + len;
  return Status::kFrame;
}

}  // namespace slacksched::framing
