/// \file
/// The one frame codec behind both wire protocols: the admission protocol
/// (net/protocol.hpp) and the replication protocol
/// (replication/repl_protocol.hpp). Each protocol owns only its type
/// table and its message encoders/parsers; the header, the payload-size
/// check and the incremental decoder live here.
///
/// Frame layout (header is kHeaderSize = 12 bytes, little-endian, frozen
/// across versions so a version-1 decoder can still reject a v2 frame):
///
///   u8  version      the protocol's version; mismatch rejects the frame
///   u8  type         1 .. the protocol's largest type; others reject
///   u16 field        per protocol: reserved (0) in net, shard in repl
///   u32 payload_len  <= the protocol's payload cap; bigger frames reject
///   u32 crc          CRC-32 (IEEE, common/wire.hpp) of the payload bytes
///   ... payload_len bytes of payload
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/wire.hpp"

namespace slacksched::framing {

/// Size of the fixed frame header in bytes.
inline constexpr std::size_t kHeaderSize = 12;

/// What a decoder checks a header against: one per protocol.
struct Protocol {
  std::uint8_t version = 1;
  std::uint8_t max_type = 0;  ///< valid types are 1 .. max_type
  std::uint32_t max_payload = 0;
  /// Inserted into error messages ("" or "replication ").
  const char* label = "";
};

/// The validated header fields of one decoded frame.
struct Header {
  std::uint8_t type = 0;
  std::uint16_t field = 0;
};

/// Opens a frame: writes the header with payload_len/crc zeroed and
/// returns the offset where the payload begins.
std::size_t begin_frame(std::vector<char>& out, std::uint8_t version,
                        std::uint8_t type, std::uint16_t field);

/// Closes the frame opened at `payload_start`: patches length and CRC.
void end_frame(std::vector<char>& out, std::size_t payload_start);

/// Appends one complete frame whose payload is `fields`, in order, each at
/// its own fixed width (common/wire.hpp).
template <typename... Fields>
void encode_frame(std::vector<char>& out, std::uint8_t version,
                  std::uint8_t type, std::uint16_t field,
                  const Fields&... fields) {
  const std::size_t start = begin_frame(out, version, type, field);
  (wire::put(out, fields), ...);
  end_frame(out, start);
}

/// The payload-size check: false (with *error set, naming `what`) when
/// `payload` is shorter than `need` bytes. Longer is legal — a newer peer
/// may have appended fields this build does not read.
[[nodiscard]] bool check_size(const std::vector<char>& payload,
                              std::size_t need, const char* what,
                              std::string* error);

/// Reads `fields`, in order, from the front of `payload` once check_size
/// passed for their total width; the inverse of encode_frame's field list.
template <typename... Fields>
[[nodiscard]] bool parse_fields(const std::vector<char>& payload,
                                const char* what, std::string* error,
                                Fields&... fields) {
  if (!check_size(payload, (sizeof(Fields) + ...), what, error)) return false;
  const char* cursor = payload.data();
  ((fields = wire::get<Fields>(&cursor)), ...);
  return true;
}

/// Incremental frame decoder: feed() raw bytes as they arrive, then pull
/// complete frames with next(). A malformed stream (bad version, unknown
/// type, oversized length, CRC mismatch) puts the decoder into a sticky
/// error state — framing is lost for good on a byte stream, so the only
/// safe reaction is to report and close the connection.
class Decoder {
 public:
  enum class Status {
    kFrame,     ///< the next complete frame was decoded
    kNeedMore,  ///< no complete frame buffered; feed() more bytes
    kError,     ///< stream corrupt; see error()
  };

  void feed(const char* data, std::size_t n);

  /// Decodes the next frame of `protocol` into `header` and `payload`.
  [[nodiscard]] Status next(const Protocol& protocol, Header& header,
                            std::vector<char>& payload);

  /// Why the stream was rejected (empty unless next() returned kError).
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - pos_; }

 private:
  std::vector<char> buffer_;
  std::size_t pos_ = 0;  ///< consumed prefix of buffer_
  std::string error_;
};

/// A protocol's decoder, typed by its frame struct. `FrameT` carries a
/// `type`, a `payload` and an `adopt(const Header&)` that stores the
/// header's fields under the protocol's names.
template <typename FrameT, const Protocol& kProtocol>
class TypedDecoder {
 public:
  using Status = Decoder::Status;

  void feed(const char* data, std::size_t n) { decoder_.feed(data, n); }

  [[nodiscard]] Status next(FrameT& out) {
    Header header;
    const Status status = decoder_.next(kProtocol, header, out.payload);
    if (status == Status::kFrame) out.adopt(header);
    return status;
  }

  [[nodiscard]] const std::string& error() const { return decoder_.error(); }
  [[nodiscard]] std::size_t buffered() const { return decoder_.buffered(); }

 private:
  Decoder decoder_;
};

}  // namespace slacksched::framing
