// Binary wire helpers shared by every on-the-wire and on-disk format in
// the repo: the commit log's records (service/commit_log.hpp), and the
// frames of the admission protocol (net/protocol.hpp) and the
// replication protocol (replication/repl_protocol.hpp), both built by the
// frame codec in common/framing.hpp. One codec, one checksum — a record
// that encodes here decodes anywhere, and the tests that forge corrupt
// frames forge them through the same path. The blocking full-write loops
// below carry those bytes to files and sockets.
//
// Encoding is little-endian, fixed-width, via memcpy (never pointer
// casts): safe under -fsanitize=undefined and on any alignment. Floats
// travel as their IEEE-754 bit patterns, so a round trip is bit-exact.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace slacksched::wire {

/// IEEE CRC-32 (reflected, poly 0xEDB88320) over `n` bytes — the framing
/// checksum of both the commit log and the admission protocol.
[[nodiscard]] std::uint32_t crc32_ieee(const void* data, std::size_t n);

/// Appends `value`'s little-endian bytes to `out`.
template <typename T>
void put(std::vector<char>& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

/// Reads one `T` from `*cursor` and advances it. The caller has already
/// bounds-checked: framing validates payload lengths before field reads.
template <typename T>
[[nodiscard]] T get(const char** cursor) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, *cursor, sizeof(T));
  *cursor += sizeof(T);
  return value;
}

/// Writes all `n` bytes to the file `fd`, retrying short writes and EINTR.
/// False (errno set) on failure.
[[nodiscard]] bool write_all(int fd, const char* data, std::size_t n);

/// Reads up to `n` bytes of the file `fd` from `offset`, retrying short
/// reads and EINTR. Returns the bytes read (fewer than `n` only at end of
/// file), or -1 (errno set) on failure.
[[nodiscard]] ssize_t pread_all(int fd, char* data, std::size_t n,
                                off_t offset);

/// write_all for a socket: sends with MSG_NOSIGNAL, so a vanished peer is
/// a false return (errno set), not a SIGPIPE.
[[nodiscard]] bool send_all(int fd, const char* data, std::size_t n);

/// Overwrites sizeof(T) bytes at `out[offset]` with `value` — for length
/// or checksum fields filled in after the payload is known.
template <typename T>
void patch(std::vector<char>& out, std::size_t offset, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

}  // namespace slacksched::wire
