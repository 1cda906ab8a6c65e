#include "common/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>

namespace slacksched::wire {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// Runs `op(done)` (one syscall moving bytes `done`.. of `n`) until all
/// `n` moved or it reports end (0); retries EINTR. Bytes moved, or -1.
template <typename Op>
ssize_t transfer(std::size_t n, Op op) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t k = op(done);
    if (k < 0 && errno == EINTR) continue;
    if (k < 0) return -1;
    if (k == 0) break;
    done += static_cast<std::size_t>(k);
  }
  return static_cast<ssize_t>(done);
}

}  // namespace

bool write_all(int fd, const char* data, std::size_t n) {
  return transfer(n, [&](std::size_t done) {
           return ::write(fd, data + done, n - done);
         }) == static_cast<ssize_t>(n);
}

bool send_all(int fd, const char* data, std::size_t n) {
  return transfer(n, [&](std::size_t done) {
           return ::send(fd, data + done, n - done, MSG_NOSIGNAL);
         }) == static_cast<ssize_t>(n);
}

ssize_t pread_all(int fd, char* data, std::size_t n, off_t offset) {
  return transfer(n, [&](std::size_t done) {
    return ::pread(fd, data + done, n - done,
                   offset + static_cast<off_t>(done));
  });
}

std::uint32_t crc32_ieee(const void* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace slacksched::wire
