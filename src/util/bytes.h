#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

namespace nors::util {

// Byte-level helpers shared by the frozen image, the wire framing and the
// WAL. The POSIX loops return an errno instead of throwing, so each caller
// keeps its own error type (WalError, std::runtime_error).

/// FNV-1a 64: the checksum of the image trailer, of every wire frame and
/// WAL record, and the failpoint seed hash.
inline std::uint64_t fnv1a(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Little-endian fixed-width access. memcpy keeps it alignment-safe; the
// repo targets little-endian hosts (the image loader rejects big-endian
// images the same way).
template <typename T>
T read_le(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void write_le(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

/// Writes all `len` bytes to `fd`, retrying EINTR. Returns 0, or the errno
/// of the write that failed (ENOSPC for one that made no progress).
inline int write_all(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t off = 0;
  while (off < len) {
    const ssize_t k = ::write(fd, p + off, len - off);
    if (k < 0 && errno == EINTR) continue;
    if (k < 0) return errno;
    if (k == 0) return ENOSPC;
    off += static_cast<std::size_t>(k);
  }
  return 0;
}

/// fsyncs the directory itself, so creates, renames and unlinks inside it
/// are durable. Returns 0 or the errno of the open/fsync that failed.
inline int fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return errno;
  const int err = ::fsync(fd) != 0 ? errno : 0;
  ::close(fd);
  return err;
}

}  // namespace nors::util
