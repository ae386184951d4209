#include "common/posix_io.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace cube {

std::size_t read_full(int fd, void* buf, std::size_t n) {
  char* out = static_cast<char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd, out + done, n - done);
    if (got > 0) {
      done += static_cast<std::size_t>(got);
      continue;
    }
    if (got == 0) break;  // end of stream
    if (errno == EINTR) continue;
    throw IoError(std::string("read failed: ") + std::strerror(errno));
  }
  return done;
}

void write_full(int fd, const void* buf, std::size_t n) {
  const char* in = static_cast<const char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t put = ::write(fd, in + done, n - done);
    if (put > 0) {
      done += static_cast<std::size_t>(put);
      continue;
    }
    // write(2) returning 0 on a nonzero count is not meaningful for the
    // stream sockets and pipes these helpers serve; treat it like EINTR
    // and retry rather than spinning an error.
    if (put == 0 || errno == EINTR) continue;
    throw IoError(std::string("write failed: ") + std::strerror(errno));
  }
}

void writev_full(int fd, iovec* iov, int count) {
  while (count > 0) {
    if (iov->iov_len == 0) {
      ++iov;
      --count;
      continue;
    }
    const ssize_t put = ::writev(fd, iov, count);
    if (put < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("write failed: ") + std::strerror(errno));
    }
    // Skip the buffers that went out whole, then advance into the one the
    // partial write stopped in (0 bytes is retried like in write_full).
    auto left = static_cast<std::size_t>(put);
    while (count > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
}

}  // namespace cube
