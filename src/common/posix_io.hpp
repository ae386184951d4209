// EINTR-safe file-descriptor I/O (docs/SERVER.md, "Framing").
//
// The raw read(2)/write(2) calls the wire protocol sits on can return
// early in two legitimate ways that are NOT errors: a signal interrupts
// the call before any byte moved (EINTR), or the kernel moves fewer bytes
// than asked (a partial transfer — routine on sockets and pipes).  Code
// that treats either as a failure, or that forgets to resume where the
// partial transfer stopped, corrupts the frame stream in ways that only
// show up under load.  These helpers centralize the retry loop so every
// framing call site transfers exactly the bytes it asked for or reports a
// real error.
//
// They are deliberately low-level (int fd, not iostreams): the analysis
// server speaks over sockets, and the tests exercise them on pipes and
// socketpairs.
#pragma once

#include <sys/uio.h>

#include <cstddef>

namespace cube {

/// Reads exactly `n` bytes into `buf`, retrying on EINTR and resuming
/// after partial reads.  Returns the number of bytes read: `n` normally,
/// fewer only when end-of-stream arrived first (0 for EOF before the
/// first byte).  Throws IoError on a real error.
std::size_t read_full(int fd, void* buf, std::size_t n);

/// Writes exactly `n` bytes from `buf`, retrying on EINTR and resuming
/// after partial writes.  Throws IoError on a real error — including
/// EPIPE, which a server must handle (an abrupt client disconnect
/// mid-response) rather than die from; callers should ensure SIGPIPE is
/// ignored or suppressed (the server uses MSG_NOSIGNAL-equivalent
/// setups / signal(SIGPIPE, SIG_IGN)).
void write_full(int fd, const void* buf, std::size_t n);

/// Gather form of write_full: writes every byte of the `count` buffers in
/// order, as one writev(2) where the kernel takes it all, retrying on
/// EINTR and resuming mid-buffer after partial writes.  `iov` is used as
/// scratch (entries are advanced as bytes go out).  Throws IoError on a
/// real error.
void writev_full(int fd, iovec* iov, int count);

}  // namespace cube
