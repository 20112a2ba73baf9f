// EINTR-safe POSIX I/O wrappers shared by every layer that touches file
// descriptors: the socket fabric, the served-array DiskStore, and the
// I/O-server ack journal.
//
// POSIX allows any slow syscall to return early with EINTR when a signal
// lands (profilers, SIGCHLD from spawned ranks, debugger attach), and
// read/write on sockets and files may legally transfer fewer bytes than
// asked. Scattering `while (errno == EINTR)` loops across call sites is
// how short-write bugs are born, so this header is the single place the
// retry policy lives:
//
//   * retry_eintr(fn)      — re-issues fn() while it fails with EINTR;
//   * read_full/write_full — loop until the whole count transferred, EOF,
//     or a real error (partial transfer + EINTR both retried);
//   * pread_full/pwrite_full — the positional variants DiskStore uses;
//   * fdatasync_eintr      — fdatasync with the same retry;
//   * replace_file         — crash-safe whole-file replace (temp file,
//     fdatasync, rename) for persistent state;
//   * ignore_sigpipe()     — process-wide SIGPIPE suppression so a write
//     to a reset socket fails with EPIPE instead of killing the rank.
//
// All *_full functions return the number of bytes transferred: `count` on
// success, less only on EOF (reads) — errors throw nothing here; callers
// get -1 with errno preserved and decide (DiskStore throws, the socket
// fabric reconnects).
#pragma once

#include <sys/types.h>

#include <cerrno>
#include <cstddef>
#include <functional>
#include <string>

namespace sia {

// Re-issues `fn` while it returns -1 with errno == EINTR.
template <typename Fn>
auto retry_eintr(Fn&& fn) -> decltype(fn()) {
  decltype(fn()) result;
  do {
    result = fn();
  } while (result < 0 && errno == EINTR);
  return result;
}

// Reads exactly `count` bytes unless EOF comes first. Returns the bytes
// read (possibly short at EOF), or -1 with errno set on a real error.
ssize_t read_full(int fd, void* buf, std::size_t count);

// Writes exactly `count` bytes. Returns `count`, or -1 with errno set.
ssize_t write_full(int fd, const void* buf, std::size_t count);

// Positional variants (DiskStore). Same contract as read/write_full.
ssize_t pread_full(int fd, void* buf, std::size_t count, off_t offset);
ssize_t pwrite_full(int fd, const void* buf, std::size_t count,
                    off_t offset);

// fdatasync with EINTR retry; returns 0 or -1 with errno set.
int fdatasync_eintr(int fd);

// Replaces the file at `path` crash-safely: `write` fills a private temp
// file beside it (returning false on failure), which is fdatasync'ed and
// renamed over `path`. A reader, or a restart after a crash at any point,
// sees the old file or the new one, never a torn one. Returns false, and
// leaves no temp file behind, if any step fails.
bool replace_file(const std::string& path,
                  const std::function<bool(int fd)>& write);

// close with EINTR handled (POSIX leaves the fd state unspecified after
// EINTR; retrying a close risks closing a recycled descriptor, so this
// calls close exactly once and swallows EINTR).
void close_quiet(int fd);

// Installs SIG_IGN for SIGPIPE once per process (idempotent, thread-safe).
// A peer resetting its socket then makes write fail with EPIPE — an errno
// the fabric's reconnect path handles — instead of delivering a
// process-fatal signal.
void ignore_sigpipe();

}  // namespace sia
