#include "common/posix_io.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <mutex>

namespace sia {

ssize_t read_full(int fd, void* buf, std::size_t count) {
  char* cursor = static_cast<char*>(buf);
  std::size_t done = 0;
  while (done < count) {
    const ssize_t got =
        retry_eintr([&] { return ::read(fd, cursor + done, count - done); });
    if (got < 0) return -1;
    if (got == 0) break;  // EOF
    done += static_cast<std::size_t>(got);
  }
  return static_cast<ssize_t>(done);
}

ssize_t write_full(int fd, const void* buf, std::size_t count) {
  const char* cursor = static_cast<const char*>(buf);
  std::size_t done = 0;
  while (done < count) {
    const ssize_t put = retry_eintr(
        [&] { return ::write(fd, cursor + done, count - done); });
    if (put < 0) return -1;
    done += static_cast<std::size_t>(put);
  }
  return static_cast<ssize_t>(done);
}

ssize_t pread_full(int fd, void* buf, std::size_t count, off_t offset) {
  char* cursor = static_cast<char*>(buf);
  std::size_t done = 0;
  while (done < count) {
    const ssize_t got = retry_eintr([&] {
      return ::pread(fd, cursor + done, count - done,
                     offset + static_cast<off_t>(done));
    });
    if (got < 0) return -1;
    if (got == 0) break;  // EOF
    done += static_cast<std::size_t>(got);
  }
  return static_cast<ssize_t>(done);
}

ssize_t pwrite_full(int fd, const void* buf, std::size_t count,
                    off_t offset) {
  const char* cursor = static_cast<const char*>(buf);
  std::size_t done = 0;
  while (done < count) {
    const ssize_t put = retry_eintr([&] {
      return ::pwrite(fd, cursor + done, count - done,
                      offset + static_cast<off_t>(done));
    });
    if (put < 0) return -1;
    done += static_cast<std::size_t>(put);
  }
  return static_cast<ssize_t>(done);
}

int fdatasync_eintr(int fd) {
  return static_cast<int>(retry_eintr([&] { return ::fdatasync(fd); }));
}

bool replace_file(const std::string& path,
                  const std::function<bool(int fd)>& write) {
  static std::atomic<std::uint64_t> counter{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) +
                           "." + std::to_string(counter++);
  const int fd = retry_eintr([&] {
    return ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  });
  if (fd < 0) return false;
  const bool written = write(fd) && fdatasync_eintr(fd) == 0;
  close_quiet(fd);
  if (written && std::rename(temp.c_str(), path.c_str()) == 0) return true;
  ::unlink(temp.c_str());
  return false;
}

void close_quiet(int fd) {
  if (fd >= 0) ::close(fd);
}

void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction action = {};
    action.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &action, nullptr);
  });
}

}  // namespace sia
