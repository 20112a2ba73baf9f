#include "msg/socket_fabric.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/posix_io.hpp"

namespace sia::msg {

namespace {

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int make_unix_listener(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw Error("socket fabric: unix path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw Error("socket fabric: socket(): " + std::string(std::strerror(errno)));
  ::unlink(path.c_str());  // stale path from a previous run
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string why = std::strerror(errno);
    close_quiet(fd);
    throw Error("socket fabric: cannot listen on unix:" + path + ": " + why);
  }
  return fd;
}

int make_tcp_listener(const std::string& host, int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw Error("socket fabric: socket(): " + std::string(std::strerror(errno)));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (host.empty() || host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, host == "localhost" ? "127.0.0.1" : host.c_str(),
                         &addr.sin_addr) != 1) {
    close_quiet(fd);
    throw Error("socket fabric: bad tcp host: " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string why = std::strerror(errno);
    close_quiet(fd);
    throw Error("socket fabric: cannot listen on tcp:" + host + ":" +
                std::to_string(port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *bound_port = static_cast<int>(ntohs(bound.sin_port));
  } else {
    *bound_port = port;
  }
  return fd;
}

// One connect attempt; -1 on failure with errno preserved.
int try_connect(const SocketAddress& addr) {
  if (!addr.tcp) {
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    if (addr.path.size() >= sizeof(sun.sun_path)) {
      errno = ENAMETOOLONG;
      return -1;
    }
    std::memcpy(sun.sun_path, addr.path.c_str(), addr.path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (retry_eintr([&] {
          return ::connect(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun));
        }) < 0) {
      const int saved = errno;
      close_quiet(fd);
      errno = saved;
      return -1;
    }
    return fd;
  }
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_port = htons(static_cast<std::uint16_t>(addr.port));
  const std::string host =
      (addr.host.empty() || addr.host == "localhost") ? "127.0.0.1" : addr.host;
  if (::inet_pton(AF_INET, host.c_str(), &sin.sin_addr) != 1) {
    errno = EINVAL;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (retry_eintr([&] {
        return ::connect(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin));
      }) < 0) {
    const int saved = errno;
    close_quiet(fd);
    errno = saved;
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

}  // namespace

int connect_socket(const SocketAddress& addr) { return try_connect(addr); }

SocketAddress SocketAddress::parse(const std::string& text) {
  SocketAddress addr;
  if (text.rfind("unix:", 0) == 0) {
    addr.tcp = false;
    addr.path = text.substr(5);
    if (addr.path.empty()) {
      throw Error("socket fabric: empty unix socket path in '" + text + "'");
    }
    return addr;
  }
  if (text.rfind("tcp:", 0) == 0) {
    addr.tcp = true;
    const std::string rest = text.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon + 1 == rest.size()) {
      throw Error("socket fabric: expected tcp:<host>:<port>, got '" + text +
                  "'");
    }
    addr.host = rest.substr(0, colon);
    try {
      addr.port = std::stoi(rest.substr(colon + 1));
    } catch (const std::exception&) {
      addr.port = -1;
    }
    if (addr.port < 0 || addr.port > 65535) {
      throw Error("socket fabric: bad tcp port in '" + text + "'");
    }
    return addr;
  }
  throw Error("socket fabric: address must be unix:<path> or "
              "tcp:<host>:<port>, got '" + text + "'");
}

std::string SocketAddress::to_string() const {
  return tcp ? "tcp:" + host + ":" + std::to_string(port) : "unix:" + path;
}

SocketFabric::SocketFabric(int ranks, SocketOptions options)
    : Fabric(ranks), options_(std::move(options)) {
  ignore_sigpipe();
  switch (options_.role) {
    case SocketOptions::Role::kLoopback: {
      int sv[2] = {-1, -1};
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) < 0) {
        throw Error("socket fabric: socketpair(): " +
                    std::string(std::strerror(errno)));
      }
      spoke_fd_ = sv[0];
      loop_read_fd_ = sv[1];
      listen_address_ = "loopback";
      spoke_reader_ = std::thread([this] { spoke_reader_loop(); });
      spoke_writer_ = std::thread([this] { spoke_writer_loop(); });
      break;
    }
    case SocketOptions::Role::kHub: {
      const SocketAddress addr = SocketAddress::parse(options_.address);
      if (addr.tcp) {
        int port = 0;
        listen_fd_ = make_tcp_listener(addr.host, addr.port, &port);
        SocketAddress bound = addr;
        bound.port = port;
        if (bound.host.empty() || bound.host == "0.0.0.0") {
          bound.host = "127.0.0.1";  // loop-home address for local spawns
        }
        listen_address_ = bound.to_string();
      } else {
        listen_fd_ = make_unix_listener(addr.path);
        listen_address_ = addr.to_string();
      }
      conn_by_rank_.assign(static_cast<std::size_t>(ranks), nullptr);
      ever_registered_.assign(static_cast<std::size_t>(ranks), false);
      pending_frames_.resize(static_cast<std::size_t>(ranks));
      accept_thread_ = std::thread([this] { accept_loop(); });
      break;
    }
    case SocketOptions::Role::kSpoke: {
      SIA_CHECK(options_.local_rank > 0 && options_.local_rank < ranks,
                "spoke rank out of range");
      listen_address_ = options_.address;
      const int fd = connect_with_backoff(options_.connect_timeout_ms);
      if (fd < 0) {
        throw Error("socket fabric: rank " +
                    std::to_string(options_.local_rank) +
                    " could not connect to hub at " + options_.address +
                    " within " + std::to_string(options_.connect_timeout_ms) +
                    " ms");
      }
      std::vector<std::uint8_t> hello;
      encode_hello_frame(options_.local_rank, hello);
      if (write_full(fd, hello.data(), hello.size()) < 0) {
        close_quiet(fd);
        throw Error("socket fabric: hello to hub failed: " +
                    std::string(std::strerror(errno)));
      }
      spoke_fd_ = fd;
      spoke_reader_ = std::thread([this] { spoke_reader_loop(); });
      spoke_writer_ = std::thread([this] { spoke_writer_loop(); });
      break;
    }
  }
}

SocketFabric::~SocketFabric() {
  stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (spoke_reader_.joinable()) spoke_reader_.join();
  if (spoke_writer_.joinable()) spoke_writer_.join();
  // Accepted connections: their reader/writer threads observe stop() via
  // the shutdown() in stop() and exit; join them all before freeing.
  for (auto& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
    if (conn->fd >= 0) close_quiet(conn->fd);
  }
  if (listen_fd_ >= 0) {
    close_quiet(listen_fd_);
    if (options_.role == SocketOptions::Role::kHub) {
      const SocketAddress addr = SocketAddress::parse(options_.address);
      if (!addr.tcp) ::unlink(addr.path.c_str());
    }
  }
  if (spoke_fd_ >= 0) close_quiet(spoke_fd_);
  if (loop_read_fd_ >= 0) close_quiet(loop_read_fd_);
}

void SocketFabric::deliver(int src, int dst, Message message) {
  message.src = src;
  count_send(src, message);
  const bool local =
      options_.role == SocketOptions::Role::kLoopback
          ? dst == src  // self-sends skip the wire even in loopback mode
          : is_local(dst);
  if (local) {
    enqueue_local(dst, std::move(message));
  } else {
    route_frame(src, message, dst);
  }
}

void SocketFabric::route_frame(int src, const Message& message, int dst) {
  count_serialized(src, message);
  std::vector<std::uint8_t> frame;
  encode_message_frame(message, dst, frame);
  if (options_.role == SocketOptions::Role::kHub) {
    Connection* conn = nullptr;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conn = conn_by_rank_[static_cast<std::size_t>(dst)];
      if (conn == nullptr) {
        if (!ever_registered_[static_cast<std::size_t>(dst)] && !stopped()) {
          // The spoke process is still starting; park the frame until its
          // hello arrives.
          pending_frames_[static_cast<std::size_t>(dst)].push_back(
              std::move(frame));
        } else {
          peer_down_drops_.fetch_add(1, std::memory_order_relaxed);
        }
        return;
      }
    }
    enqueue_frame(*conn, std::move(frame));
    return;
  }
  // Spoke and loopback: everything goes out the single transport socket.
  {
    std::lock_guard<std::mutex> lock(spoke_mutex_);
    spoke_outbound_.push_back(std::move(frame));
  }
  spoke_cv_.notify_all();
}

void SocketFabric::enqueue_frame(Connection& conn,
                                 std::vector<std::uint8_t> frame) {
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    if (conn.down) {
      peer_down_drops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    conn.outbound.push_back(std::move(frame));
  }
  conn.cv.notify_one();
}

void SocketFabric::writer_loop(Connection* conn) {
  for (;;) {
    std::vector<std::uint8_t> frame;
    {
      std::unique_lock<std::mutex> lock(conn->mutex);
      conn->cv.wait(lock, [&] {
        return !conn->outbound.empty() || conn->down || stopped();
      });
      if (conn->down || stopped()) {
        peer_down_drops_.fetch_add(
            static_cast<std::int64_t>(conn->outbound.size()),
            std::memory_order_relaxed);
        conn->outbound.clear();
        return;
      }
      frame = std::move(conn->outbound.front());
      conn->outbound.pop_front();
    }
    if (write_full(conn->fd, frame.data(), frame.size()) < 0) {
      // The hub never reconnects: the spoke owns reattachment and will
      // re-register through accept_loop. Frames queued meanwhile drop and
      // the reliable layer retransmits them to the fresh connection.
      mark_down(conn);
      return;
    }
  }
}

void SocketFabric::reader_loop(Connection* conn) {
  std::vector<std::uint8_t> frame;
  for (;;) {
    frame.assign(kFramePrologBytes, 0);
    ssize_t n = read_full(conn->fd, frame.data(), kFramePrologBytes);
    if (n != static_cast<ssize_t>(kFramePrologBytes)) break;  // EOF/error
    FrameProlog prolog;
    const DecodeStatus status = decode_prolog(frame.data(), &prolog);
    if (status != DecodeStatus::kOk) {
      quarantine(conn, status);
      return;
    }
    const std::size_t body_bytes = prolog.length + kFrameChecksumBytes;
    frame.resize(kFramePrologBytes + body_bytes);
    n = read_full(conn->fd, frame.data() + kFramePrologBytes, body_bytes);
    if (n != static_cast<ssize_t>(body_bytes)) break;  // truncated frame
    handle_frame(conn, prolog, std::move(frame));
    frame.clear();
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (conn->down) return;
    }
  }
  mark_down(conn);
}

void SocketFabric::handle_frame(Connection* conn, const FrameProlog& prolog,
                                std::vector<std::uint8_t> frame) {
  const std::uint8_t* body = frame.data() + kFramePrologBytes;
  if (prolog.kind == FrameKind::kHello) {
    DecodedFrame decoded;
    const DecodeStatus status = decode_frame_body(prolog, body, &decoded);
    if (status != DecodeStatus::kOk || decoded.hello_rank <= 0 ||
        decoded.hello_rank >= ranks()) {
      quarantine(conn, status == DecodeStatus::kOk ? DecodeStatus::kMalformed
                                                   : status);
      return;
    }
    register_peer(conn, decoded.hello_rank);
    return;
  }
  if (prolog.kind != FrameKind::kMessage) {
    quarantine(conn, DecodeStatus::kMalformed);
    return;
  }
  if (prolog.length < sizeof(std::int32_t)) {
    quarantine(conn, DecodeStatus::kMalformed);
    return;
  }
  std::int32_t dst = -1;
  std::memcpy(&dst, body, sizeof(dst));
  if (dst < 0 || dst >= ranks()) {
    quarantine(conn, DecodeStatus::kMalformed);
    return;
  }
  if (is_local(dst)) {
    DecodedFrame decoded;
    const DecodeStatus status = decode_frame_body(prolog, body, &decoded);
    if (status != DecodeStatus::kOk) {
      quarantine(conn, status);
      return;
    }
    enqueue_local(dst, std::move(decoded.message));
    return;
  }
  // Transit frame (spoke -> hub -> spoke). Verify the checksum before
  // forwarding so corruption is pinned on the connection it arrived from.
  std::uint64_t stored = 0;
  std::memcpy(&stored, body + prolog.length, sizeof(stored));
  if (frame_checksum(body, prolog.length) != stored) {
    quarantine(conn, DecodeStatus::kBadChecksum);
    return;
  }
  Connection* next = nullptr;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    next = conn_by_rank_[static_cast<std::size_t>(dst)];
    if (next == nullptr) {
      if (!ever_registered_[static_cast<std::size_t>(dst)] && !stopped()) {
        pending_frames_[static_cast<std::size_t>(dst)].push_back(
            std::move(frame));
      } else {
        peer_down_drops_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
  }
  enqueue_frame(*next, std::move(frame));
}

void SocketFabric::quarantine(Connection* conn, DecodeStatus status) {
  reject(conn->peer_rank, status);
  mark_down(conn);
}

void SocketFabric::reject(int peer, DecodeStatus status) {
  frames_rejected_.fetch_add(1, std::memory_order_relaxed);
  if (!options_.rejected_frame_is_fatal) return;
  fatal("socket fabric: rejected a frame from " +
        (peer >= 0 ? "rank " + std::to_string(peer)
                   : std::string("an unregistered peer")) +
        " (" + decode_status_name(status) +
        "); a corrupted stream cannot be resynchronized and fault "
        "tolerance is off");
}

void SocketFabric::mark_down(Connection* conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->down) return;
    conn->down = true;
  }
  conn->cv.notify_all();
  ::shutdown(conn->fd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    const int rank = conn->peer_rank;
    if (rank >= 0 &&
        conn_by_rank_[static_cast<std::size_t>(rank)] == conn) {
      conn_by_rank_[static_cast<std::size_t>(rank)] = nullptr;
    }
  }
  conns_cv_.notify_all();
}

void SocketFabric::fatal(const std::string& what) {
  if (options_.on_fatal) {
    options_.on_fatal(what);
  } else {
    stop();
  }
}

void SocketFabric::accept_loop() {
  const bool tcp = SocketAddress::parse(options_.address).tcp;
  for (;;) {
    const int fd = retry_eintr([&] { return ::accept(listen_fd_, nullptr, nullptr); });
    if (fd < 0) {
      if (stopped() || errno == EBADF || errno == EINVAL) return;
      continue;  // transient (EMFILE, ECONNABORTED): keep accepting
    }
    if (stopped()) {
      close_quiet(fd);
      return;
    }
    if (tcp) set_nodelay(fd);
    Connection* conn = nullptr;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.push_back(std::make_unique<Connection>());
      conn = conns_.back().get();
      conn->fd = fd;
      conn->reader = std::thread([this, conn] { reader_loop(conn); });
      conn->writer = std::thread([this, conn] { writer_loop(conn); });
    }
  }
}

void SocketFabric::register_peer(Connection* conn, int rank) {
  Connection* old = nullptr;
  std::deque<std::vector<std::uint8_t>> flush;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    old = conn_by_rank_[static_cast<std::size_t>(rank)];
    conn_by_rank_[static_cast<std::size_t>(rank)] = conn;
    ever_registered_[static_cast<std::size_t>(rank)] = true;
    conn->peer_rank = rank;
    flush.swap(pending_frames_[static_cast<std::size_t>(rank)]);
  }
  conns_cv_.notify_all();
  // A re-registration (respawned or reconnected process) supersedes the
  // stale connection; tear the old one down so its threads exit.
  if (old != nullptr && old != conn) mark_down(old);
  for (auto& frame : flush) {
    enqueue_frame(*conn, std::move(frame));
  }
}

int SocketFabric::connect_with_backoff(int deadline_ms) {
  const SocketAddress addr = SocketAddress::parse(options_.address);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  auto delay = std::chrono::milliseconds(1);
  for (;;) {
    if (stopped()) return -1;
    const int fd = try_connect(addr);
    if (fd >= 0) return fd;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return -1;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    std::this_thread::sleep_for(std::min(delay, remaining));
    delay = std::min(delay * 2, std::chrono::milliseconds(100));
  }
}

bool SocketFabric::reconnect(std::uint64_t gen) {
  std::unique_lock<std::mutex> lock(spoke_mutex_);
  for (;;) {
    if (stopped()) return false;
    if (conn_gen_ != gen) return true;  // the other thread already did it
    if (!reconnecting_) break;
    spoke_cv_.wait(lock);
  }
  reconnecting_ = true;
  const int old_fd = spoke_fd_;
  const int old_read = loop_read_fd_;
  spoke_fd_ = -1;
  loop_read_fd_ = -1;
  lock.unlock();

  if (old_fd >= 0) close_quiet(old_fd);
  if (old_read >= 0) close_quiet(old_read);
  int fd = -1;
  int read_fd = -1;
  bool ok = false;
  if (options_.role == SocketOptions::Role::kLoopback) {
    int sv[2] = {-1, -1};
    ok = ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0;
    if (ok) {
      fd = sv[0];
      read_fd = sv[1];
    }
  } else {
    fd = connect_with_backoff(options_.connect_timeout_ms);
    ok = fd >= 0;
    if (ok) {
      // Re-register before anything else so the hub maps the fresh
      // connection to this rank again.
      std::vector<std::uint8_t> hello;
      encode_hello_frame(options_.local_rank, hello);
      ok = write_full(fd, hello.data(), hello.size()) >= 0;
    }
  }

  lock.lock();
  reconnecting_ = false;
  if (!ok || stopped()) {
    if (fd >= 0) close_quiet(fd);
    if (read_fd >= 0) close_quiet(read_fd);
    lock.unlock();
    spoke_cv_.notify_all();
    if (!stopped()) {
      fatal("socket fabric: rank " + std::to_string(options_.local_rank) +
            " lost its hub connection and could not reconnect to " +
            options_.address + " within " +
            std::to_string(options_.connect_timeout_ms) + " ms");
    }
    return false;
  }
  spoke_fd_ = fd;
  loop_read_fd_ = read_fd;
  ++conn_gen_;
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  lock.unlock();
  spoke_cv_.notify_all();
  return true;
}

void SocketFabric::spoke_reader_loop() {
  std::vector<std::uint8_t> buffer;
  for (;;) {
    int fd = -1;
    std::uint64_t gen = 0;
    {
      std::unique_lock<std::mutex> lock(spoke_mutex_);
      spoke_cv_.wait(lock, [&] {
        return stopped() || (!reconnecting_ &&
                             (options_.role == SocketOptions::Role::kLoopback
                                  ? loop_read_fd_ >= 0
                                  : spoke_fd_ >= 0));
      });
      if (stopped()) return;
      fd = options_.role == SocketOptions::Role::kLoopback ? loop_read_fd_
                                                           : spoke_fd_;
      gen = conn_gen_;
    }

    bool broken = false;
    for (;;) {
      buffer.assign(kFramePrologBytes, 0);
      ssize_t n = read_full(fd, buffer.data(), kFramePrologBytes);
      if (n != static_cast<ssize_t>(kFramePrologBytes)) {
        broken = true;
        break;
      }
      FrameProlog prolog;
      DecodeStatus status = decode_prolog(buffer.data(), &prolog);
      // A spoke's only peer is the hub; on the loopback socket the peer
      // is the source rank the frame claims, once its body is read.
      int peer = options_.role == SocketOptions::Role::kLoopback ? -1 : 0;
      if (status == DecodeStatus::kOk) {
        const std::size_t body_bytes = prolog.length + kFrameChecksumBytes;
        buffer.resize(body_bytes);
        n = read_full(fd, buffer.data(), body_bytes);
        if (n != static_cast<ssize_t>(body_bytes)) {
          broken = true;
          break;
        }
        DecodedFrame decoded;
        status = decode_frame_body(prolog, buffer.data(), &decoded);
        if (status == DecodeStatus::kOk &&
            decoded.kind == FrameKind::kMessage && decoded.dst >= 0 &&
            decoded.dst < ranks() && is_local(decoded.dst)) {
          enqueue_local(decoded.dst, std::move(decoded.message));
          continue;
        }
        if (status == DecodeStatus::kOk) status = DecodeStatus::kMalformed;
        const int src = frame_source(prolog, buffer.data());
        if (peer < 0 && src >= 0 && src < ranks()) peer = src;
      }
      // Garbage on a stream transport cannot be resynchronized: reject
      // the frame and treat the connection as lost.
      reject(peer, status);
      broken = true;
      break;
    }
    if (broken) {
      if (stopped()) return;
      if (!reconnect(gen)) return;
    }
  }
}

void SocketFabric::spoke_writer_loop() {
  for (;;) {
    std::vector<std::uint8_t> frame;
    int fd = -1;
    std::uint64_t gen = 0;
    {
      std::unique_lock<std::mutex> lock(spoke_mutex_);
      spoke_cv_.wait(lock, [&] {
        return stopped() ||
               (!spoke_outbound_.empty() && !reconnecting_ && spoke_fd_ >= 0);
      });
      if (stopped()) return;
      frame = std::move(spoke_outbound_.front());
      spoke_outbound_.pop_front();
      fd = spoke_fd_;
      gen = conn_gen_;
    }
    if (corrupt_next_frame_.load(std::memory_order_relaxed) &&
        corrupt_next_frame_.exchange(false)) {
      frame.back() ^= 0xff;
    }
    if (write_full(fd, frame.data(), frame.size()) < 0) {
      if (stopped()) return;
      {
        // Put the frame back so the fresh connection retries it; the far
        // side's dedup (reliable layer) absorbs the double-arrival case
        // where the reset raced the last write.
        std::lock_guard<std::mutex> lock(spoke_mutex_);
        spoke_outbound_.push_front(std::move(frame));
      }
      if (!reconnect(gen)) return;
    }
  }
}

void SocketFabric::stop() {
  Fabric::stop();
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& conn : conns_) {
      {
        std::lock_guard<std::mutex> conn_lock(conn->mutex);
        conn->down = true;
      }
      conn->cv.notify_all();
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  conns_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(spoke_mutex_);
    if (spoke_fd_ >= 0) ::shutdown(spoke_fd_, SHUT_RDWR);
    if (loop_read_fd_ >= 0) ::shutdown(loop_read_fd_, SHUT_RDWR);
  }
  spoke_cv_.notify_all();
}

TrafficStats SocketFabric::total_stats() const {
  TrafficStats total = Fabric::total_stats();
  total.reconnects += reconnects_.load(std::memory_order_relaxed);
  total.frames_rejected += frames_rejected_.load(std::memory_order_relaxed);
  total.peer_down_drops += peer_down_drops_.load(std::memory_order_relaxed);
  return total;
}

bool SocketFabric::wait_for_peers(int timeout_ms) {
  std::unique_lock<std::mutex> lock(conns_mutex_);
  const auto all_registered = [&] {
    for (int rank = 1; rank < ranks(); ++rank) {
      if (conn_by_rank_[static_cast<std::size_t>(rank)] == nullptr) {
        return false;
      }
    }
    return true;
  };
  conns_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                     [&] { return all_registered() || stopped(); });
  return all_registered();
}

bool SocketFabric::peer_connected(int rank) const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  return rank > 0 && rank < ranks() &&
         conn_by_rank_[static_cast<std::size_t>(rank)] != nullptr;
}

void SocketFabric::disconnect(int rank) {
  Connection* conn = nullptr;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    if (rank > 0 && rank < ranks()) {
      conn = conn_by_rank_[static_cast<std::size_t>(rank)];
    }
  }
  if (conn != nullptr) mark_down(conn);
}

void SocketFabric::debug_break_connection() {
  std::lock_guard<std::mutex> lock(spoke_mutex_);
  if (spoke_fd_ >= 0) ::shutdown(spoke_fd_, SHUT_RDWR);
  if (loop_read_fd_ >= 0) ::shutdown(loop_read_fd_, SHUT_RDWR);
}

}  // namespace sia::msg
