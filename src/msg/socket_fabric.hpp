// Out-of-process message fabric: the same Fabric contract over sockets.
//
// The paper's SIP is an MPI program whose master, workers, and I/O
// servers are separate OS processes; SocketFabric gives this runtime the
// same property. Ranks that live in this process use the inherited
// in-process mailboxes (tag FIFOs, zero-copy BlockPtr payloads,
// condition-variable receives) untouched; messages for ranks in other
// processes are serialized into length-prefixed checksummed frames
// (msg/frame.hpp) and carried over UNIX-domain or TCP sockets. The
// topology is a star: the hub (the rank-0/master process) listens, every
// spoke process connects and registers its rank, and spoke-to-spoke
// traffic transits the hub, which preserves per-(src,dst) FIFO order —
// the same guarantee the thread fabric gives.
//
// Robustness is the design center, not an afterthought:
//   * every syscall goes through the EINTR-safe wrappers in
//     common/posix_io.hpp, with SIGPIPE suppressed process-wide;
//   * connect retries with exponential backoff under a deadline, so
//     spokes may start before the hub finishes listening;
//   * a frame that fails its magic, version, length, or checksum check
//     quarantines the connection — the mailbox never sees bytes the
//     codec did not vouch for;
//   * a dropped connection triggers transparent reconnect (counted in
//     TrafficStats::reconnects); frames lost in the reset are recovered
//     by the PR-4 reliable layer above (sender retransmit + receiver
//     dedup keep put+=/prepare+= exactly-once across a TCP reset);
//   * a peer that dies for good (kill -9) makes sends to it counted
//     drops, which is exactly the darkness the master's heartbeat
//     watchdog and the retry-exhaustion diagnostics were built for.
//
// Zero-copy degrades gracefully: a BlockPtr payload crossing a process
// boundary is serialized exactly once at the socket boundary
// (TrafficStats::serialized_* count the downgrade); in-process
// destinations keep the shared-pointer fast path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "msg/fabric.hpp"
#include "msg/frame.hpp"

namespace sia::msg {

struct SocketOptions {
  enum class Role {
    // Single process hosting every rank, but all cross-rank messages
    // still framed over a real socketpair: the transport-parity test
    // mode (SipConfig::socket_fabric) and the socket-overhead bench.
    kLoopback,
    // The master process: listens on `address`, accepts spoke
    // registrations, routes transit frames. Hosts rank 0.
    kHub,
    // A worker/server process hosting exactly `local_rank`; connects to
    // the hub at `address`.
    kSpoke,
  };

  Role role = Role::kLoopback;
  // Hub: listen address; spoke: hub address. Formats: "unix:<path>" or
  // "tcp:<host>:<port>" (hub port 0 = ephemeral; see listen_address()).
  std::string address;
  int local_rank = -1;  // spoke only
  // Connect/reconnect give up after this long (exponential backoff from
  // 1 ms capped at 100 ms between attempts).
  int connect_timeout_ms = 10000;
  // Called from a transport thread when the fabric is irrecoverably cut
  // off (reconnect deadline exhausted). The launch wires this to
  // SipShared::raise_abort so the rank aborts with a diagnosis instead
  // of hanging. May be empty: then the fabric just stops.
  std::function<void(const std::string&)> on_fatal;
  // A rejected frame (bad magic, version, length, checksum or payload)
  // ends the run through on_fatal, naming the peer and the status. Set
  // when no reliable protocol would retransmit what the dropped
  // connection lost; otherwise the connection is dropped and rebuilt.
  bool rejected_frame_is_fatal = false;
};

class SocketFabric : public Fabric {
 public:
  SocketFabric(int ranks, SocketOptions options);
  ~SocketFabric() override;

  void deliver(int src, int dst, Message message) override;
  void stop() override;
  TrafficStats total_stats() const override;

  // Hub: the bound listen address with any ephemeral TCP port resolved
  // ("tcp:127.0.0.1:41873"), suitable for spawning spokes.
  const std::string& listen_address() const { return listen_address_; }

  // Hub: blocks until every rank in [1, ranks) has registered, the
  // timeout elapses, or the fabric stops. True when all are registered.
  bool wait_for_peers(int timeout_ms);

  // Hub: true while `rank`'s connection is registered and not torn down.
  bool peer_connected(int rank) const;

  // Hub: drops `rank`'s connection (respawn preparation: the stale
  // socket of a killed process must not shadow the fresh one).
  void disconnect(int rank);

  // Spoke/loopback test hook: hard-resets the transport socket as a peer
  // crash would, forcing the reconnect path mid-stream.
  void debug_break_connection();
  // Spoke/loopback test hook: flips the checksum of the next frame sent,
  // as a corrupted stream would.
  void debug_corrupt_next_frame() { corrupt_next_frame_ = true; }

  bool is_local(int rank) const {
    return options_.role == SocketOptions::Role::kLoopback ||
           (options_.role == SocketOptions::Role::kHub ? rank == 0
                                                       : rank == options_.local_rank);
  }

  std::int64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  std::int64_t frames_rejected() const {
    return frames_rejected_.load(std::memory_order_relaxed);
  }
  std::int64_t peer_down_drops() const {
    return peer_down_drops_.load(std::memory_order_relaxed);
  }

 private:
  // One accepted hub-side connection (or the loopback pump). Outbound
  // frames are queued and written by a dedicated writer thread so send()
  // never blocks on a slow peer.
  struct Connection {
    int fd = -1;
    int peer_rank = -1;  // -1 until the hello frame registers it
    bool down = false;   // EOF/error/quarantine: no further traffic
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::vector<std::uint8_t>> outbound;
    std::thread reader;
    std::thread writer;
  };

  // ---- common ----
  void route_frame(int src, const Message& message, int dst);
  void enqueue_frame(Connection& conn, std::vector<std::uint8_t> frame);
  void writer_loop(Connection* conn);
  // Reads frames from conn->fd until EOF/error/stop; returns on any of
  // them. Validates every frame; quarantines on codec rejection.
  void reader_loop(Connection* conn);
  // Handles one validated frame arriving on `conn`.
  void handle_frame(Connection* conn, const FrameProlog& prolog,
                    std::vector<std::uint8_t> body);
  void quarantine(Connection* conn, DecodeStatus status);
  // Counts a rejected frame from `peer` (-1: unknown) and, when
  // rejected_frame_is_fatal, ends the run with a diagnostic.
  void reject(int peer, DecodeStatus status);
  void mark_down(Connection* conn);
  void fatal(const std::string& what);

  // ---- hub ----
  void accept_loop();
  void register_peer(Connection* conn, int rank);

  // ---- spoke ----
  // Connects to options_.address with backoff; returns the fd or -1
  // after the deadline. `deadline_ms` counts from now.
  int connect_with_backoff(int deadline_ms);
  // Re-establishes the spoke transport if `gen` is still current.
  // Returns false when the fabric stopped or the deadline passed.
  bool reconnect(std::uint64_t gen);
  void spoke_reader_loop();
  void spoke_writer_loop();

  SocketOptions options_;
  std::string listen_address_;

  // Hub state.
  int listen_fd_ = -1;
  std::thread accept_thread_;
  mutable std::mutex conns_mutex_;
  std::condition_variable conns_cv_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<Connection*> conn_by_rank_;   // registered live connection
  std::vector<bool> ever_registered_;
  // Frames for ranks that have not registered yet (spokes still
  // starting): flushed on registration. After a registered rank goes
  // down, frames are dropped instead (counted) — retransmit recovers.
  std::vector<std::deque<std::vector<std::uint8_t>>> pending_frames_;

  // Spoke/loopback transport: one socket, swapped on reconnect.
  mutable std::mutex spoke_mutex_;
  std::condition_variable spoke_cv_;
  int spoke_fd_ = -1;
  int loop_read_fd_ = -1;  // loopback: reader end of the socketpair
  std::uint64_t conn_gen_ = 0;
  bool reconnecting_ = false;  // one thread rebuilds; the other waits
  std::deque<std::vector<std::uint8_t>> spoke_outbound_;
  std::thread spoke_reader_;
  std::thread spoke_writer_;

  std::atomic<std::int64_t> reconnects_{0};
  std::atomic<std::int64_t> frames_rejected_{0};
  std::atomic<bool> corrupt_next_frame_{false};
  std::atomic<std::int64_t> peer_down_drops_{0};
};

// Splits "unix:<path>" / "tcp:<host>:<port>"; throws Error on nonsense.
struct SocketAddress {
  bool tcp = false;
  std::string path;  // unix
  std::string host;  // tcp
  int port = 0;      // tcp
  static SocketAddress parse(const std::string& text);
  std::string to_string() const;
};

// One EINTR-safe connect attempt to `addr`; returns the fd or -1 with
// errno preserved. Spawned ranks use this to open a one-shot connection
// for their final result/abort report — their regular fabric may already
// be stopped when the report is due.
int connect_socket(const SocketAddress& addr);

}  // namespace sia::msg
