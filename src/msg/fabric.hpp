// In-process message-passing fabric: the MPI substitute.
//
// The paper's SIP runs one sequential MPI process per master/worker/server.
// This environment has no MPI and no cluster, so ranks are threads and the
// fabric provides the messaging semantics the SIP actually relies on:
//   * asynchronous point-to-point sends that never block the sender
//     (buffered, like eager-protocol MPI_Isend),
//   * polling receipt — ranks "periodically check for messages and process
//     them" (paper §V-B) via try_recv,
//   * blocking receive with a condition variable for idle servers,
//   * a fabric-wide barrier used by the GA baseline and tests (the SIP
//     builds its own explicit barrier protocol on plain messages).
//
// Mailboxes are tag-indexed: each tag has its own FIFO sub-queue and a
// global arrival-order index threads them together, so try_recv_tag is
// O(1) instead of a linear scan and control traffic (barriers, acks,
// chunk grants) never convoys behind queued block payloads. Global FIFO
// order per (src,dst) pair is preserved — the SIP's barrier protocol
// depends on it for epoch causality.
//
// The fabric also counts messages and payload volume per rank so tests
// and ablation benches can observe communication traffic, including how
// many messages moved their block payload zero-copy.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/fields.hpp"
#include "msg/message.hpp"

namespace sia::msg {

// Communication counters for one rank (what it sent).
struct TrafficStats {
  std::int64_t messages_sent = 0;
  std::int64_t payload_doubles_sent = 0;  // wire-equivalent data words
  std::int64_t header_words_sent = 0;
  // Messages whose block payload travelled as a shared BlockPtr instead
  // of being packed into a wire buffer, and the doubles that therefore
  // were never copied (once at pack time and once at unpack time each).
  std::int64_t zero_copy_messages = 0;
  std::int64_t zero_copy_doubles = 0;
  // Sends attempted after stop(): counted no-ops, not errors. During a
  // fault-triggered teardown surviving ranks' retransmit timers keep
  // firing; turning each into an exception would make shutdown an
  // exception storm.
  std::int64_t sends_after_stop = 0;
  // Norm-based screening: block transfers answered (or elided outright)
  // with a tiny screened marker instead of a payload, and the data words
  // that therefore never crossed the fabric.
  std::int64_t blocks_screened = 0;
  std::int64_t bytes_elided = 0;
  // Socket transport: messages whose payload had to be serialized into a
  // wire frame because the destination rank lives in another process —
  // the zero-copy downgrade — and the doubles copied for them. For
  // in-process destinations the BlockPtr fast path still applies and
  // these stay zero.
  std::int64_t serialized_messages = 0;
  std::int64_t serialized_doubles = 0;
  // Socket transport robustness: connections re-established after a
  // reset, malformed frames rejected (peer quarantined), and messages
  // dropped because the destination's process/connection was down.
  std::int64_t reconnects = 0;
  std::int64_t frames_rejected = 0;
  std::int64_t peer_down_drops = 0;

  // Field list for the rank report (common/fields.hpp).
  template <class Visit, class... S>
  static void fields(Visit&& visit, S&... s) {
    visit("messages_sent", Fold::kSum, s.messages_sent...);
    visit("payload_doubles_sent", Fold::kSum, s.payload_doubles_sent...);
    visit("header_words_sent", Fold::kSum, s.header_words_sent...);
    visit("zero_copy_messages", Fold::kSum, s.zero_copy_messages...);
    visit("zero_copy_doubles", Fold::kSum, s.zero_copy_doubles...);
    visit("sends_after_stop", Fold::kSum, s.sends_after_stop...);
    visit("blocks_screened", Fold::kSum, s.blocks_screened...);
    visit("bytes_elided", Fold::kSum, s.bytes_elided...);
    visit("serialized_messages", Fold::kSum, s.serialized_messages...);
    visit("serialized_doubles", Fold::kSum, s.serialized_doubles...);
    visit("reconnects", Fold::kSum, s.reconnects...);
    visit("frames_rejected", Fold::kSum, s.frames_rejected...);
    visit("peer_down_drops", Fold::kSum, s.peer_down_drops...);
  }
};

class Fabric {
 public:
  explicit Fabric(int ranks);
  virtual ~Fabric();

  int ranks() const { return static_cast<int>(boxes_.size()); }

  // Asynchronous buffered send; never blocks. `src` is stamped into the
  // message. Sending to an out-of-range rank throws; sending on a stopped
  // fabric is a counted no-op (TrafficStats::sends_after_stop).
  virtual void send(int src, int dst, Message message);

  // Non-blocking receive of the oldest pending message, any tag.
  virtual std::optional<Message> try_recv(int rank);

  // Non-blocking receive of the oldest pending message with `tag`,
  // skipping (and preserving order of) other messages. O(1).
  virtual std::optional<Message> try_recv_tag(int rank, int tag);

  // True if any message is pending for `rank`.
  virtual bool has_message(int rank) const;

  // Blocking receive; waits on a condition variable. Returns nullopt only
  // if the fabric is stopped while waiting (shutdown path).
  virtual std::optional<Message> recv(int rank);

  // Blocking receive with timeout in milliseconds; nullopt on timeout or
  // stop.
  virtual std::optional<Message> recv_for(int rank, int timeout_ms);

  // Fabric-wide barrier across all ranks (sense-reversing). Every rank
  // must call it; used by the GA baseline and by tests. Only meaningful
  // when all participating ranks live in this process.
  virtual void barrier(int rank);

  // Wakes all blocked receivers and makes further recv calls return
  // nullopt. Sends after stop() become counted no-ops.
  virtual void stop();
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  // Fault-injection hooks; the plain fabric has no dead ranks. ChaosFabric
  // overrides these: `killed` marks a rank whose sends/receives go dark,
  // `revive` clears the mark after the master respawns the rank's thread.
  virtual bool killed(int rank) const {
    (void)rank;
    return false;
  }
  virtual void revive(int rank) { (void)rank; }

  virtual TrafficStats stats(int rank) const;
  virtual TrafficStats total_stats() const;

  // Records one screened block transfer charged to `rank`: a payload of
  // `doubles_elided` words that was answered with a marker (or dropped at
  // the sender) instead of moving across the fabric.
  virtual void record_screened(int rank, std::int64_t doubles_elided);

  // Enqueue toward dst's mailbox without fault interposition: stamps the
  // source, bumps the sender's traffic counters, and delivers. The raw
  // hook under send(). Public and virtual so decorators (ChaosFabric's
  // delayed-delivery thread) can inject into their base fabric, and so
  // transports (SocketFabric) can route the delivery across a socket
  // when dst lives in another process.
  virtual void deliver(int src, int dst, Message message);

 protected:
  // Bumps src's send counters for `message` (charged even when the
  // delivery is then routed over a socket).
  void count_send(int src, const Message& message);
  // Mailbox-only enqueue into this instance's queues; what deliver()
  // does for an in-process destination.
  void enqueue_local(int dst, Message message);
  // Charges a serialized (single-copy framed) transfer to src.
  void count_serialized(int src, const Message& message);

 private:
  struct TaggedMessage {
    std::uint64_t seq = 0;  // arrival order within the mailbox
    Message msg;
  };

  struct Mailbox {
    mutable std::mutex mutex;
    std::condition_variable cv;
    // Per-tag FIFO sub-queues plus a global arrival-order index of
    // (tag, seq) pairs. A fifo entry is live iff the tag queue's front
    // still carries that seq; entries drained out of order by
    // try_recv_tag leave stale index pairs that the FIFO pops skip
    // lazily (each is skipped at most once, so amortized O(1)).
    std::unordered_map<int, std::deque<TaggedMessage>> by_tag;
    std::deque<std::pair<int, std::uint64_t>> fifo;
    std::uint64_t next_seq = 0;
    std::size_t pending = 0;  // total live messages

    // Counters for messages this rank sent. Atomics so send() can bump
    // them without taking the sender's mailbox lock (which would serialize
    // unrelated sends against the sender's own receives).
    std::atomic<std::int64_t> messages_sent{0};
    std::atomic<std::int64_t> payload_doubles_sent{0};
    std::atomic<std::int64_t> header_words_sent{0};
    std::atomic<std::int64_t> zero_copy_messages{0};
    std::atomic<std::int64_t> zero_copy_doubles{0};
    std::atomic<std::int64_t> sends_after_stop{0};
    std::atomic<std::int64_t> blocks_screened{0};
    std::atomic<std::int64_t> bytes_elided{0};
    std::atomic<std::int64_t> serialized_messages{0};
    std::atomic<std::int64_t> serialized_doubles{0};

    // Pops the globally oldest live message. Caller holds `mutex` and
    // guarantees pending > 0.
    Message pop_oldest_locked();
  };

  std::vector<std::unique_ptr<Mailbox>> boxes_;

  mutable std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  int barrier_sense_ = 0;

  std::atomic<bool> stopped_{false};
};

}  // namespace sia::msg
