// Reliable delivery protocol over the (possibly chaotic) fabric.
//
// The SIP's data-plane messages (distributed-array get/put/acc, served
// prepare/request) assume the fabric never loses anything. Under fault
// injection that assumption is withdrawn, so senders and receivers run a
// classic at-least-once + exactly-once-apply protocol:
//
//   * ReliableChannel (sender side, one per worker): stamps outgoing
//     data-plane messages with per-(src,dst) monotonic sequence numbers,
//     keeps an unacked-send table, and retransmits on timeout with
//     exponential backoff. Two disjoint id spaces share one table:
//     "ordered" messages (put/acc/prepare — not idempotent, acked by
//     kProtoAck once *applied*, for prepares once *durable*) and
//     "request" messages (get/request — idempotent, the reply is the ack,
//     ids carry the top bit so they never collide with ordered seqs).
//
//   * PeerSequencer (receiver side, one per home worker / I/O server):
//     delivers each peer's ordered stream in sequence exactly once —
//     early arrivals are held until the hole fills (the sender is
//     retransmitting the missing one), duplicates are dropped and
//     reported so the receiver can re-ack. Accumulate is why this must
//     be exactly-once: `put +=` applied twice is silent corruption, which
//     is also why acks carry the applied sequence number rather than
//     being a bare "got it". Idempotent requests ride alongside with an
//     after-dependency: a request whose `ack` field names an ordered seq
//     is held until that seq has been applied, preserving the only
//     cross-type order the SIP relies on (prepare-then-request of the
//     same block). mark_applied() seeds journal-replayed seqs after an
//     I/O-server respawn so holes at already-durable prepares are skipped
//     instead of awaited forever.
//
// Everything here is single-threaded per instance (owned by one rank's
// thread); the fabric send is the only cross-thread operation.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fields.hpp"
#include "msg/fabric.hpp"
#include "msg/message.hpp"

namespace sia::msg {

// Top bit marks request-space ids (idempotent, reply-acked); ordered
// sequence numbers live in the low space and stay contiguous for the
// receiver's hole detection.
inline constexpr std::uint64_t kRequestIdBit = 1ull << 63;

class ReliableChannel {
 public:
  struct Stats {
    std::int64_t retries_sent = 0;
    std::int64_t acks_timed_out = 0;  // entries that exhausted retry_max

    // Field list for the rank report (common/fields.hpp).
    template <class Visit, class... S>
    static void fields(Visit&& visit, S&... s) {
      visit("retries_sent", Fold::kSum, s.retries_sent...);
      visit("acks_timed_out", Fold::kSum, s.acks_timed_out...);
    }
  };

  ReliableChannel(Fabric* fabric, int my_rank, int retry_timeout_ms,
                  int retry_max)
      : fabric_(fabric),
        my_rank_(my_rank),
        timeout_(std::chrono::milliseconds(retry_timeout_ms)),
        retry_max_(retry_max) {}

  // Stamps `msg.seq` from dst's ordered stream, records it unacked, and
  // sends. The retained copy shares the BlockPtr (one extra reference
  // until the ack clears it). Returns the assigned seq.
  std::uint64_t send_ordered(int dst, Message msg);

  // Stamps `msg.seq` from dst's request-id space, sets `msg.ack` to the
  // last ordered seq sent to dst (the receiver holds the request until
  // that seq is applied; 0 = no dependency), records it unacked, sends.
  std::uint64_t send_request(int dst, Message msg);

  // Ack for `seq` from `dst` (a kProtoAck's or a reply's `ack` field).
  void on_ack(int dst, std::uint64_t seq);

  // Retransmits overdue entries. Throws RuntimeError naming the dead
  // rank once an entry exhausts retry_max. Cheap when nothing is due.
  void poll();

  bool idle() const { return unacked_.empty(); }
  std::size_t unacked_count() const { return unacked_.size(); }
  // Destinations holding unacked *ordered* sends (targets for
  // kServerFlushHint before a barrier).
  std::vector<int> unacked_ordered_dsts() const;

  const Stats& stats() const { return stats_; }

 private:
  using Clock = std::chrono::steady_clock;
  struct Entry {
    Message msg;  // retained for retransmit
    int dst = -1;
    Clock::time_point deadline;
    int attempts = 0;
  };

  Clock::duration backoff(int attempts) const;
  std::uint64_t track_and_send(int dst, Message msg);

  Fabric* fabric_;
  int my_rank_;
  Clock::duration timeout_;
  int retry_max_;
  std::unordered_map<int, std::uint64_t> ordered_seq_;  // per dst, last used
  std::unordered_map<int, std::uint64_t> request_seq_;
  std::map<std::pair<int, std::uint64_t>, Entry> unacked_;
  Clock::time_point next_deadline_ = Clock::time_point::max();
  Stats stats_;
};

class PeerSequencer {
 public:
  struct Admit {
    // Messages now deliverable, in order (possibly empty: the admitted
    // message was held, or a duplicate).
    std::vector<Message> deliver;
    // The admitted message duplicated an already-applied one; receivers
    // of non-idempotent messages re-ack (the original ack may be lost).
    bool duplicate = false;
  };

  // Admit an ordered-stream message (put/acc/prepare); `msg.seq` is its
  // sequence number.
  Admit admit_ordered(Message msg);

  // Admit an idempotent request whose `msg.ack` names the ordered seq it
  // must follow (0: deliver immediately).
  Admit admit_after(Message msg);

  // Journal replay after an I/O-server respawn: `seq` from `src` was
  // applied (durably) by the previous incarnation.
  void mark_applied(int src, std::uint64_t seq);

  bool is_applied(int src, std::uint64_t seq) const;

  std::int64_t duplicates_dropped() const { return dups_dropped_; }

 private:
  struct Peer {
    std::uint64_t next_expected = 1;  // all ordered seqs below: applied
    std::set<std::uint64_t> applied_ahead;      // journal-replayed holes
    std::map<std::uint64_t, Message> held;      // early ordered arrivals
    std::multimap<std::uint64_t, Message> dependent;  // requests awaiting seq
  };

  // Drains contiguous applied/held seqs and newly unblocked dependents
  // into `out.deliver`.
  void advance(Peer& peer, Admit& out);

  std::unordered_map<int, Peer> peers_;
  std::int64_t dups_dropped_ = 0;
};

}  // namespace sia::msg
