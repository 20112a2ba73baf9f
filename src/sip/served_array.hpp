// Worker-side client for served (disk-backed) arrays.
//
// "Blocks of served arrays are obtained with request and stored with
// prepare commands" (paper §IV-A). The client sends prepares to the
// responsible I/O server and issues asynchronous requests whose replies
// land in a local LRU cache. Epochs advance at server_barrier. The
// distributed-array rules apply unchanged, from the same code
// (sip/block_transfer.hpp): tracked or plain sends, the zero-copy payload
// path, the prepare-accumulate WriteCombiner and the shared reply layout.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "block/block.hpp"
#include "block/block_cache.hpp"
#include "block/block_id.hpp"
#include "block/block_pool.hpp"
#include "common/fields.hpp"
#include "msg/message.hpp"
#include "msg/reliable.hpp"
#include "sip/block_transfer.hpp"
#include "sip/shared.hpp"

namespace sia::sip {

class ServedArrayClient {
 public:
  struct Stats {
    std::int64_t requests_issued = 0;
    std::int64_t requests_cached = 0;
    std::int64_t lookahead_issued = 0;   // speculative requests sent
    std::int64_t lookahead_misses = 0;   // server had no such block (yet)
    std::int64_t lookahead_promoted = 0; // demand sent while one in flight
    std::int64_t prepares = 0;           // prepare messages actually sent
    std::int64_t prepares_coalesced = 0; // merged into the shadow table
    std::int64_t coalesce_flushes = 0;   // shadow entries sent out
    std::int64_t replies_dropped = 0;
    // Norm-based screening (sparse arrays, sparse_threshold > 0).
    std::int64_t prepares_screened = 0;  // payloads dropped at the sender
    std::int64_t zero_reads = 0;         // replies answered "screened"

    // Field list for the rank report (common/fields.hpp).
    template <class Visit, class... S>
    static void fields(Visit&& visit, S&... s) {
      visit("requests_issued", Fold::kSum, s.requests_issued...);
      visit("requests_cached", Fold::kSum, s.requests_cached...);
      visit("lookahead_issued", Fold::kSum, s.lookahead_issued...);
      visit("lookahead_misses", Fold::kSum, s.lookahead_misses...);
      visit("lookahead_promoted", Fold::kSum, s.lookahead_promoted...);
      visit("prepares", Fold::kSum, s.prepares...);
      visit("prepares_coalesced", Fold::kSum, s.prepares_coalesced...);
      visit("coalesce_flushes", Fold::kSum, s.coalesce_flushes...);
      visit("replies_dropped", Fold::kSum, s.replies_dropped...);
      visit("prepares_screened", Fold::kSum, s.prepares_screened...);
      visit("zero_reads", Fold::kSum, s.zero_reads...);
    }
  };

  ServedArrayClient(SipShared& shared, int my_rank, BlockPool& pool,
                    std::size_t cache_capacity_doubles);

  // SIAL `request`: async fetch unless cached or a demand fetch is
  // already in flight. If only a look-ahead is in flight, a demand
  // request is sent anyway: it coalesces onto the server's in-flight
  // read table and promotes the queued read-ahead job to demand
  // priority, instead of leaving the worker blocked behind every other
  // rank's demand traffic.
  void issue_request(const BlockId& id);
  // Speculative fetch for a future loop iteration. Like issue_request but
  // flagged look-ahead: the server queues it behind demand reads and
  // answers with a miss (instead of failing the run) if the block was
  // never prepared. No-op if cached, in flight, or shadowed by a pending
  // coalesced prepare+=.
  void issue_lookahead(const BlockId& id);
  // Cached block or nullptr.
  BlockPtr try_read(const BlockId& id);
  bool pending(const BlockId& id) const;

  // SIAL `prepare` / `prepare +=`. Passing the last reference
  // (use_count == 1) moves the block into the message without a copy.
  void prepare(const BlockId& id, BlockPtr data, bool accumulate);

  // Sends pending coalesced prepare+= entries. Must run before entering
  // any barrier; also called at pardo iteration boundaries.
  void flush_coalesced();

  // server_barrier passed.
  void advance_epoch();

  // Takes the message by mutable reference to adopt its block payload.
  void handle_reply(msg::Message& message);

  // Reliable protocol: when set, prepares go out as tracked ordered sends
  // (retransmitted until the server acks durability) and requests as
  // tracked idempotent sends (the reply is the ack). Null = plain sends.
  void set_channel(msg::ReliableChannel* channel) { channel_ = channel; }

  const Stats& stats() const { return stats_; }

 private:
  // Sends a request (`lookahead` flags a speculative one).
  void send_request(const BlockId& id, bool lookahead);
  // Sends a prepare of `payload`; a null payload sends the header-only
  // screened replace marker, which the server records in its presence
  // map without a write.
  void send_prepare_message(const BlockId& id, BlockPtr payload,
                            bool accumulate);

  // One in-flight fetch of a block. A look-ahead and a demand request
  // may be outstanding at once (look-ahead promotion); `lookahead_stale`
  // marks a speculative reply pre-dating one of our own prepares, which
  // must be discarded — the server replies tagged with the request kind
  // so the stale speculative reply cannot be confused with the demand
  // reply that supersedes it.
  struct Pending {
    std::int64_t epoch = 0;
    bool demand_inflight = false;
    bool lookahead_inflight = false;
    bool lookahead_stale = false;
  };

  SipShared& shared_;
  int my_rank_;
  BlockPool& pool_;
  msg::ReliableChannel* channel_ = nullptr;
  BlockCache cache_;
  std::unordered_map<BlockId, Pending, BlockIdHash> pending_;
  // Exclusively owned prepare+= payloads not yet sent to their server.
  WriteCombiner coalesce_;
  std::int64_t epoch_ = 0;
  Stats stats_;
};

}  // namespace sia::sip
