// Worker-side manager for distributed arrays.
//
// Each block of a distributed array has a home worker chosen by a static
// hash (paper §V-B). This manager owns, for one worker:
//   * the home store: blocks whose home is this worker, with a per-block
//     WriteLog used to detect conflicting accesses that lack a
//     sip_barrier ("the runtime system detects most improper uses of
//     barriers", §IV-C);
//   * the remote-block LRU cache ("it may be available ... because it is
//     still available in the block cache from a recent use", §V-A);
//   * the pending-request table for asynchronous gets, tagged with the
//     issuing epoch so replies that cross a barrier are dropped;
//   * the put-accumulate WriteCombiner: repeated `put += ` to the same
//     remote block merge locally and go out as one message at the next
//     flush point (pardo iteration boundary, barrier, conflicting access,
//     or table-size threshold).
//
// All communication is asynchronous and zero-copy: get replies carry a
// shared reference to the home block (the getter caches the alias), and
// puts move an exclusively owned block into the message. Every write to
// the home store goes through apply_write, which adopts that block or
// copies a shared home block before mutating it, so reader snapshots stay
// consistent. The send, write-combining, conflict, apply and reply rules
// are the ones served arrays use too (sip/block_transfer.hpp).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

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

class DistArrayManager {
 public:
  struct Stats {
    std::int64_t gets_issued = 0;      // remote requests sent
    std::int64_t gets_local = 0;       // satisfied by home store
    std::int64_t gets_cached = 0;      // satisfied by cache
    std::int64_t implicit_gets = 0;    // reads that had to issue a get
    std::int64_t puts_remote = 0;      // put messages actually sent
    std::int64_t puts_local = 0;
    std::int64_t puts_coalesced = 0;   // put+= merged into the shadow table
    std::int64_t coalesce_flushes = 0; // shadow entries sent out
    std::int64_t replies_dropped = 0;  // stale (pre-barrier) replies
    std::int64_t home_cow_copies = 0;  // copy-on-write before home mutation
    // Norm-based screening (sparse arrays, sparse_threshold > 0).
    std::int64_t puts_screened = 0;  // put/put+= payloads dropped at sender
    std::int64_t gets_screened = 0;  // get requests answered with a marker
    std::int64_t zero_reads = 0;     // reads satisfied by the zero block

    // Field list for the rank report (common/fields.hpp).
    template <class Visit, class... S>
    static void fields(Visit&& visit, S&... s) {
      visit("gets_issued", Fold::kSum, s.gets_issued...);
      visit("gets_local", Fold::kSum, s.gets_local...);
      visit("gets_cached", Fold::kSum, s.gets_cached...);
      visit("implicit_gets", Fold::kSum, s.implicit_gets...);
      visit("puts_remote", Fold::kSum, s.puts_remote...);
      visit("puts_local", Fold::kSum, s.puts_local...);
      visit("puts_coalesced", Fold::kSum, s.puts_coalesced...);
      visit("coalesce_flushes", Fold::kSum, s.coalesce_flushes...);
      visit("replies_dropped", Fold::kSum, s.replies_dropped...);
      visit("home_cow_copies", Fold::kSum, s.home_cow_copies...);
      visit("puts_screened", Fold::kSum, s.puts_screened...);
      visit("gets_screened", Fold::kSum, s.gets_screened...);
      visit("zero_reads", Fold::kSum, s.zero_reads...);
    }
  };

  DistArrayManager(SipShared& shared, int my_rank, BlockPool& pool,
                   std::size_t cache_capacity_doubles);

  // ------------------------------------------------------------------
  // Program-visible operations.

  // SIAL `get`: starts an asynchronous fetch unless the block is already
  // home, cached, or in flight.
  void issue_get(const BlockId& id, bool implicit = false);

  // Non-blocking read: home block, cached copy, or nullptr.
  BlockPtr try_read(const BlockId& id);

  // True if a get for the block is in flight.
  bool pending(const BlockId& id) const;

  // SIAL `put` / `put +=` of `data` (already shaped for the target). If
  // the caller passes its last reference (use_count == 1) the block moves
  // into the message or shadow table without a copy.
  void put(const BlockId& id, BlockPtr data, bool accumulate);

  // Sends every entry of the put-accumulate shadow table to its home.
  // Must run before the worker enters a barrier (the flushed puts travel
  // ahead of the barrier-enter message on the same src-dst FIFO, so they
  // reach the home rank in the closing epoch). Also called at pardo
  // iteration boundaries and program end.
  void flush_coalesced();
  // Number of entries currently write-combining.
  std::size_t coalesced_pending() const { return coalesce_.size(); }

  // `delete` (uniform control flow: every worker runs it, so each erases
  // its own home blocks and cached copies). `create` needs no call: a
  // block comes into being at its home on its first put.
  void delete_array(int array_id);

  // sip_barrier passed: bump the epoch, clear cached remote copies, and
  // forget in-flight requests (their replies will be dropped as stale).
  void advance_epoch();
  std::int64_t epoch() const { return epoch_; }

  // ------------------------------------------------------------------
  // Message handling (called by the interpreter's dispatcher). Handlers
  // take the message by mutable reference so they can steal its block
  // payload instead of copying it.
  void handle_get_request(const msg::Message& message);
  void handle_get_reply(msg::Message& message);
  void handle_put(msg::Message& message, bool accumulate);
  void handle_delete(const msg::Message& message);

  // Reliable protocol: when set, puts go out as tracked ordered sends
  // (retransmitted until the home worker acks) and gets as tracked
  // idempotent sends (the reply is the ack). Null = plain sends.
  void set_channel(msg::ReliableChannel* channel) { channel_ = channel; }

  // ------------------------------------------------------------------
  // Introspection (checkpointing, tests).
  const std::unordered_map<BlockId, BlockPtr, BlockIdHash>& home_blocks()
      const {
    return home_;
  }
  void store_home_block(const BlockId& id, BlockPtr block);
  // Norm table of home blocks screened out at put time (block id ->
  // recorded norm); these have no backing store and read as zero.
  const std::unordered_map<BlockId, double, BlockIdHash>& screened_norms()
      const {
    return screened_norms_;
  }
  const Stats& stats() const { return stats_; }
  const BlockCache& cache() const { return cache_; }
  // Cache statistics accumulated across barrier-induced cache resets.
  BlockCache::Stats cache_stats() const;
  std::size_t home_doubles() const { return home_doubles_; }

 private:
  // Applies the conflict rules for a write arriving at the home store.
  void check_write_conflict(const BlockId& id, int writer, bool accumulate);
  // Writes an incoming put payload into the home store (apply_write).
  // `mismatch` prefixes the shape-mismatch diagnostic.
  void write_home(const BlockId& id, BlockPtr incoming, bool accumulate,
                  int writer, const char* mismatch);
  // A screened replace: the home block becomes a norm-table entry.
  void screen_home_block(const BlockId& id, double norm);
  // Sends a put of `payload` to the block's home; a null payload sends
  // the screened-replace marker carrying `norm` instead.
  void send_put_message(const BlockId& id, BlockPtr payload,
                        bool accumulate, double norm = 0.0);

  SipShared& shared_;
  int my_rank_;
  BlockPool& pool_;
  msg::ReliableChannel* channel_ = nullptr;

  std::unordered_map<BlockId, BlockPtr, BlockIdHash> home_;
  WriteLog write_log_;
  // Home-side norm table: blocks screened out at put time. An entry means
  // "this block was replaced by a value below the threshold"; reads of it
  // are answered with the canonical zero block and no storage is held.
  std::unordered_map<BlockId, double, BlockIdHash> screened_norms_;
  BlockCache cache_;
  // In-flight gets with the epoch they were issued in.
  std::unordered_map<BlockId, std::int64_t, BlockIdHash> pending_;
  // Get requests and puts from workers already past a barrier this owner
  // has not been released from yet, in arrival order; handled by
  // advance_epoch().
  std::vector<msg::Message> early_;
  // Gets answered "no such block": harmless for prefetches, an error at
  // the point of actual use.
  std::unordered_set<BlockId, BlockIdHash> misses_;
  // Exclusively owned accumulate payloads not yet sent to their home.
  WriteCombiner coalesce_;
  std::int64_t epoch_ = 0;
  std::size_t home_doubles_ = 0;
  Stats stats_;
  BlockCache::Stats cache_stats_accum_;
};

}  // namespace sia::sip
