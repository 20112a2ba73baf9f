// I/O server rank.
//
// "The I/O servers support the SIAL served arrays. ... Each I/O server
// contains a cache for served array blocks. Blocks arriving as a result of
// a prepare command are placed in the cache and lazily written to disk.
// ... Replacement is done using a LRU strategy. All operations of an I/O
// server are non-blocking ... Blocks are allocated in I/O server block
// pools or on a hard disk drive only when actually filled with data."
// (paper §V-B).
//
// Components:
//   * DiskStore — one slotted file per served array under the scratch
//     directory (slot = the array's maximal block size) plus a presence
//     byte map, so blocks survive both cache eviction and SIP runs.
//     Presence-map updates can be deferred in memory and flushed in one
//     pwrite per batch/barrier instead of one per block;
//   * WriteBehind — writer lanes draining dirty evicted blocks to their
//     DiskStores in per-array batches sorted by linear id; lookups
//     intercept blocks still in the queue;
//   * DiskPool — the read-side thread pool: cache-miss requests become
//     jobs here so the message loop keeps servicing hits and prepares
//     while reads are in flight. Demand reads take priority over
//     look-ahead (read-ahead) jobs;
//   * IoServer — the rank main loop: prepare/request handling, LRU cache
//     with dirty write-behind, an in-flight read table coalescing
//     duplicate requests, barrier flush, shutdown. Prepares take the
//     distributed-array rules from sip/block_transfer.hpp: the WriteLog
//     conflict check and apply_write's adopt-or-copy decision; replies
//     use the shared make_reply layout.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <functional>

#include "block/block.hpp"
#include "block/block_cache.hpp"
#include "block/block_id.hpp"
#include "common/fields.hpp"
#include "msg/chaos.hpp"
#include "msg/message.hpp"
#include "msg/reliable.hpp"
#include "sip/block_transfer.hpp"
#include "sip/shared.hpp"

namespace sia::sip {

// Generator for server-side computed served arrays: fills `block`, whose
// element (i0,...,i_{r-1}) has absolute 1-based coordinates
// first_element[d] + i_d along dimension d.
using ServerComputeFn = std::function<void(
    Block& block, std::span<const long> first_element)>;

// Process-global registry of server-side generators, referenced from
// SipConfig::computed_served by name.
class ServerComputeRegistry {
 public:
  static ServerComputeRegistry& global();
  void register_generator(const std::string& name, ServerComputeFn fn);
  const ServerComputeFn* lookup(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, ServerComputeFn> table_;
};

// Slotted block file for one served array. Thread safe (pread/pwrite);
// callers serialize writes to the same slot.
class DiskStore {
 public:
  // Creates/opens `<dir>/<array_name>.srv` (+ `.map`) with the given slot
  // capacity in doubles and block count. With `cold_io` the store keeps
  // its data file out of the OS page cache (fdatasync + fadvise DONTNEED
  // per batch/read) — see SipConfig::server_cold_io. `injector`, when
  // non-null, may fail any tracked read/write with an injected disk
  // fault (chaos testing).
  DiskStore(const std::string& dir, const std::string& array_name,
            std::size_t slot_doubles, std::int64_t num_blocks,
            bool cold_io = false,
            msg::DiskFaultInjector* injector = nullptr);
  // Flushes any deferred presence-map updates.
  ~DiskStore();
  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  bool has(std::int64_t linear) const;
  // True if the block is recorded as screened (present, but all content
  // below the screening threshold — no bytes in the data file).
  bool is_screened(std::int64_t linear) const;
  // Marks the block present-but-screened in the presence map (byte 2)
  // without touching the data file. flush_map() persists the byte, so a
  // screened block is never "durable by absence": the respawned server
  // can tell it apart from a block that was never prepared.
  void record_screened(std::int64_t linear);
  // Reads `count` doubles of block `linear` into `out`. Throws if absent.
  // A screened block reads as zeros without touching the data file.
  void read(std::int64_t linear, double* out, std::size_t count) const;
  // Writes block data and immediately persists the presence-map byte
  // (write_deferred + flush_map).
  void write(std::int64_t linear, const double* data, std::size_t count);
  // Writes block data and marks presence only in memory; flush_map()
  // persists the dirty map range in one pwrite. Batching presence updates
  // is what keeps write-behind from issuing one 1-byte pwrite per block.
  void write_deferred(std::int64_t linear, const double* data,
                      std::size_t count);
  void flush_map();
  // Batch epilogue: under cold I/O, persist outstanding data-file writes
  // and evict their pages (fdatasync + fadvise DONTNEED). No-op otherwise.
  void after_batch();
  // Drops every block: clears the presence map in memory and on disk.
  void erase_all();

  std::int64_t blocks_written() const;
  std::int64_t map_flushes() const;
  // Presence-map census: blocks recorded screened / recorded at all.
  std::int64_t screened_count() const;
  std::int64_t present_count() const;

  // Crash simulation: the server rank "died", so the destructor must not
  // flush the in-memory presence map over the on-disk one — the on-disk
  // state at the moment of death is what the respawned incarnation
  // rebuilds from.
  void abandon();

 private:
  int fd_ = -1;
  int map_fd_ = -1;
  bool cold_io_ = false;
  bool abandoned_ = false;
  std::string array_name_;
  msg::DiskFaultInjector* injector_ = nullptr;
  std::size_t slot_doubles_;
  std::vector<char> present_;  // in-memory presence map
  std::int64_t blocks_written_ = 0;
  std::int64_t map_flushes_ = 0;
  // Dirty presence range not yet on disk; -1 lo means clean.
  std::int64_t map_dirty_lo_ = -1;
  std::int64_t map_dirty_hi_ = -1;
  mutable std::mutex mutex_;
};

// Upper bound on blocks retired per write-behind batch; keeps lookup
// latency for queued blocks bounded while still amortizing the presence
// map flush over many writes.
inline constexpr std::size_t kMaxWriteBatch = 64;

// Background writer lanes draining dirty blocks to their DiskStores in
// per-array batches, sorted by linear id for sequential locality. Two
// versions of the same block keep their enqueue order (a key being
// written blocks other lanes from picking up its successor).
class WriteBehind {
 public:
  using Key = std::pair<int, std::int64_t>;  // (array_id, linear)
  // (sender rank, sequence number) pairs owed a durability ack once the
  // carrying block is retired to disk.
  using AckList = std::vector<std::pair<int, std::uint64_t>>;
  // Called (off the caller's thread) with the first disk failure seen by
  // any lane, e.g. to abort the run promptly. drain() also rethrows it.
  using ErrorHandler = std::function<void(const std::string&)>;
  // Called (on a lane thread) after a batch is durably on disk with the
  // concatenated AckLists of its items: the I/O server journals and sends
  // the prepare durability acks from here.
  using RetireHandler = std::function<void(const AckList&)>;

  explicit WriteBehind(int lanes = 1, ErrorHandler on_error = nullptr,
                       RetireHandler on_retire = nullptr);
  ~WriteBehind();

  void enqueue(DiskStore* store, int array_id, std::int64_t linear,
               BlockPtr block, AckList acks = {});

  // Crash simulation: drop the queue (and queued acks) without writing,
  // then wait for the batches already on a lane, which land whole: data,
  // presence map, journaled acks. Nothing new starts.
  void abandon();
  // Block still waiting to be written, if any.
  BlockPtr lookup(int array_id, std::int64_t linear) const;
  // Drops every queued write of `array_id` and waits until none of its
  // blocks is mid-write, so a deleted array cannot be resurrected on disk
  // by a late queued write. Returns the dropped items' ack lists: the
  // delete supersedes those prepares, so the server acks them directly.
  AckList cancel_array(int array_id);
  // Blocks until the queue is empty and all in-flight writes finished.
  // Throws RuntimeError if any lane hit a disk error (short write, full
  // filesystem): an exception escaping a lane thread would terminate the
  // process, so lanes record the failure here instead.
  void drain();
  std::int64_t writes() const;
  std::int64_t batches() const;

  // Test hooks: freeze/unfreeze the lanes to make queue-state assertions
  // deterministic.
  void pause();
  void resume();

 private:
  void run();
  bool has_runnable_item() const;

  struct Item {
    DiskStore* store;
    Key key;
    BlockPtr block;
    AckList acks;
  };

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  std::map<Key, BlockPtr> pending_;
  std::vector<Key> in_flight_keys_;
  ErrorHandler on_error_;
  RetireHandler on_retire_;
  std::string error_;  // first disk failure from any lane
  bool paused_ = false;
  bool stop_ = false;
  std::int64_t writes_ = 0;
  std::int64_t batches_ = 0;
  std::vector<std::thread> threads_;
};

// Priority thread pool for disk reads and on-demand block generation.
// Demand jobs (high) always run before read-ahead jobs (low); promote()
// upgrades a still-queued read-ahead job when a demand request coalesces
// onto it.
class DiskPool {
 public:
  using Key = std::pair<int, std::int64_t>;  // (array_id, linear)
  using Job = std::function<void()>;

  explicit DiskPool(int threads);
  ~DiskPool();

  int threads() const { return static_cast<int>(threads_.size()); }
  void submit(const Key& key, Job job, bool low_priority);
  void promote(const Key& key);
  // Blocks until both queues are empty and no job is running.
  void drain();

 private:
  void run();

  struct Entry {
    Key key;
    Job job;
  };

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Entry> high_;
  std::deque<Entry> low_;
  int running_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

class IoServer {
 public:
  struct Stats {
    std::int64_t prepares = 0;
    std::int64_t requests = 0;            // demand requests
    std::int64_t lookahead_requests = 0;  // flagged look-ahead requests
    std::int64_t disk_reads = 0;
    std::int64_t disk_writes = 0;         // write-behind retirements
    std::int64_t cache_hits = 0;
    std::int64_t reads_coalesced = 0;  // duplicate in-flight requests merged
    std::int64_t write_batches = 0;
    std::int64_t map_flushes = 0;
    std::int64_t computed = 0;  // blocks generated on demand (§V-B)
    std::int64_t cow_copies = 0;  // copy-on-write before an in-place write
    // Retransmitted prepares dropped by the per-peer dedup window
    // (exactly-once apply under the reliable protocol).
    std::int64_t dup_msgs_dropped = 0;
    // Norm-based screening (sparse arrays, sparse_threshold > 0).
    std::int64_t prepares_screened = 0;   // marker prepares (no payload)
    std::int64_t requests_screened = 0;   // answered with a header-only reply
    std::int64_t evictions_screened = 0;  // dirty victims re-screened

    // Field list for the rank report (common/fields.hpp).
    template <class Visit, class... S>
    static void fields(Visit&& visit, S&... s) {
      visit("prepares", Fold::kSum, s.prepares...);
      visit("requests", Fold::kSum, s.requests...);
      visit("lookahead_requests", Fold::kSum, s.lookahead_requests...);
      visit("disk_reads", Fold::kSum, s.disk_reads...);
      visit("disk_writes", Fold::kSum, s.disk_writes...);
      visit("cache_hits", Fold::kSum, s.cache_hits...);
      visit("reads_coalesced", Fold::kSum, s.reads_coalesced...);
      visit("write_batches", Fold::kSum, s.write_batches...);
      visit("map_flushes", Fold::kSum, s.map_flushes...);
      visit("computed", Fold::kSum, s.computed...);
      visit("cow_copies", Fold::kSum, s.cow_copies...);
      visit("dup_msgs_dropped", Fold::kSum, s.dup_msgs_dropped...);
      visit("prepares_screened", Fold::kSum, s.prepares_screened...);
      visit("requests_screened", Fold::kSum, s.requests_screened...);
      visit("evictions_screened", Fold::kSum, s.evictions_screened...);
    }
  };

  IoServer(SipShared& shared, int my_rank);
  ~IoServer();

  // Clean start for a fault-tolerant launch: a respawned server replays
  // its ack journal to rebuild its dedup window, and a journal left by an
  // earlier run in the same scratch dir would poison that replay. Only
  // respawns within the run append.
  static void clear_ack_journals(const SipShared& shared);

  // Rank main loop; returns after kShutdown (or abort).
  void run();

  // Counters merged from the message loop, the disk pool, the write-behind
  // lanes, and the disk stores. Safe to call once run() returned.
  Stats stats() const;

  // Sparse census: array_id -> blocks with real bytes on disk (present
  // and not screened). Safe to call once run() returned.
  std::map<int, std::int64_t> data_blocks() const;

 private:
  // Mutable reference: prepare adopts the message's block payload.
  void handle_prepare(msg::Message& message, bool accumulate);
  void handle_request(const msg::Message& message);
  void handle_delete(const msg::Message& message);
  void handle_barrier(const msg::Message& message);
  void flush();

  // Reliable-protocol plumbing (active iff fault tolerance is enabled).
  // Routes an admitted data-plane message to its handler.
  void dispatch_data(msg::Message& message);
  // Feeds a prepare through the per-peer sequencer (exactly-once,
  // in-order) before dispatch; re-acks duplicates already durable.
  void admit_prepare(msg::Message& message);
  // Journal + send the durability acks for retired prepares. Runs on
  // write-behind lane threads and on the server thread (flush paths).
  void ack_durable(const WriteBehind::AckList& acks);
  // Pull the pending (not yet durable) acks attached to a block.
  WriteBehind::AckList take_pending_acks(int array_id, std::int64_t linear);
  void send_ack(int dst, std::uint64_t seq);
  // Simulated crash: drop dirty state without letting destructors flush
  // it over the durable image the respawned incarnation rebuilds from.
  void crash_abandon();
  void load_ack_journal();

  DiskStore& store_for(int array_id);
  // The block queued for write-behind or on disk, or null if absent.
  BlockPtr load_block(const BlockId& id);
  // Generator for a computed served array (nullptr if the array is a
  // plain stored one). Resolved lazily from the config.
  const ServerComputeFn* generator_for(int array_id);

  // Replies to a request (make_reply's layout). The look-ahead flag is
  // echoed so the client can discard a speculative reply made stale by
  // its own intervening prepare without also discarding the demand reply
  // that supersedes it. `ack` echoes the request's sequence number: the
  // reply is the ack under the reliable protocol (requests are
  // idempotent, so a retransmitted one is simply answered again).
  void send_reply(int reply_rank, const BlockReply& reply, std::uint64_t ack,
                  BlockPtr block = nullptr);
  // Applies a header-only screened replace prepare (no block payload):
  // records the block in the presence map instead of storing data.
  // Conflict detection and version bookkeeping happen in handle_prepare
  // before this is called.
  void apply_screened_prepare(msg::Message& message, const BlockId& id,
                              std::int64_t linear);
  // Runs on a DiskPool thread: read (or generate) the block, reply to
  // every waiter, queue a completion for the cache warm. `version` is the
  // prepare version observed when the job was submitted; a completion
  // whose version is stale (a prepare landed while the read was in
  // flight) must not be installed over the newer data.
  void read_job(BlockId id, DiskStore* store, std::int64_t linear,
                const ServerComputeFn* generate, BlockShape shape,
                std::array<long, blas::kMaxRank> first,
                std::string array_name, std::uint64_t version);
  // Main loop: absorb finished reads into the cache and the stats.
  void drain_completions();
  std::uint64_t version_of(const BlockId& id) const;

  struct GeneratorSlot {
    bool resolved = false;
    const ServerComputeFn* fn = nullptr;
  };

  struct Waiter {
    int reply_rank = -1;
    bool lookahead = false;
    std::uint64_t req_seq = 0;  // echoed as the reply's ack
  };

  struct InflightRead {
    std::vector<Waiter> waiters;
    bool low_priority = false;  // still queued as read-ahead
  };

  struct Completion {
    BlockId id;
    BlockPtr block;  // null if the block does not exist (look-ahead miss)
    std::uint64_t version = 0;  // prepare version at job submission
    bool from_disk = false;
    bool computed = false;
  };

  SipShared& shared_;
  int my_rank_;
  // Destruction order matters: the disk pool and write-behind lanes are
  // joined before the stores they reference go away.
  std::unordered_map<int, std::unique_ptr<DiskStore>> stores_;
  BlockCache cache_;
  std::unordered_map<int, GeneratorSlot> generators_;
  WriteLog write_log_;
  // Per-block prepare counter (server thread only; cleared per barrier).
  // Read completions are stamped with the version seen at submission and
  // dropped if a prepare bumped it meanwhile — otherwise a stale clean
  // disk image would silently replace the freshly prepared dirty block.
  std::unordered_map<BlockId, std::uint64_t, BlockIdHash> prepare_versions_;
  std::int64_t epoch_ = 0;
  Stats stats_;

  std::mutex inflight_mutex_;
  std::unordered_map<BlockId, InflightRead, BlockIdHash> inflight_;
  std::mutex completion_mutex_;
  std::deque<Completion> completions_;

  // ---- Fault tolerance (PR 4) ----
  bool ft_ = false;  // reliable protocol active for this launch
  msg::PeerSequencer sequencer_;
  // Prepares applied into the cache but not yet durable, keyed by block;
  // moved into the write-behind Item (or acked at flush) when the block
  // retires. Server thread only.
  std::map<WriteBehind::Key, WriteBehind::AckList> pending_acks_;
  // Durably applied + acked (journaled) prepare seqs, for re-acking
  // retransmits whose ack was lost. Shared with the lane threads.
  std::mutex acked_mutex_;
  std::set<std::pair<int, std::uint64_t>> acked_;
  int journal_fd_ = -1;  // append-only ack journal (crash recovery)

  WriteBehind write_behind_;
  std::unique_ptr<DiskPool> disk_pool_;
};

}  // namespace sia::sip
