// LRU block cache.
//
// Two users, both from the paper: each worker keeps recently used remote
// blocks ("it may be available ... because it is still available in the
// block cache from a recent use", §V-A), and each I/O server fronts its
// disk store with an LRU cache with write-behind ("Replacement is done
// using a LRU strategy", §V-B). Eviction calls a victim handler so the
// I/O server can spill dirty blocks to disk; worker caches just drop.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "block/block.hpp"
#include "block/block_id.hpp"
#include "common/fields.hpp"

namespace sia {

class BlockCache {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::int64_t insertions = 0;

    // Field list for the rank report (common/fields.hpp).
    template <class Visit, class... S>
    static void fields(Visit&& visit, S&... s) {
      visit("hits", Fold::kSum, s.hits...);
      visit("misses", Fold::kSum, s.misses...);
      visit("evictions", Fold::kSum, s.evictions...);
      visit("insertions", Fold::kSum, s.insertions...);
    }
  };

  // Called with each evicted entry; `dirty` is the flag set by put(...,
  // dirty=true). The handler runs after the cache's internal lock is
  // released, so it may block on I/O or call back into the cache without
  // stalling concurrent readers.
  using VictimHandler =
      std::function<void(const BlockId&, const BlockPtr&, bool dirty)>;

  // `capacity_doubles` bounds the sum of element counts of cached blocks.
  explicit BlockCache(std::size_t capacity_doubles,
                      VictimHandler on_evict = nullptr);

  // Lookup; refreshes recency. nullptr on miss.
  BlockPtr get(const BlockId& id);
  // Lookup without touching recency or stats (used by tests/servers).
  BlockPtr peek(const BlockId& id) const;
  bool contains(const BlockId& id) const;

  // Inserts (or replaces) an entry; may evict least-recently-used entries
  // to fit. Eviction drops only the cache's own reference, so blocks held
  // elsewhere (in use by a super instruction, in flight in a message)
  // stay valid for their holders. A block larger than the whole capacity
  // is passed through uncached (the victim handler sees it immediately if
  // dirty).
  void put(const BlockId& id, BlockPtr block, bool dirty = false);

  // Marks an existing entry dirty (e.g. accumulated into).
  void mark_dirty(const BlockId& id);

  // Drops every entry and zeroes the stats (no victim callbacks) —
  // epoch-advance resets. Accumulate stats() first if you need them.
  void clear();

  // Removes one entry (no victim callback).
  void erase(const BlockId& id);
  // Removes every entry of an array (no victim callback); returns count.
  std::size_t erase_array(int array_id);

  // Flushes all dirty entries through the victim handler without removing
  // them (server_barrier path).
  void flush_dirty();

  std::size_t size_doubles() const;
  std::size_t entry_count() const;
  std::size_t capacity_doubles() const { return capacity_; }
  Stats stats() const;

 private:
  struct Entry {
    BlockId id;
    BlockPtr block;
    bool dirty = false;
  };
  struct Victim {
    BlockId id;
    BlockPtr block;
    bool dirty = false;
  };
  using LruList = std::list<Entry>;

  void evict_to_fit_locked(std::size_t incoming,
                           std::vector<Victim>& victims);

  // Guards every container below; victim handlers run outside it. The
  // cache is only mutated on its owner's thread today — the lock makes
  // the pin/evict contract explicit and TSAN-provable.
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::size_t used_ = 0;
  VictimHandler on_evict_;
  LruList lru_;  // front = most recent
  std::unordered_map<BlockId, LruList::iterator, BlockIdHash> entries_;
  Stats stats_;
};

}  // namespace sia
