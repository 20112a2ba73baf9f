#include "block/block_cache.hpp"

#include "common/error.hpp"

namespace sia {

BlockCache::BlockCache(std::size_t capacity_doubles, VictimHandler on_evict)
    : capacity_(capacity_doubles), on_evict_(std::move(on_evict)) {}

BlockPtr BlockCache::get(const BlockId& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // move to front
  return it->second->block;
}

BlockPtr BlockCache::peek(const BlockId& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second->block;
}

bool BlockCache::contains(const BlockId& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(id) != entries_.end();
}

void BlockCache::put(const BlockId& id, BlockPtr block, bool dirty) {
  SIA_CHECK(block != nullptr, "BlockCache::put: null block");
  const std::size_t incoming = block->size();

  // Victims are collected under the lock but handed to the handler after
  // it is released: the handler may be arbitrarily slow (write-behind) or
  // call back into this cache, and concurrent readers must not stall
  // behind it.
  std::vector<Victim> victims;

  if (incoming > capacity_) {
    // Too big to cache at all; pass straight to the victim handler.
    if (on_evict_) on_evict_(id, block, dirty);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(id);
    if (it != entries_.end()) {
      used_ -= it->second->block->size();
      it->second->block = std::move(block);
      it->second->dirty = dirty;
      used_ += incoming;
      lru_.splice(lru_.begin(), lru_, it->second);
      evict_to_fit_locked(0, victims);
    } else {
      evict_to_fit_locked(incoming, victims);
      lru_.push_front(Entry{id, std::move(block), dirty});
      entries_.emplace(id, lru_.begin());
      used_ += incoming;
      ++stats_.insertions;
    }
  }
  if (on_evict_) {
    for (const Victim& victim : victims) {
      on_evict_(victim.id, victim.block, victim.dirty);
    }
  }
}

void BlockCache::evict_to_fit_locked(std::size_t incoming,
                                     std::vector<Victim>& victims) {
  if (used_ + incoming <= capacity_) return;
  // Evict from least-recently-used. Dropping the cache's shared_ptr never
  // invalidates other holders (an executing super instruction, an
  // in-flight zero-copy message), so shared entries are evictable too —
  // skipping them would make blocks adopted from remote pools, whose home
  // rank keeps a reference, permanently unevictable.
  auto it = lru_.end();
  while (used_ + incoming > capacity_ && it != lru_.begin()) {
    --it;
    victims.push_back(Victim{it->id, it->block, it->dirty});
    used_ -= it->block->size();
    entries_.erase(it->id);
    it = lru_.erase(it);
    ++stats_.evictions;
  }
}

void BlockCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  entries_.clear();
  used_ = 0;
  stats_ = Stats{};
}

void BlockCache::erase(const BlockId& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  used_ -= it->second->block->size();
  lru_.erase(it->second);
  entries_.erase(it);
}

std::size_t BlockCache::erase_array(int array_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t removed = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->id.array_id == array_id) {
      used_ -= it->block->size();
      entries_.erase(it->id);
      it = lru_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

void BlockCache::flush_dirty() {
  std::vector<Victim> dirty;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& entry : lru_) {
      if (entry.dirty) {
        dirty.push_back(Victim{entry.id, entry.block, true});
        entry.dirty = false;
      }
    }
  }
  if (on_evict_) {
    for (const Victim& victim : dirty) {
      on_evict_(victim.id, victim.block, true);
    }
  }
}

std::size_t BlockCache::size_doubles() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_;
}

std::size_t BlockCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

BlockCache::Stats BlockCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sia
