// Preallocated block memory pools.
//
// "The memory in each SIP worker is managed by dividing it into several
// stacks of preallocated blocks of memory of various sizes. The number of
// blocks of each size is determined from information obtained during the
// dry run analysis." (paper §V-B). BlockPool implements exactly that: a
// set of size classes, each a stack of fixed-size slots carved out of one
// arena. Allocation pops a slot from the smallest class that fits;
// release pushes it back. A configurable heap fallback (with a counter)
// lets non-dry-run callers keep running while making pool misses visible.
//
// The slot storage lives in a shared PoolCore: the owning BlockPool and
// every outstanding PoolBuffer hold a reference, so a buffer may outlive
// the BlockPool object that allocated it. The zero-copy message path
// relies on this — a block allocated from worker A's pool can sit in
// worker B's cache past the point where A's rank object is destroyed.
//
// Each size class is one mutex-guarded free stack: a zero-copy block may
// be released on another rank's thread.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/fields.hpp"

namespace sia {

namespace detail {
class PoolCore;
}  // namespace detail

// Move-only handle to a pool slot (or a heap fallback allocation).
// Returns the memory on destruction. Keeps the backing arena alive.
class PoolBuffer {
 public:
  PoolBuffer() = default;
  ~PoolBuffer();
  PoolBuffer(PoolBuffer&& other) noexcept;
  PoolBuffer& operator=(PoolBuffer&& other) noexcept;
  PoolBuffer(const PoolBuffer&) = delete;
  PoolBuffer& operator=(const PoolBuffer&) = delete;

  double* data() const { return data_; }
  std::size_t capacity() const { return capacity_; }
  bool valid() const { return data_ != nullptr; }

 private:
  friend class BlockPool;
  friend class detail::PoolCore;
  PoolBuffer(std::shared_ptr<detail::PoolCore> core, double* data,
             std::size_t capacity, std::size_t size_class, bool heap)
      : core_(std::move(core)), data_(data), capacity_(capacity),
        size_class_(size_class), heap_(heap) {}

  void release();

  std::shared_ptr<detail::PoolCore> core_;
  double* data_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t size_class_ = 0;  // element capacity of the class
  bool heap_ = false;
};

class BlockPool {
 public:
  struct Stats {
    std::size_t pool_allocs = 0;
    std::size_t heap_fallbacks = 0;
    std::size_t in_use_doubles = 0;
    std::size_t peak_in_use_doubles = 0;

    // Field list for the rank report (common/fields.hpp).
    template <class Visit, class... S>
    static void fields(Visit&& visit, S&... s) {
      visit("pool_allocs", Fold::kSum, s.pool_allocs...);
      visit("heap_fallbacks", Fold::kSum, s.heap_fallbacks...);
      visit("in_use_doubles", Fold::kSum, s.in_use_doubles...);
      visit("peak_in_use_doubles", Fold::kMax, s.peak_in_use_doubles...);
    }
  };

  // `size_classes` maps slot capacity (doubles) -> number of slots. The
  // classes come from the master's dry run. If `allow_heap_fallback` is
  // false, exhausting a class (or requesting a size larger than any
  // class) throws RuntimeError — the strict mode the dry run guarantees
  // never triggers.
  BlockPool(std::map<std::size_t, std::size_t> size_classes,
            bool allow_heap_fallback);

  // Pool with no preallocated classes; everything falls back to the heap.
  // Used by tests and by contexts where no dry run ran.
  BlockPool();

  ~BlockPool();
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  // Allocates at least `count` doubles. Thread safe.
  PoolBuffer allocate(std::size_t count);

  Stats stats() const;
  std::size_t total_pool_doubles() const;
  // Free slots remaining in the class that would serve `count`.
  std::size_t free_slots_for(std::size_t count) const;

 private:
  std::shared_ptr<detail::PoolCore> core_;
};

}  // namespace sia
