// Preallocated block memory pools.
//
// "The memory in each SIP worker is managed by dividing it into several
// stacks of preallocated blocks of memory of various sizes. The number of
// blocks of each size is determined from information obtained during the
// dry run analysis." (paper §V-B). BlockPool implements exactly that: a
// set of size classes, each a stack of fixed-size slots carved out of one
// arena. Allocation pops a slot from the smallest class that fits and
// has one free; release pushes it back. A configurable heap fallback
// (with a counter) lets non-dry-run callers keep running while making
// pool misses visible. Each class also counts its high water: the most
// requests it was the smallest fit for that were live at once, which the
// dry run's per-class peak must cover.
//
// The arena is reserved, not zeroed: its pages fault in when a slot is
// first written, so a pool sized for the dry run's peak costs nothing up
// front for slots a run never reaches. Slots (fresh or recycled) hold
// arbitrary bytes; Block's constructors zero-fill their storage, and the
// runtime hands out every slot through one of them.
//
// An arena of at least one huge page (2 MiB) starts on a 2 MiB boundary
// (aligned operator new[]) and is marked MADV_HUGEPAGE, so with
// transparent huge pages enabled it faults in 2 MiB at a time instead of
// 4 KiB: a 32 MiB CCD arena takes tens of faults, not thousands. Its
// resident memory then grows in 2 MiB steps per touched range. A smaller
// arena could never be backed by a huge page and is allocated as any
// array is. With THP set to `never` the madvise is a no-op and pages are
// 4 KiB.
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
             std::size_t capacity, int slot_class, int demand_class)
      : core_(std::move(core)), data_(data), capacity_(capacity),
        slot_class_(slot_class), demand_class_(demand_class) {}

  void release();

  std::shared_ptr<detail::PoolCore> core_;
  double* data_ = nullptr;
  std::size_t capacity_ = 0;
  int slot_class_ = -1;    // class the slot came from; -1: heap
  int demand_class_ = -1;  // smallest class that fits; -1: none does
};

class BlockPool {
 public:
  struct Stats {
    std::size_t pool_allocs = 0;
    std::size_t heap_fallbacks = 0;
    std::size_t in_use_doubles = 0;
    std::size_t peak_in_use_doubles = 0;
    // Per size class (slot capacity in doubles): the most buffers live at
    // once whose request that class is the smallest to fit, wherever they
    // were served from (the class, a larger one, or the heap).
    std::map<std::size_t, std::size_t> class_high_water;

    // Field list for the rank report (common/fields.hpp).
    template <class Visit, class... S>
    static void fields(Visit&& visit, S&... s) {
      visit("pool_allocs", Fold::kSum, s.pool_allocs...);
      visit("heap_fallbacks", Fold::kSum, s.heap_fallbacks...);
      visit("in_use_doubles", Fold::kSum, s.in_use_doubles...);
      visit("peak_in_use_doubles", Fold::kMax, s.peak_in_use_doubles...);
      visit("class_high_water", Fold::kMax, s.class_high_water...);
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
