#include "block/block_pool.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <new>

#include "common/error.hpp"

namespace sia {

namespace detail {

// Transparent huge page size on x86-64 and arm64 (4 KiB base pages).
constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

// Frees an arena from aligned operator new[] with the same alignment.
struct ArenaDelete {
  std::align_val_t align{};
  void operator()(double* arena) const { ::operator delete[](arena, align); }
};

// Raises `peak` to `now` if it is lower.
void raise_peak(std::atomic<std::size_t>& peak, std::size_t now) {
  std::size_t seen = peak.load(std::memory_order_relaxed);
  while (now > seen && !peak.compare_exchange_weak(
                           seen, now, std::memory_order_relaxed)) {
  }
}

// Shared slot storage. Referenced by the owning BlockPool and by every
// outstanding PoolBuffer, so buffers stay valid after the BlockPool
// object is gone (zero-copy messaging hands pool-backed blocks across
// rank boundaries and destruction order between ranks is arbitrary).
//
// Each size class is one mutex-guarded stack of free slots. The owning
// worker is the only allocator, but a zero-copy block is released on
// whichever rank's thread drops the last reference.
class PoolCore {
 public:
  PoolCore() = default;
  PoolCore(std::map<std::size_t, std::size_t> size_classes,
           bool allow_heap_fallback)
      : allow_heap_fallback_(allow_heap_fallback) {
    std::size_t total = 0;
    for (const auto& [capacity, slots] : size_classes) {
      SIA_CHECK(capacity > 0, "BlockPool: zero-capacity size class");
      total += capacity * slots;
    }
    // Uninitialised, not zeroed (see block_pool.hpp). An arena that can
    // hold a huge page starts on a 2 MiB boundary and is marked
    // MADV_HUGEPAGE; a failed madvise (THP off, or a kernel without it)
    // leaves ordinary pages. An arena of at least half a huge page is
    // padded to a whole one, so a plan that fills it faults in once, not
    // page by page. A smaller one can never be backed by a huge page, so
    // it gets the default alignment and no madvise.
    std::size_t bytes = total * sizeof(double);
    if (bytes >= kHugePageBytes / 2) bytes = std::max(bytes, kHugePageBytes);
    const bool huge = bytes >= kHugePageBytes;
    const std::align_val_t align{huge ? kHugePageBytes
                                      : __STDCPP_DEFAULT_NEW_ALIGNMENT__};
    arena_ = {static_cast<double*>(::operator new[](bytes, align)),
              ArenaDelete{align}};
#ifdef MADV_HUGEPAGE
    if (huge) ::madvise(arena_.get(), bytes, MADV_HUGEPAGE);
#endif
    arena_doubles_ = total;
    std::size_t offset = 0;
    for (const auto& [capacity, slots] : size_classes) {  // map: ascending
      auto cls = std::make_unique<SizeClass>();
      cls->capacity = capacity;
      for (std::size_t s = 0; s < slots; ++s) {
        cls->free_slots.push_back(arena_.get() + offset);
        offset += capacity;
      }
      classes_.push_back(std::move(cls));
    }
  }

  PoolBuffer allocate(const std::shared_ptr<PoolCore>& self,
                      std::size_t count) {
    SIA_CHECK(count > 0, "BlockPool: zero-size allocation");
    int demand = -1;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      SizeClass& cls = *classes_[c];
      if (cls.capacity < count) continue;
      if (demand < 0) {
        demand = static_cast<int>(c);
        cls.add_live();
      }
      std::lock_guard<std::mutex> lock(cls.mutex);
      if (cls.free_slots.empty()) continue;
      double* slot = cls.free_slots.back();
      cls.free_slots.pop_back();
      pool_allocs_.fetch_add(1, std::memory_order_relaxed);
      add_in_use(cls.capacity);
      return PoolBuffer(self, slot, cls.capacity, static_cast<int>(c),
                        demand);
    }
    if (!allow_heap_fallback_) {
      if (demand >= 0) classes_[static_cast<std::size_t>(demand)]->drop_live();
      throw RuntimeError("block pool exhausted for request of " +
                         std::to_string(count) +
                         " doubles; dry-run sizing was violated");
    }
    heap_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    add_in_use(count);
    return PoolBuffer(self, new double[count], count, -1, demand);
  }

  void release_slot(double* data, int slot_class, int demand_class,
                    std::size_t capacity) {
    in_use_doubles_.fetch_sub(capacity, std::memory_order_relaxed);
    if (demand_class >= 0) {
      classes_[static_cast<std::size_t>(demand_class)]->drop_live();
    }
    if (slot_class < 0) {
      delete[] data;
      return;
    }
    SizeClass& cls = *classes_[static_cast<std::size_t>(slot_class)];
    std::lock_guard<std::mutex> lock(cls.mutex);
    cls.free_slots.push_back(data);
  }

  BlockPool::Stats stats() const {
    BlockPool::Stats stats;
    stats.pool_allocs = pool_allocs_.load(std::memory_order_relaxed);
    stats.heap_fallbacks = heap_fallbacks_.load(std::memory_order_relaxed);
    stats.in_use_doubles = in_use_doubles_.load(std::memory_order_relaxed);
    stats.peak_in_use_doubles =
        peak_in_use_doubles_.load(std::memory_order_relaxed);
    for (const auto& cls : classes_) {
      stats.class_high_water[cls->capacity] =
          cls->high_water.load(std::memory_order_relaxed);
    }
    return stats;
  }

  std::size_t total_pool_doubles() const { return arena_doubles_; }

  std::size_t free_slots_for(std::size_t count) const {
    for (const auto& cls : classes_) {
      if (cls->capacity >= count) {
        std::lock_guard<std::mutex> lock(cls->mutex);
        return cls->free_slots.size();
      }
    }
    return 0;
  }

 private:
  struct SizeClass {
    std::size_t capacity = 0;  // doubles per slot
    mutable std::mutex mutex;
    std::vector<double*> free_slots;  // stack of available slots
    // Live requests this class is the smallest fit for, and their peak.
    std::atomic<std::size_t> live{0};
    std::atomic<std::size_t> high_water{0};

    void add_live() {
      raise_peak(high_water, live.fetch_add(1, std::memory_order_relaxed) + 1);
    }
    void drop_live() { live.fetch_sub(1, std::memory_order_relaxed); }
  };

  void add_in_use(std::size_t doubles) {
    raise_peak(peak_in_use_doubles_,
               in_use_doubles_.fetch_add(doubles, std::memory_order_relaxed) +
                   doubles);
  }

  std::unique_ptr<double[], ArenaDelete> arena_;
  std::size_t arena_doubles_ = 0;
  // unique_ptr: SizeClass holds a mutex, so it must not move.
  std::vector<std::unique_ptr<SizeClass>> classes_;  // capacity ascending
  bool allow_heap_fallback_ = true;
  std::atomic<std::size_t> pool_allocs_{0};
  std::atomic<std::size_t> heap_fallbacks_{0};
  std::atomic<std::size_t> in_use_doubles_{0};
  std::atomic<std::size_t> peak_in_use_doubles_{0};
};

}  // namespace detail

PoolBuffer::~PoolBuffer() { release(); }

PoolBuffer::PoolBuffer(PoolBuffer&& other) noexcept
    : core_(std::move(other.core_)), data_(other.data_),
      capacity_(other.capacity_), slot_class_(other.slot_class_),
      demand_class_(other.demand_class_) {
  other.data_ = nullptr;
  other.capacity_ = 0;
}

PoolBuffer& PoolBuffer::operator=(PoolBuffer&& other) noexcept {
  if (this != &other) {
    release();
    core_ = std::move(other.core_);
    data_ = other.data_;
    capacity_ = other.capacity_;
    slot_class_ = other.slot_class_;
    demand_class_ = other.demand_class_;
    other.data_ = nullptr;
    other.capacity_ = 0;
  }
  return *this;
}

void PoolBuffer::release() {
  if (data_ != nullptr && core_ != nullptr) {
    core_->release_slot(data_, slot_class_, demand_class_, capacity_);
  } else if (data_ != nullptr && slot_class_ < 0) {
    delete[] data_;
  }
  data_ = nullptr;
  core_.reset();
}

BlockPool::BlockPool() : core_(std::make_shared<detail::PoolCore>()) {}

BlockPool::BlockPool(std::map<std::size_t, std::size_t> size_classes,
                     bool allow_heap_fallback)
    : core_(std::make_shared<detail::PoolCore>(std::move(size_classes),
                                               allow_heap_fallback)) {}

BlockPool::~BlockPool() = default;

PoolBuffer BlockPool::allocate(std::size_t count) {
  return core_->allocate(core_, count);
}

BlockPool::Stats BlockPool::stats() const { return core_->stats(); }

std::size_t BlockPool::total_pool_doubles() const {
  return core_->total_pool_doubles();
}

std::size_t BlockPool::free_slots_for(std::size_t count) const {
  return core_->free_slots_for(count);
}

}  // namespace sia
