// Guided pardo chunk scheduling (master side).
//
// "Initially, the set of iterations ... is divided into 'chunks' and doled
// out to the workers. When a worker completes its chunk, it requests
// another chunk from the master. The chunk size decreases as the
// computation proceeds. This is similar to the approach taken with guided
// scheduling in OpenMP." (paper §V-B).
#pragma once

#include <cstdint>
#include <map>
#include <utility>

namespace sia::sip {

// Chunk state for one pardo instance. Positions are indices into the
// (worker-side) filtered iteration list; the master only needs the count.
class GuidedSchedule {
 public:
  GuidedSchedule(std::int64_t total, int workers, int chunk_divisor,
                 long min_chunk)
      : total_(total), workers_(workers), chunk_divisor_(chunk_divisor),
        min_chunk_(min_chunk) {}

  // Next [begin, end) chunk; begin == end == total means "done".
  std::pair<std::int64_t, std::int64_t> next_chunk();

  std::int64_t total() const { return total_; }
  bool exhausted() const { return next_ >= total_; }

 private:
  std::int64_t total_;
  int workers_;
  int chunk_divisor_;
  long min_chunk_;
  std::int64_t next_ = 0;
};

// Keyed store of schedules for concurrently active pardo instances.
// Key: (pardo_id, instance number at the requesting worker).
class ScheduleTable {
 public:
  ScheduleTable(int workers, int chunk_divisor, long min_chunk)
      : workers_(workers), chunk_divisor_(chunk_divisor),
        min_chunk_(min_chunk) {}

  // Returns the schedule for the given key, creating it with `total`
  // positions on first contact. A total mismatch between workers means
  // divergent control flow and is reported via the bool.
  GuidedSchedule* get_or_create(int pardo_id, std::int64_t instance,
                                std::int64_t total, bool* total_mismatch);

  // Drops exhausted schedules that every worker has seen.
  void retire(int pardo_id, std::int64_t instance);

  std::size_t active() const { return schedules_.size(); }

 private:
  struct Key {
    int pardo_id;
    std::int64_t instance;
    bool operator<(const Key& other) const {
      return pardo_id != other.pardo_id ? pardo_id < other.pardo_id
                                        : instance < other.instance;
    }
  };
  struct State {
    GuidedSchedule schedule;
    int done_workers = 0;
  };

  int workers_;
  int chunk_divisor_;
  long min_chunk_;
  std::map<Key, State> schedules_;
};

}  // namespace sia::sip
