#include "sip/scheduler.hpp"

#include <algorithm>

namespace sia::sip {

std::pair<std::int64_t, std::int64_t> GuidedSchedule::next_chunk() {
  if (next_ >= total_) return {total_, total_};
  const std::int64_t remaining = total_ - next_;
  std::int64_t size =
      remaining / (static_cast<std::int64_t>(chunk_divisor_) * workers_);
  size = std::max<std::int64_t>(size, min_chunk_);
  // Fair-share clamp: once remaining < chunk_divisor * workers * min_chunk
  // the guided term underflows and every chunk is min_chunk regardless of
  // how many workers still want work — with a large min_chunk one worker
  // grabs nearly the whole tail and the rest starve. Cap late chunks at
  // ceil(remaining / workers) so the tail still splits across the active
  // workers; the fair share wins over min_chunk when they conflict.
  const std::int64_t fair =
      (remaining + workers_ - 1) / std::max(workers_, 1);
  size = std::min(size, std::max<std::int64_t>(fair, 1));
  size = std::min(size, remaining);
  const std::int64_t begin = next_;
  next_ += size;
  return {begin, next_};
}

GuidedSchedule* ScheduleTable::get_or_create(int pardo_id,
                                             std::int64_t instance,
                                             std::int64_t total,
                                             bool* total_mismatch) {
  *total_mismatch = false;
  const Key key{pardo_id, instance};
  auto it = schedules_.find(key);
  if (it == schedules_.end()) {
    it = schedules_
             .emplace(key, State{GuidedSchedule(total, workers_,
                                                chunk_divisor_, min_chunk_),
                                 0})
             .first;
  } else if (it->second.schedule.total() != total) {
    *total_mismatch = true;
  }
  return &it->second.schedule;
}

void ScheduleTable::retire(int pardo_id, std::int64_t instance) {
  const Key key{pardo_id, instance};
  auto it = schedules_.find(key);
  if (it == schedules_.end()) return;
  if (++it->second.done_workers >= workers_) {
    schedules_.erase(it);
  }
}

}  // namespace sia::sip
