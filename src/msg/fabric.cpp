#include "msg/fabric.hpp"

#include <chrono>

#include "common/error.hpp"

namespace sia::msg {

Fabric::Fabric(int ranks) {
  SIA_CHECK(ranks > 0, "Fabric needs at least one rank");
  boxes_.reserve(static_cast<std::size_t>(ranks));
  for (int i = 0; i < ranks; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
  }
}

Fabric::~Fabric() = default;

Message Fabric::Mailbox::pop_oldest_locked() {
  for (;;) {
    auto [tag, seq] = fifo.front();
    fifo.pop_front();
    auto it = by_tag.find(tag);
    if (it == by_tag.end() || it->second.empty() ||
        it->second.front().seq != seq) {
      continue;  // stale index entry: drained earlier by try_recv_tag
    }
    Message message = std::move(it->second.front().msg);
    it->second.pop_front();
    --pending;
    return message;
  }
}

void Fabric::send(int src, int dst, Message message) {
  if (src < 0 || src >= ranks() || dst < 0 || dst >= ranks()) {
    throw InternalError("Fabric::send: rank out of range");
  }
  if (stopped()) {
    // Teardown path: surviving ranks' retransmit timers and reply sends
    // keep firing after an abort stops the fabric. Count and drop.
    boxes_[static_cast<std::size_t>(src)]->sends_after_stop.fetch_add(
        1, std::memory_order_relaxed);
    return;
  }
  deliver(src, dst, std::move(message));
}

void Fabric::deliver(int src, int dst, Message message) {
  message.src = src;
  count_send(src, message);
  enqueue_local(dst, std::move(message));
}

void Fabric::count_send(int src, const Message& message) {
  Mailbox& sender = *boxes_[static_cast<std::size_t>(src)];
  sender.messages_sent.fetch_add(1, std::memory_order_relaxed);
  sender.payload_doubles_sent.fetch_add(
      static_cast<std::int64_t>(message.payload_doubles()),
      std::memory_order_relaxed);
  sender.header_words_sent.fetch_add(
      static_cast<std::int64_t>(message.header.size()),
      std::memory_order_relaxed);
  if (message.block) {
    sender.zero_copy_messages.fetch_add(1, std::memory_order_relaxed);
    sender.zero_copy_doubles.fetch_add(
        static_cast<std::int64_t>(message.block->size()),
        std::memory_order_relaxed);
  }
}

void Fabric::count_serialized(int src, const Message& message) {
  Mailbox& sender = *boxes_[static_cast<std::size_t>(src)];
  sender.serialized_messages.fetch_add(1, std::memory_order_relaxed);
  if (message.block) {
    sender.serialized_doubles.fetch_add(
        static_cast<std::int64_t>(message.block->size()),
        std::memory_order_relaxed);
    // The block moved as bytes, not as a shared pointer: take back the
    // zero-copy credit count_send granted.
    sender.zero_copy_messages.fetch_sub(1, std::memory_order_relaxed);
    sender.zero_copy_doubles.fetch_sub(
        static_cast<std::int64_t>(message.block->size()),
        std::memory_order_relaxed);
  }
}

void Fabric::enqueue_local(int dst, Message message) {
  Mailbox& box = *boxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    const int tag = message.tag;
    const std::uint64_t seq = box.next_seq++;
    box.by_tag[tag].push_back(TaggedMessage{seq, std::move(message)});
    box.fifo.emplace_back(tag, seq);
    ++box.pending;
  }
  // Each mailbox has a single consuming rank; waking one waiter suffices.
  box.cv.notify_one();
}

std::optional<Message> Fabric::try_recv(int rank) {
  Mailbox& box = *boxes_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(box.mutex);
  if (box.pending == 0) return std::nullopt;
  return box.pop_oldest_locked();
}

std::optional<Message> Fabric::try_recv_tag(int rank, int tag) {
  Mailbox& box = *boxes_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(box.mutex);
  auto it = box.by_tag.find(tag);
  if (it == box.by_tag.end() || it->second.empty()) return std::nullopt;
  Message message = std::move(it->second.front().msg);
  it->second.pop_front();
  --box.pending;
  // The (tag, seq) pair left in `fifo` goes stale; pop_oldest_locked
  // skips it when it reaches the front.
  return message;
}

bool Fabric::has_message(int rank) const {
  const Mailbox& box = *boxes_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(box.mutex);
  return box.pending > 0;
}

std::optional<Message> Fabric::recv(int rank) {
  Mailbox& box = *boxes_[static_cast<std::size_t>(rank)];
  std::unique_lock<std::mutex> lock(box.mutex);
  box.cv.wait(lock, [&] { return box.pending > 0 || stopped(); });
  if (box.pending == 0) return std::nullopt;
  return box.pop_oldest_locked();
}

std::optional<Message> Fabric::recv_for(int rank, int timeout_ms) {
  Mailbox& box = *boxes_[static_cast<std::size_t>(rank)];
  std::unique_lock<std::mutex> lock(box.mutex);
  box.cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                  [&] { return box.pending > 0 || stopped(); });
  if (box.pending == 0) return std::nullopt;
  return box.pop_oldest_locked();
}

void Fabric::barrier(int rank) {
  (void)rank;
  std::unique_lock<std::mutex> lock(barrier_mutex_);
  const int sense = barrier_sense_;
  if (++barrier_count_ == ranks()) {
    barrier_count_ = 0;
    barrier_sense_ ^= 1;
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lock,
                     [&] { return barrier_sense_ != sense || stopped(); });
  }
}

void Fabric::stop() {
  stopped_.store(true, std::memory_order_release);
  // Notify under each mailbox lock: a receiver that observed the old
  // `stopped_` value inside its predicate is either still holding the
  // lock (we wait for it) or already waiting (the notify wakes it), so
  // no blocked recv/recv_for can miss the shutdown.
  for (auto& box : boxes_) {
    std::lock_guard<std::mutex> lock(box->mutex);
    box->cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    barrier_cv_.notify_all();
  }
}

TrafficStats Fabric::stats(int rank) const {
  const Mailbox& box = *boxes_[static_cast<std::size_t>(rank)];
  TrafficStats stats;
  stats.messages_sent = box.messages_sent.load(std::memory_order_relaxed);
  stats.payload_doubles_sent =
      box.payload_doubles_sent.load(std::memory_order_relaxed);
  stats.header_words_sent =
      box.header_words_sent.load(std::memory_order_relaxed);
  stats.zero_copy_messages =
      box.zero_copy_messages.load(std::memory_order_relaxed);
  stats.zero_copy_doubles =
      box.zero_copy_doubles.load(std::memory_order_relaxed);
  stats.sends_after_stop =
      box.sends_after_stop.load(std::memory_order_relaxed);
  stats.blocks_screened =
      box.blocks_screened.load(std::memory_order_relaxed);
  stats.bytes_elided = box.bytes_elided.load(std::memory_order_relaxed);
  stats.serialized_messages =
      box.serialized_messages.load(std::memory_order_relaxed);
  stats.serialized_doubles =
      box.serialized_doubles.load(std::memory_order_relaxed);
  return stats;
}

TrafficStats Fabric::total_stats() const {
  TrafficStats total;
  for (int r = 0; r < ranks(); ++r) fields::fold(total, stats(r));
  return total;
}

void Fabric::record_screened(int rank, std::int64_t doubles_elided) {
  Mailbox& box = *boxes_[static_cast<std::size_t>(rank)];
  box.blocks_screened.fetch_add(1, std::memory_order_relaxed);
  box.bytes_elided.fetch_add(
      doubles_elided * static_cast<std::int64_t>(sizeof(double)),
      std::memory_order_relaxed);
}

}  // namespace sia::msg
