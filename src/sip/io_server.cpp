#include "sip/io_server.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/log.hpp"
#include "common/posix_io.hpp"
#include "msg/tags.hpp"
#include "sip/spawn.hpp"

namespace sia::sip {

namespace {
std::string ack_journal_path(const std::string& scratch_dir, int rank) {
  return scratch_dir + "/server_" + std::to_string(rank) + ".ackjournal";
}
}  // namespace

// ---------------------------------------------------------------------
// DiskStore.

DiskStore::DiskStore(const std::string& dir, const std::string& array_name,
                     std::size_t slot_doubles, std::int64_t num_blocks,
                     bool cold_io, msg::DiskFaultInjector* injector)
    : cold_io_(cold_io),
      array_name_(array_name),
      injector_(injector),
      slot_doubles_(slot_doubles),
      present_(static_cast<std::size_t>(num_blocks), 0) {
  const std::string data_path = dir + "/" + array_name + ".srv";
  const std::string map_path = dir + "/" + array_name + ".map";
  fd_ = retry_eintr(
      [&] { return ::open(data_path.c_str(), O_RDWR | O_CREAT, 0644); });
  if (fd_ < 0) {
    throw RuntimeError("cannot open served array file " + data_path + ": " +
                       std::strerror(errno));
  }
  map_fd_ = retry_eintr(
      [&] { return ::open(map_path.c_str(), O_RDWR | O_CREAT, 0644); });
  if (map_fd_ < 0) {
    close_quiet(fd_);
    throw RuntimeError("cannot open served array map " + map_path);
  }
  // Load existing presence map (persistence across SIP runs).
  const ssize_t got =
      pread_full(map_fd_, present_.data(), present_.size(), 0);
  if (got < 0) {
    throw RuntimeError("cannot read served array map " + map_path);
  }
  for (std::size_t i = static_cast<std::size_t>(got); i < present_.size();
       ++i) {
    present_[i] = 0;
  }
}

DiskStore::~DiskStore() {
  if (!abandoned_) {
    try {
      flush_map();
    } catch (...) {
      // Destructor: nothing sensible to do with a failed final flush.
    }
  }
  if (fd_ >= 0) close_quiet(fd_);
  if (map_fd_ >= 0) close_quiet(map_fd_);
}

void DiskStore::abandon() {
  std::lock_guard<std::mutex> lock(mutex_);
  // The incarnation died: its un-flushed in-memory presence bytes must
  // not overwrite the durable map the respawned server will reload.
  abandoned_ = true;
  map_dirty_lo_ = map_dirty_hi_ = -1;
}

bool DiskStore::has(std::int64_t linear) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return present_[static_cast<std::size_t>(linear)] != 0;
}

bool DiskStore::is_screened(std::int64_t linear) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return present_[static_cast<std::size_t>(linear)] == 2;
}

void DiskStore::record_screened(std::int64_t linear) {
  std::lock_guard<std::mutex> lock(mutex_);
  present_[static_cast<std::size_t>(linear)] = 2;
  if (map_dirty_lo_ < 0 || linear < map_dirty_lo_) map_dirty_lo_ = linear;
  if (linear > map_dirty_hi_) map_dirty_hi_ = linear;
}

void DiskStore::read(std::int64_t linear, double* out,
                     std::size_t count) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const char state = present_[static_cast<std::size_t>(linear)];
    if (state == 0) {
      throw RuntimeError("disk read of absent served block");
    }
    if (state == 2) {
      // Screened block: present, but its data never hit the file (the
      // slot may not even exist). It reads as zeros by definition.
      std::fill(out, out + count, 0.0);
      return;
    }
  }
  if (injector_ != nullptr) {
    injector_->check("read of '" + array_name_ + "' block " +
                     std::to_string(linear));
  }
  const off_t offset =
      static_cast<off_t>(linear) *
      static_cast<off_t>(slot_doubles_ * sizeof(double));
  const std::size_t bytes = count * sizeof(double);
  const ssize_t got = pread_full(fd_, out, bytes, offset);
  if (got != static_cast<ssize_t>(bytes)) {
    throw RuntimeError("short read from served array file");
  }
  if (cold_io_) {
    ::posix_fadvise(fd_, offset, static_cast<off_t>(bytes),
                    POSIX_FADV_DONTNEED);
  }
}

void DiskStore::write_deferred(std::int64_t linear, const double* data,
                               std::size_t count) {
  SIA_CHECK(count <= slot_doubles_, "served block exceeds disk slot");
  if (injector_ != nullptr) {
    injector_->check("write of '" + array_name_ + "' block " +
                     std::to_string(linear));
  }
  const off_t offset =
      static_cast<off_t>(linear) *
      static_cast<off_t>(slot_doubles_ * sizeof(double));
  const std::size_t bytes = count * sizeof(double);
  if (pwrite_full(fd_, data, bytes, offset) !=
      static_cast<ssize_t>(bytes)) {
    throw RuntimeError("short write to served array file");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  present_[static_cast<std::size_t>(linear)] = 1;
  if (map_dirty_lo_ < 0 || linear < map_dirty_lo_) map_dirty_lo_ = linear;
  if (linear > map_dirty_hi_) map_dirty_hi_ = linear;
  ++blocks_written_;
}

void DiskStore::flush_map() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (map_dirty_lo_ < 0) return;
  // One pwrite over the dirty range. Batches are sorted by linear id, so
  // the range is dense in practice; bytes inside it that were already on
  // disk are simply rewritten with their current in-memory value.
  const std::size_t lo = static_cast<std::size_t>(map_dirty_lo_);
  const std::size_t len = static_cast<std::size_t>(map_dirty_hi_) - lo + 1;
  if (pwrite_full(map_fd_, present_.data() + lo, len,
                  static_cast<off_t>(lo)) != static_cast<ssize_t>(len)) {
    throw RuntimeError("cannot update served array map");
  }
  map_dirty_lo_ = map_dirty_hi_ = -1;
  ++map_flushes_;
}

void DiskStore::after_batch() {
  if (!cold_io_) return;
  // One sync per batch instead of per block; dropping the pages right
  // after keeps the data file cold so the application-level cache stays
  // the only cache.
  fdatasync_eintr(fd_);
  ::posix_fadvise(fd_, 0, 0, POSIX_FADV_DONTNEED);
}

void DiskStore::write(std::int64_t linear, const double* data,
                      std::size_t count) {
  write_deferred(linear, data, count);
  flush_map();
  after_batch();
}

void DiskStore::erase_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fill(present_.begin(), present_.end(), 0);
  if (!present_.empty() &&
      pwrite_full(map_fd_, present_.data(), present_.size(), 0) !=
          static_cast<ssize_t>(present_.size())) {
    throw RuntimeError("cannot clear served array map");
  }
  map_dirty_lo_ = map_dirty_hi_ = -1;
  ++map_flushes_;
}

std::int64_t DiskStore::blocks_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blocks_written_;
}

std::int64_t DiskStore::map_flushes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_flushes_;
}

std::int64_t DiskStore::screened_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::count(present_.begin(), present_.end(), char{2});
}

std::int64_t DiskStore::present_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(present_.size()) -
         std::count(present_.begin(), present_.end(), char{0});
}

// ---------------------------------------------------------------------
// WriteBehind.

WriteBehind::WriteBehind(int lanes, ErrorHandler on_error,
                         RetireHandler on_retire)
    : on_error_(std::move(on_error)),
      on_retire_(std::move(on_retire)) {
  const int count = std::max(1, lanes);
  threads_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    threads_.emplace_back([this] { run(); });
  }
}

WriteBehind::~WriteBehind() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    paused_ = false;
  }
  cv_.notify_all();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

void WriteBehind::enqueue(DiskStore* store, int array_id,
                          std::int64_t linear, BlockPtr block,
                          AckList acks) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const Key key{array_id, linear};
    pending_[key] = block;
    queue_.push_back(Item{store, key, std::move(block), std::move(acks)});
  }
  cv_.notify_all();
}

void WriteBehind::abandon() {
  std::unique_lock<std::mutex> lock(mutex_);
  queue_.clear();
  pending_.clear();
  // The caller abandons the stores next, which discards unflushed
  // presence bytes. A batch still on a lane would then journal acks for
  // blocks whose presence never reached the map, and the respawned
  // server would drop their retransmits as duplicates of lost data.
  cv_.wait(lock, [&] { return in_flight_keys_.empty(); });
}

BlockPtr WriteBehind::lookup(int array_id, std::int64_t linear) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = pending_.find(Key{array_id, linear});
  return it == pending_.end() ? nullptr : it->second;
}

WriteBehind::AckList WriteBehind::cancel_array(int array_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  AckList dropped;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->key.first == array_id) {
      dropped.insert(dropped.end(), it->acks.begin(), it->acks.end());
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = pending_.begin(); it != pending_.end();) {
    it = it->first.first == array_id ? pending_.erase(it) : std::next(it);
  }
  cv_.wait(lock, [&] {
    return std::none_of(in_flight_keys_.begin(), in_flight_keys_.end(),
                        [&](const Key& key) { return key.first == array_id; });
  });
  return dropped;
}

void WriteBehind::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return queue_.empty() && in_flight_keys_.empty(); });
  if (!error_.empty()) {
    throw RuntimeError("write-behind disk failure: " + error_);
  }
}

std::int64_t WriteBehind::writes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return writes_;
}

std::int64_t WriteBehind::batches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return batches_;
}

void WriteBehind::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void WriteBehind::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

bool WriteBehind::has_runnable_item() const {
  for (const Item& item : queue_) {
    if (std::find(in_flight_keys_.begin(), in_flight_keys_.end(),
                  item.key) == in_flight_keys_.end()) {
      return true;
    }
  }
  return false;
}

void WriteBehind::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    cv_.wait(lock, [&] {
      return stop_ || (!paused_ && has_runnable_item());
    });
    if (stop_ && queue_.empty()) return;
    if (paused_ || !has_runnable_item()) {
      if (stop_) {
        // Remaining items are all in flight on other lanes.
        if (queue_.empty()) return;
        continue;
      }
      continue;
    }
    // Build a batch: queued blocks of one array, oldest first, skipping
    // keys another lane is writing right now (same-slot writes must keep
    // their enqueue order).
    int array_id = -1;
    std::vector<Item> batch;
    for (auto it = queue_.begin();
         it != queue_.end() && batch.size() < kMaxWriteBatch;) {
      const bool busy =
          std::find(in_flight_keys_.begin(), in_flight_keys_.end(),
                    it->key) != in_flight_keys_.end();
      if (busy) {
        ++it;
        continue;
      }
      if (array_id < 0) array_id = it->key.first;
      if (it->key.first != array_id) {
        ++it;
        continue;
      }
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
      in_flight_keys_.push_back(batch.back().key);
    }
    if (batch.empty()) continue;
    // Sort by linear id for sequential locality; stable keeps two queued
    // versions of the same block in enqueue order.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const Item& a, const Item& b) {
                       return a.key.second < b.key.second;
                     });
    lock.unlock();
    // A throw escaping a lane thread would std::terminate the process, so
    // disk failures (short write, ENOSPC) are caught here, surfaced via
    // the error handler, and rethrown from drain().
    std::string error;
    try {
      DiskStore* store = batch.front().store;
      for (const Item& item : batch) {
        item.store->write_deferred(item.key.second,
                                   item.block->data().data(),
                                   item.block->size());
      }
      // One presence-map pwrite (and, under cold I/O, one fdatasync) for
      // the whole batch.
      store->flush_map();
      store->after_batch();
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (!error.empty() && on_error_) on_error_(error);
    if (error.empty() && on_retire_) {
      // The batch is durably retired: hand its prepare durability acks
      // to the server (journal + kProtoAck to the preparing workers).
      AckList retired;
      for (const Item& item : batch) {
        retired.insert(retired.end(), item.acks.begin(), item.acks.end());
      }
      if (!retired.empty()) on_retire_(retired);
    }
    lock.lock();
    if (error.empty()) {
      writes_ += static_cast<std::int64_t>(batch.size());
      ++batches_;
    } else if (error_.empty()) {
      error_ = error;
    }
    for (const Item& item : batch) {
      auto in_flight = std::find(in_flight_keys_.begin(),
                                 in_flight_keys_.end(), item.key);
      if (in_flight != in_flight_keys_.end()) {
        in_flight_keys_.erase(in_flight);
      }
      // Remove from the pending map only if it still refers to this block
      // (a newer version may have been enqueued meanwhile).
      auto it = pending_.find(item.key);
      if (it != pending_.end() && it->second == item.block) {
        pending_.erase(it);
      }
    }
    cv_.notify_all();
  }
}

// ---------------------------------------------------------------------
// DiskPool.

DiskPool::DiskPool(int threads) {
  const int count = std::max(1, threads);
  threads_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    threads_.emplace_back([this] { run(); });
  }
}

DiskPool::~DiskPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

void DiskPool::submit(const Key& key, Job job, bool low_priority) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    (low_priority ? low_ : high_).push_back(Entry{key, std::move(job)});
  }
  cv_.notify_one();
}

void DiskPool::promote(const Key& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = low_.begin(); it != low_.end(); ++it) {
    if (it->key == key) {
      high_.push_back(std::move(*it));
      low_.erase(it);
      return;
    }
  }
}

void DiskPool::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] {
    return high_.empty() && low_.empty() && running_ == 0;
  });
}

void DiskPool::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    cv_.wait(lock, [&] { return stop_ || !high_.empty() || !low_.empty(); });
    if (high_.empty() && low_.empty()) {
      if (stop_) return;
      continue;
    }
    std::deque<Entry>& source = high_.empty() ? low_ : high_;
    Entry entry = std::move(source.front());
    source.pop_front();
    ++running_;
    lock.unlock();
    entry.job();
    lock.lock();
    --running_;
    if (high_.empty() && low_.empty() && running_ == 0) {
      idle_cv_.notify_all();
    }
  }
}

// ---------------------------------------------------------------------
// ServerComputeRegistry.

ServerComputeRegistry& ServerComputeRegistry::global() {
  static ServerComputeRegistry registry;
  return registry;
}

void ServerComputeRegistry::register_generator(const std::string& name,
                                               ServerComputeFn fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  table_[name] = std::move(fn);
}

const ServerComputeFn* ServerComputeRegistry::lookup(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = table_.find(name);
  return it == table_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------
// IoServer.

IoServer::IoServer(SipShared& shared, int my_rank)
    : shared_(shared), my_rank_(my_rank),
      cache_(shared.config.server_cache_bytes / sizeof(double),
             [this](const BlockId& id, const BlockPtr& block, bool dirty) {
               if (!dirty) return;
               const std::int64_t linear = shared_.program->linear_of(id);
               // Re-screen at eviction: an accumulated block that decayed
               // below the threshold needs no disk write — a presence-map
               // marker suffices. Skipped when an older version of the
               // same block is queued/in flight on the lanes: a marker
               // cannot outrank those writes (same-slot FIFO is what keeps
               // replays exactly-once), so the data takes the normal path.
               if (shared_.program->screenable(id.array_id) &&
                   block->norm() < shared_.program->threshold() &&
                   write_behind_.lookup(id.array_id, linear) == nullptr) {
                 ++stats_.evictions_screened;
                 shared_.fabric->record_screened(
                     my_rank_, static_cast<std::int64_t>(block->size()));
                 store_for(id.array_id).record_screened(linear);
                 // Any durability acks stay pending: the marker becomes
                 // durable at the next presence-map flush (barrier or
                 // flush hint), where flush() acks the leftovers.
                 return;
               }
               write_behind_.enqueue(&store_for(id.array_id), id.array_id,
                                     linear, block,
                                     take_pending_acks(id.array_id, linear));
             }),
      write_behind_(shared.config.server_disk_threads,
                    [this](const std::string& error) {
                      shared_.raise_abort("write-behind disk failure: " +
                                          error);
                    },
                    [this](const WriteBehind::AckList& acks) {
                      ack_durable(acks);
                    }),
      disk_pool_(
          std::make_unique<DiskPool>(shared.config.server_disk_threads)) {
  ft_ = shared.config.fault_tolerance_enabled();
  if (ft_) load_ack_journal();
}

IoServer::~IoServer() {
  // Quiesce the worker threads before retiring the journal fd: a lane
  // retiring one last batch must still be able to journal its acks —
  // an ack that was journaled but never delivered is recovered from (the
  // retransmit is re-acked), an ack sent without a journal entry is not
  // (the retransmit would double-apply).
  disk_pool_.reset();
  try {
    write_behind_.drain();
  } catch (...) {
    // Lane disk error was already surfaced via the error handler.
  }
  int fd;
  {
    std::lock_guard<std::mutex> lock(acked_mutex_);
    fd = journal_fd_;
    journal_fd_ = -1;
  }
  if (fd >= 0) close_quiet(fd);
}

DiskStore& IoServer::store_for(int array_id) {
  auto it = stores_.find(array_id);
  if (it == stores_.end()) {
    const sial::ResolvedArray& array = shared_.program->array(array_id);
    it = stores_
             .emplace(array_id, std::make_unique<DiskStore>(
                                    shared_.scratch_dir, array.name,
                                    array.max_block_elements,
                                    array.total_blocks,
                                    shared_.config.server_cold_io,
                                    shared_.disk_injector.get()))
             .first;
  }
  return *it->second;
}

const ServerComputeFn* IoServer::generator_for(int array_id) {
  auto it = generators_.find(array_id);
  if (it == generators_.end()) {
    GeneratorSlot slot;
    slot.resolved = true;
    const std::string& name = shared_.program->array(array_id).name;
    auto cfg = shared_.config.computed_served.find(name);
    if (cfg != shared_.config.computed_served.end()) {
      slot.fn = ServerComputeRegistry::global().lookup(cfg->second);
      if (slot.fn == nullptr) {
        throw RuntimeError("computed served array '" + name +
                           "' refers to unregistered generator '" +
                           cfg->second + "'");
      }
    }
    it = generators_.emplace(array_id, slot).first;
  }
  return it->second.fn;
}

BlockPtr IoServer::load_block(const BlockId& id) {
  const std::int64_t linear = shared_.program->linear_of(id);
  // Still sitting in the write-behind queue?
  if (BlockPtr pending = write_behind_.lookup(id.array_id, linear)) {
    return pending;
  }
  DiskStore& store = store_for(id.array_id);
  if (!store.has(linear)) return nullptr;
  ++stats_.disk_reads;
  auto block = std::make_shared<Block>(shared_.program->shape_of(id));
  store.read(linear, block->data().data(), block->size());
  return block;
}

void IoServer::handle_prepare(msg::Message& message, bool accumulate) {
  ++stats_.prepares;
  const int array_id = static_cast<int>(message.header[0]);
  const std::int64_t linear = message.header[1];
  const BlockId id = shared_.program->id_from_linear(array_id, linear);
  write_log_.record(id, epoch_, static_cast<int>(message.header[2]),
                    accumulate, shared_.program->array(array_id).name,
                    kPrepareNames);

  // Header-only screened replace: the payload stayed below the screening
  // threshold at the sender, so only a presence-map marker travels.
  if (message.header.size() > 3 && message.header[3] != 0) {
    apply_screened_prepare(message, id, linear);
    return;
  }

  // Under the reliable protocol this prepare is owed a *durability* ack:
  // it is acked (and journaled) only once the carrying block is retired
  // to disk. An immediate ack would let the worker drop its retransmit
  // copy while the only instance of the data is a dirty cache block — a
  // server crash would then lose it with no one left to replay it.
  if (ft_ && message.seq != 0) {
    pending_acks_[{array_id, linear}].push_back({message.src, message.seq});
  }

  // This prepare supersedes any disk read of the same block still in
  // flight: bump the version so the read's completion is discarded
  // instead of clobbering the fresh dirty block with a stale clean one,
  // and abandon the in-flight entry so later demand requests submit a
  // fresh job (which sees the new data) rather than coalescing onto the
  // stale read. Its waiters are answered from the fresh payload below.
  ++prepare_versions_[id];
  std::vector<Waiter> stolen;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto inflight = inflight_.find(id);
    if (inflight != inflight_.end()) {
      stolen = std::move(inflight->second.waiters);
      inflight_.erase(inflight);
    }
  }

  SIA_CHECK(message.block != nullptr, "prepare without block payload");
  if (message.block->size() !=
      shared_.program->shape_of(id).element_count()) {
    throw RuntimeError("prepare shape mismatch for " + id.to_string());
  }
  // The stored block is the cached one, else (for an accumulate) the one
  // queued for write-behind or on disk. A queued block is referenced by
  // the lanes too, so apply_write copies it instead of mutating storage a
  // lane may be writing. An adopted replace leaves any earlier zero-copy
  // reply snapshot untouched for its holders.
  BlockPtr block = apply_write(
      std::move(message.block), accumulate,
      [&] {
        BlockPtr stored = cache_.get(id);
        if (stored) {
          ++stats_.cache_hits;
        } else if (accumulate) {
          stored = load_block(id);
        }
        return stored;
      },
      /*pool=*/nullptr, stats_.cow_copies);
  cache_.put(id, block, /*dirty=*/true);
  for (const Waiter& waiter : stolen) {
    send_reply(waiter.reply_rank,
               {array_id, linear, ReplyStatus::kFound, waiter.lookahead},
               waiter.req_seq, block);
  }
}

void IoServer::apply_screened_prepare(msg::Message& message,
                                      const BlockId& id,
                                      std::int64_t linear) {
  ++stats_.prepares_screened;
  // Like a full replace prepare, the marker supersedes any disk read of
  // the block still in flight: bump the version so the read's completion
  // is discarded, and answer its waiters with the fresh (screened) state.
  ++prepare_versions_[id];
  std::vector<Waiter> stolen;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto inflight = inflight_.find(id);
    if (inflight != inflight_.end()) {
      stolen = std::move(inflight->second.waiters);
      inflight_.erase(inflight);
    }
  }
  for (const Waiter& waiter : stolen) {
    send_reply(waiter.reply_rank,
               {id.array_id, linear, ReplyStatus::kScreened,
                waiter.lookahead},
               waiter.req_seq);
  }
  // Drop the cached pre-marker version; reads now answer from the map.
  // The marker also supersedes earlier prepares of this block still owed
  // a durability ack (their data will never retire now) — ack them along
  // with the marker itself, like handle_delete does for a deleted array.
  cache_.erase(id);
  WriteBehind::AckList acks = take_pending_acks(id.array_id, linear);
  if (ft_ && message.seq != 0) acks.push_back({message.src, message.seq});
  DiskStore& store = store_for(id.array_id);
  if (write_behind_.lookup(id.array_id, linear) != nullptr) {
    // An older version of the slot is queued (or mid-write) on the lanes.
    // A bare presence byte cannot be ordered against those writes, so the
    // replace ships as a real zero block through the same-slot FIFO: it
    // lands last and the slot ends up correct, merely un-elided for this
    // rare race.
    write_behind_.enqueue(&store, id.array_id, linear,
                          zero_block(shared_.program->shape_of(id)),
                          std::move(acks));
    return;
  }
  store.record_screened(linear);
  if (!acks.empty()) {
    // Journal-before-ack needs the marker durable first: one presence
    // byte, one small pwrite. A screened block must never be "durable by
    // absence" — the respawned incarnation has to distinguish it from a
    // block that was never prepared.
    store.flush_map();
    ack_durable(acks);
  }
}

void IoServer::send_reply(int reply_rank, const BlockReply& reply,
                          std::uint64_t ack, BlockPtr block) {
  shared_.fabric->send(
      my_rank_, reply_rank,
      make_reply(msg::kServedReply, reply, ack, std::move(block)));
}

void IoServer::read_job(BlockId id, DiskStore* store, std::int64_t linear,
                        const ServerComputeFn* generate, BlockShape shape,
                        std::array<long, blas::kMaxRank> first,
                        std::string array_name, std::uint64_t version) {
  Completion done;
  done.id = id;
  done.version = version;
  std::string error;
  try {
    // Allocate only once a disk read or generation is certain: coalesced
    // write-behind hits and look-ahead misses must not pay a max-block
    // heap allocation on the disk threads.
    if (BlockPtr pending = write_behind_.lookup(id.array_id, linear)) {
      // Enqueued for write after the miss was detected; serve the queued
      // version directly.
      done.block = std::move(pending);
    } else if (store->has(linear)) {
      auto block = std::make_shared<Block>(shape);
      store->read(linear, block->data().data(), block->size());
      done.from_disk = true;
      done.block = std::move(block);
    } else if (generate != nullptr) {
      auto block = std::make_shared<Block>(shape);
      (*generate)(*block, {first.data(), static_cast<std::size_t>(id.rank)});
      done.computed = true;
      done.block = std::move(block);
    }
  } catch (const std::exception& e) {
    error = e.what();
  }

  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto it = inflight_.find(id);
    if (it != inflight_.end()) {
      waiters = std::move(it->second.waiters);
      inflight_.erase(it);
    }
  }

  if (!error.empty()) {
    shared_.raise_abort(error);
    return;
  }
  try {
    for (const Waiter& waiter : waiters) {
      if (done.block) {
        send_reply(waiter.reply_rank,
                   {id.array_id, linear, ReplyStatus::kFound,
                    waiter.lookahead},
                   waiter.req_seq, done.block);
      } else if (waiter.lookahead) {
        // Look-ahead of a block that does not exist (yet): the client
        // forgets the speculative request instead of failing the run;
        // the demand request follows if the program really reads it.
        send_reply(waiter.reply_rank,
                   {id.array_id, linear, ReplyStatus::kMiss, true},
                   waiter.req_seq);
      } else {
        shared_.raise_abort("request of served block " + id.to_string() +
                            " of '" + array_name +
                            "' that has never been prepared");
        return;
      }
    }
  } catch (const std::exception&) {
    // Fabric stopped mid-abort; nothing left to deliver.
    return;
  }
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    completions_.push_back(std::move(done));
  }
}

std::uint64_t IoServer::version_of(const BlockId& id) const {
  auto it = prepare_versions_.find(id);
  return it == prepare_versions_.end() ? 0 : it->second;
}

void IoServer::drain_completions() {
  std::deque<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    done.swap(completions_);
  }
  for (Completion& completion : done) {
    if (completion.from_disk) ++stats_.disk_reads;
    if (completion.computed) ++stats_.computed;
    // Install only if no prepare landed while the read was in flight and
    // the cache has no newer entry: a stale clean disk image put over a
    // freshly prepared dirty block would drop the dirty flag and lose the
    // update at the next barrier (BlockCache::put replaces without
    // calling the victim handler).
    if (completion.block &&
        completion.version == version_of(completion.id) &&
        !cache_.contains(completion.id)) {
      cache_.put(completion.id, std::move(completion.block),
                 /*dirty=*/false);
    }
  }
}

void IoServer::handle_request(const msg::Message& message) {
  const int array_id = static_cast<int>(message.header[0]);
  const sial::ResolvedArray& array = shared_.program->array(array_id);
  const std::int64_t linear = message.header[1];
  const BlockId id = shared_.program->id_from_linear(array_id, linear);
  const int reply_rank = static_cast<int>(message.header[2]);
  const bool lookahead = message.header.size() > 3 && message.header[3] != 0;
  if (lookahead) {
    ++stats_.lookahead_requests;
  } else {
    ++stats_.requests;
  }

  BlockReply reply{array_id, linear, ReplyStatus::kFound, lookahead};
  if (BlockPtr block = cache_.get(id)) {
    // Zero-copy reply: share the cached block. Later prepares copy it
    // before mutating (apply_write), so the requester's snapshot stays
    // stable.
    ++stats_.cache_hits;
    send_reply(reply_rank, reply, message.seq, std::move(block));
    return;
  }

  // Screening happens before any disk work: a block recorded screened —
  // or one of a sparse array that was never prepared at all, because
  // every contribution was dropped below threshold at its sender — is
  // answered with a norm-only reply. Prepares and the queue-feeding
  // eviction paths all run on this thread, so the presence/queue check
  // here cannot race a concurrent state change.
  if (shared_.program->screenable(array_id) &&
      write_behind_.lookup(array_id, linear) == nullptr) {
    DiskStore& store = store_for(array_id);
    if (store.is_screened(linear) ||
        (!store.has(linear) && generator_for(array_id) == nullptr)) {
      ++stats_.requests_screened;
      shared_.fabric->record_screened(
          my_rank_, static_cast<std::int64_t>(
                        shared_.program->shape_of(id).element_count()));
      reply.status = ReplyStatus::kScreened;
      send_reply(reply_rank, reply, message.seq);
      return;
    }
  }

  // Coalesce onto an in-flight read or submit a new job. The message
  // loop goes straight back to servicing traffic; the disk thread
  // replies on completion.
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto it = inflight_.find(id);
    if (it != inflight_.end()) {
      it->second.waiters.push_back(Waiter{reply_rank, lookahead, message.seq});
      ++stats_.reads_coalesced;
      if (!lookahead && it->second.low_priority) {
        // A demand request caught up with a queued read-ahead: bump it.
        disk_pool_->promote({array_id, linear});
        it->second.low_priority = false;
      }
      return;
    }
    InflightRead read;
    read.waiters.push_back(Waiter{reply_rank, lookahead, message.seq});
    read.low_priority = lookahead;
    inflight_.emplace(id, std::move(read));
  }
  // Resolve everything the job needs on this thread — store/generator
  // tables and program metadata are not synchronized.
  DiskStore* store = &store_for(array_id);
  const ServerComputeFn* generate = generator_for(array_id);
  const BlockShape shape = shared_.program->shape_of(id);
  std::array<long, blas::kMaxRank> first{};
  if (generate != nullptr) {
    for (int d = 0; d < id.rank; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      const sial::ResolvedIndex& decl =
          shared_.program->index(array.index_ids[ud]);
      const int abs_seg = id.segments[ud] + array.seg_lo[ud] - 1;
      first[ud] = decl.segment_start(abs_seg);
    }
  }
  disk_pool_->submit(
      {array_id, linear},
      [this, id, store, linear, generate, shape, first, name = array.name,
       version = version_of(id)] {
        read_job(id, store, linear, generate, shape, first, name, version);
      },
      /*low_priority=*/lookahead);
}

void IoServer::handle_delete(const msg::Message& message) {
  const int array_id = static_cast<int>(message.header[0]);
  // Let in-flight reads of the array finish before the state goes away
  // (a well-formed program separates reads from the delete with a
  // barrier, but the server must stay consistent regardless).
  disk_pool_->drain();
  drain_completions();
  cache_.erase_array(array_id);
  // A late queued write must not resurrect the deleted array on disk:
  // drop its write-behind entries and its on-disk presence, and forget
  // its prepare conflict records. The delete supersedes any prepare of
  // this array still owed a durability ack (queued or in the cache), so
  // ack those directly — the workers' retransmit copies are moot now.
  WriteBehind::AckList superseded = write_behind_.cancel_array(array_id);
  for (auto it = pending_acks_.begin(); it != pending_acks_.end();) {
    if (it->first.first == array_id) {
      superseded.insert(superseded.end(), it->second.begin(),
                        it->second.end());
      it = pending_acks_.erase(it);
    } else {
      ++it;
    }
  }
  ack_durable(superseded);
  auto store = stores_.find(array_id);
  if (store != stores_.end()) store->second->erase_all();
  write_log_.erase_array(array_id);
  for (auto it = prepare_versions_.begin();
       it != prepare_versions_.end();) {
    it = it->first.array_id == array_id ? prepare_versions_.erase(it)
                                        : std::next(it);
  }
}

void IoServer::flush() {
  disk_pool_->drain();
  drain_completions();
  cache_.flush_dirty();
  write_behind_.drain();
  // Presence maps hit disk at least once per barrier even if the lanes
  // deferred them.
  for (auto& [array_id, store] : stores_) store->flush_map();
  // Everything is durable now — including presence-map markers from
  // screened evictions, whose acks deliberately wait for this flush. Any
  // other ack not carried out by a retiring batch goes out here too.
  if (ft_ && !pending_acks_.empty()) {
    WriteBehind::AckList leftovers;
    for (auto& [key, acks] : pending_acks_) {
      leftovers.insert(leftovers.end(), acks.begin(), acks.end());
    }
    pending_acks_.clear();
    ack_durable(leftovers);
  }
}

void IoServer::handle_barrier(const msg::Message& message) {
  flush();
  // flush() drained the disk pool and absorbed every completion, so no
  // in-flight read still carries a version stamp; reset the counters to
  // keep the table bounded by the blocks prepared per epoch.
  prepare_versions_.clear();
  ++epoch_;
  msg::Message ack;
  ack.tag = msg::kServerBarrierAck;
  ack.header = {message.header.empty() ? 0 : message.header[0]};
  shared_.fabric->send(my_rank_, shared_.master_rank(), std::move(ack));
}

// ---------------------------------------------------------------------
// Reliable protocol (fault tolerance).

WriteBehind::AckList IoServer::take_pending_acks(int array_id,
                                                 std::int64_t linear) {
  if (!ft_) return {};
  auto it = pending_acks_.find({array_id, linear});
  if (it == pending_acks_.end()) return {};
  WriteBehind::AckList acks = std::move(it->second);
  pending_acks_.erase(it);
  return acks;
}

void IoServer::send_ack(int dst, std::uint64_t seq) {
  msg::Message ack;
  ack.tag = msg::kProtoAck;
  ack.ack = seq;
  shared_.fabric->send(my_rank_, dst, std::move(ack));
}

void IoServer::ack_durable(const WriteBehind::AckList& acks) {
  if (acks.empty()) return;
  {
    std::lock_guard<std::mutex> lock(acked_mutex_);
    // Journal BEFORE acking: if the server dies between the two, the
    // worker retransmits, and the respawned incarnation finds the seq in
    // the journal and re-acks instead of double-applying an accumulate.
    // The reverse order would ack, crash, forget — and the retransmit
    // would accumulate a second time into the durable image.
    if (journal_fd_ >= 0) {
      std::vector<std::uint64_t> entries;
      entries.reserve(acks.size() * 2);
      for (const auto& [src, seq] : acks) {
        entries.push_back(static_cast<std::uint64_t>(src));
        entries.push_back(seq);
      }
      const std::size_t bytes = entries.size() * sizeof(std::uint64_t);
      if (write_full(journal_fd_, entries.data(), bytes) !=
          static_cast<ssize_t>(bytes)) {
        shared_.raise_abort("cannot append to server ack journal");
        return;
      }
    }
    for (const auto& pair : acks) acked_.insert(pair);
  }
  for (const auto& [src, seq] : acks) send_ack(src, seq);
}

void IoServer::clear_ack_journals(const SipShared& shared) {
  if (!shared.config.fault_tolerance_enabled()) return;
  for (int s = 0; s < shared.num_servers(); ++s) {
    ::unlink(ack_journal_path(shared.scratch_dir,
                              shared.config.first_server_rank() + s)
                 .c_str());
  }
}

void IoServer::load_ack_journal() {
  const std::string path = ack_journal_path(shared_.scratch_dir, my_rank_);
  journal_fd_ = retry_eintr([&] {
    return ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  });
  if (journal_fd_ < 0) {
    throw RuntimeError("cannot open server ack journal " + path + ": " +
                       std::strerror(errno));
  }
  // Replay: every journaled (src, seq) is a prepare that is durably on
  // disk AND was acked (or was about to be). Marking it applied punches
  // the matching hole into the per-peer sequencer so the stream does not
  // stall waiting for a seq that will only ever arrive as a retransmit —
  // which must be re-acked, not re-applied.
  std::uint64_t pair[2];
  off_t offset = 0;
  for (;;) {
    const ssize_t got =
        pread_full(journal_fd_, pair, sizeof(pair), offset);
    if (got < static_cast<ssize_t>(sizeof(pair))) break;
    offset += got;
    const int src = static_cast<int>(pair[0]);
    acked_.insert({src, pair[1]});
    sequencer_.mark_applied(src, pair[1]);
  }
}

void IoServer::dispatch_data(msg::Message& message) {
  switch (message.tag) {
    case msg::kServedPrepare:
      handle_prepare(message, /*accumulate=*/false);
      break;
    case msg::kServedPrepareAcc:
      handle_prepare(message, /*accumulate=*/true);
      break;
    case msg::kServedRequest:
      handle_request(message);
      break;
    default:
      throw InternalError("sequencer released unexpected tag " +
                          std::to_string(message.tag));
  }
}

void IoServer::admit_prepare(msg::Message& message) {
  const int src = message.src;
  const std::uint64_t seq = message.seq;
  msg::PeerSequencer::Admit admitted =
      sequencer_.admit_ordered(std::move(message));
  if (admitted.duplicate) {
    // Retransmit. If the original is already durable (journaled), its ack
    // was lost in flight — re-ack so the worker stops retrying. If it is
    // still pending (in the cache or the write queue), stay silent: the
    // durability ack will go out when it retires.
    bool durable;
    {
      std::lock_guard<std::mutex> lock(acked_mutex_);
      durable = acked_.count({src, seq}) != 0;
    }
    if (durable) send_ack(src, seq);
    return;
  }
  for (msg::Message& released : admitted.deliver) dispatch_data(released);
}

void IoServer::crash_abandon() {
  // The rank "died": drop all dirty state without letting it reach disk,
  // so the durable files the respawned incarnation rebuilds from reflect
  // the moment of death, not a tidy shutdown. Write batches already on
  // the lanes land first, whole; their acks are journaled but the sends
  // are swallowed by the fabric.
  write_behind_.abandon();
  for (auto& [array_id, store] : stores_) store->abandon();
}

IoServer::Stats IoServer::stats() const {
  Stats merged = stats_;
  merged.disk_writes = write_behind_.writes();
  merged.write_batches = write_behind_.batches();
  merged.dup_msgs_dropped += sequencer_.duplicates_dropped();
  for (const auto& [array_id, store] : stores_) {
    merged.map_flushes += store->map_flushes();
  }
  return merged;
}

std::map<int, std::int64_t> IoServer::data_blocks() const {
  std::map<int, std::int64_t> census;
  for (const auto& [array_id, store] : stores_) {
    census[array_id] = store->present_count() - store->screened_count();
  }
  return census;
}

void IoServer::run() {
  try {
    while (true) {
      if (shared_.fabric->killed(my_rank_)) {
        // Simulated crash (chaos fabric): die without flushing. The
        // master's watchdog notices the missing heartbeats and respawns
        // this rank from its durable files.
        crash_abandon();
        return;
      }
      shared_.check_abort();
      drain_completions();
      auto message = shared_.fabric->recv_for(my_rank_, 50);
      if (!message.has_value()) continue;
      switch (message->tag) {
        case msg::kServedPrepare:
        case msg::kServedPrepareAcc:
          if (ft_ && message->seq != 0) {
            admit_prepare(*message);
          } else {
            handle_prepare(*message,
                           message->tag == msg::kServedPrepareAcc);
          }
          break;
        case msg::kServedRequest:
          if (ft_ && message->seq != 0) {
            // Requests are idempotent but may depend on an ordered
            // prepare still in flight (msg.ack): hold them until the
            // dependency is applied, then service.
            msg::PeerSequencer::Admit admitted =
                sequencer_.admit_after(std::move(*message));
            for (msg::Message& released : admitted.deliver) {
              dispatch_data(released);
            }
          } else {
            handle_request(*message);
          }
          break;
        case msg::kServerBarrierEnter:
          handle_barrier(*message);
          break;
        case msg::kServedDelete:
          handle_delete(*message);
          break;
        case msg::kServerFlushHint:
          // A worker is parked on unacked prepares (e.g. at a barrier):
          // force the dirty blocks to disk so their durability acks go
          // out now instead of at the next LRU eviction.
          flush();
          break;
        case msg::kHeartbeatPing: {
          msg::Message pong;
          pong.tag = msg::kHeartbeatAck;
          pong.header = {message->header.empty() ? 0 : message->header[0],
                         my_rank_};
          shared_.fabric->send(my_rank_, shared_.master_rank(),
                               std::move(pong));
          break;
        }
        case msg::kShutdown:
          flush();
          return;
        case msg::kAbort:
          // Another rank's fatal error relayed by the master (the only
          // way the news reaches a spawned server process). Do not
          // flush: mirror the thread-mode abort path, where stop() cuts
          // the run short with write-behind state in flight.
          shared_.raise_abort(abort_text(*message));
          break;  // check_abort exits via Aborted next iteration
        default:
          throw InternalError("I/O server received unexpected tag " +
                              std::to_string(message->tag));
      }
    }
  } catch (const Aborted&) {
    // Another rank failed; exit quietly.
  } catch (const std::exception& error) {
    shared_.raise_abort(error.what());
  }
}

}  // namespace sia::sip
