#include "sip/dist_array.hpp"

#include <algorithm>
#include <utility>

#include "blas/elementwise.hpp"
#include "msg/tags.hpp"

namespace sia::sip {

namespace {
// Shadow-table size at which coalesced puts are pushed out even without
// reaching a flush point, bounding worker-side buffering.
constexpr std::size_t kCoalesceFlushThreshold = 128;
}  // namespace

DistArrayManager::DistArrayManager(SipShared& shared, int my_rank,
                                   BlockPool& pool,
                                   std::size_t cache_capacity_doubles,
                                   bool coalesce_puts)
    : shared_(shared), my_rank_(my_rank), pool_(pool),
      cache_(cache_capacity_doubles), coalesce_enabled_(coalesce_puts) {}

BlockPtr DistArrayManager::make_block(const BlockShape& shape) {
  return std::make_shared<Block>(shape,
                                 pool_.allocate(shape.element_count()));
}

bool DistArrayManager::screenable(int array_id) const {
  return shared_.config.sparse_threshold > 0.0 &&
         shared_.program->array(array_id).sparse;
}

double DistArrayManager::threshold() const {
  return shared_.config.sparse_threshold;
}

BlockShape DistArrayManager::shape_of(const BlockId& id) const {
  const sial::ResolvedArray& array = shared_.program->array(id.array_id);
  return shared_.program->grid_block_shape(
      array, {id.segments.data(), static_cast<std::size_t>(id.rank)});
}

std::int64_t DistArrayManager::linear_of(const BlockId& id) const {
  const sial::ResolvedArray& array = shared_.program->array(id.array_id);
  return id.linearize(array.num_segments);
}

BlockId DistArrayManager::id_from_linear(int array_id,
                                         std::int64_t linear) const {
  const sial::ResolvedArray& array = shared_.program->array(array_id);
  return BlockId::from_linear(array_id, linear, array.num_segments);
}

void DistArrayManager::ensure_exclusive_home(BlockPtr& block) {
  if (block.use_count() <= 1) return;
  ++stats_.home_cow_copies;
  BlockPtr copy = make_block(block->shape());
  blas::copy(block->data(), copy->data());
  block = std::move(copy);
}

BlockPtr DistArrayManager::make_exclusive(BlockPtr data) {
  if (data.use_count() == 1) return data;
  BlockPtr copy = make_block(data->shape());
  blas::copy(data->data(), copy->data());
  return copy;
}

void DistArrayManager::issue_get(const BlockId& id, bool implicit) {
  const int owner = shared_.owner_rank(id);
  if (owner == my_rank_) {
    ++stats_.gets_local;
    return;
  }
  // Read-your-own-accumulate: a shadowed put+= for this block must reach
  // the home before the get request (same src-dst FIFO keeps the order).
  if (coalesce_.count(id) > 0) flush_coalesced_block(id);
  if (cache_.contains(id) || pending_.count(id) > 0) return;
  if (implicit) ++stats_.implicit_gets;
  ++stats_.gets_issued;
  misses_.erase(id);
  pending_.emplace(id, epoch_);
  msg::Message request;
  request.tag = msg::kBlockGetRequest;
  request.header = {id.array_id, linear_of(id), my_rank_, epoch_};
  if (channel_ != nullptr) {
    channel_->send_request(owner, std::move(request));
  } else {
    shared_.fabric->send(my_rank_, owner, std::move(request));
  }
}

BlockPtr DistArrayManager::try_read(const BlockId& id) {
  const int owner = shared_.owner_rank(id);
  if (owner == my_rank_) {
    auto it = home_.find(id);
    if (it == home_.end()) {
      // Sparse semantics: an absent block of a screenable array reads as
      // zero (it was either screened at put time or never received an
      // above-threshold contribution).
      if (screenable(id.array_id)) {
        ++stats_.zero_reads;
        return zero_block(shape_of(id));
      }
      throw RuntimeError(
          "get of distributed block " + id.to_string() + " of '" +
          shared_.program->array(id.array_id).name +
          "' that has never been put (missing put or sip_barrier?)");
    }
    ++stats_.gets_local;
    return it->second;
  }
  if (misses_.count(id) > 0) {
    throw RuntimeError(
        "get of distributed block " + id.to_string() + " of '" +
        shared_.program->array(id.array_id).name +
        "' that has never been put (missing put or sip_barrier?)");
  }
  BlockPtr block = cache_.get(id);
  if (block) ++stats_.gets_cached;
  return block;
}

bool DistArrayManager::pending(const BlockId& id) const {
  return pending_.count(id) > 0;
}

void DistArrayManager::check_write_conflict(const BlockId& id, int writer,
                                            bool accumulate) {
  WriteRecord& record = write_records_[id];
  if (record.epoch == epoch_) {
    if (record.accumulate != accumulate) {
      throw RuntimeError(
          "conflicting put and put+= on block " + id.to_string() + " of '" +
          shared_.program->array(id.array_id).name +
          "' without an intervening sip_barrier");
    }
    if (!accumulate && record.writer != writer) {
      throw RuntimeError(
          "two workers put block " + id.to_string() + " of '" +
          shared_.program->array(id.array_id).name +
          "' without an intervening sip_barrier");
    }
  }
  record.epoch = epoch_;
  record.writer = writer;
  record.accumulate = accumulate;
}

void DistArrayManager::send_put_message(const BlockId& id,
                                        BlockPtr exclusive_data,
                                        bool accumulate, int owner) {
  ++stats_.puts_remote;
  msg::Message message;
  message.tag = accumulate ? msg::kBlockPutAcc : msg::kBlockPut;
  message.header = {id.array_id, linear_of(id), my_rank_, epoch_,
                    /*screened=*/0};
  message.block = std::move(exclusive_data);
  if (channel_ != nullptr) {
    // Tracked ordered send: retransmitted until the home worker acks,
    // exactly-once applied via its per-peer sequencer (a duplicated or
    // retransmitted put+= must not accumulate twice).
    channel_->send_ordered(owner, std::move(message));
  } else {
    shared_.fabric->send(my_rank_, owner, std::move(message));
  }
}

void DistArrayManager::put(const BlockId& id, BlockPtr data,
                           bool accumulate) {
  SIA_CHECK(data != nullptr, "DistArrayManager::put: null block");
  const int owner = shared_.owner_rank(id);
  if (screenable(id.array_id) && data->norm() < threshold()) {
    // Below-threshold payload: never moves. An accumulate contribution is
    // dropped outright (error bounded by the threshold); a replace is
    // recorded in the owner's norm table so reads answer "screened".
    const double norm = data->norm();
    ++stats_.puts_screened;
    if (owner == my_rank_) {
      check_write_conflict(id, my_rank_, accumulate);
      if (!accumulate) {
        auto it = home_.find(id);
        if (it != home_.end()) {
          home_doubles_ -= it->second->size();
          home_.erase(it);
        }
        screened_norms_[id] = norm;
      }
      return;
    }
    shared_.fabric->record_screened(
        my_rank_, static_cast<std::int64_t>(data->size()));
    if (accumulate) return;
    // A replace conflicts with shadowed accumulates; push them out first
    // so the home-side conflict detector sees both writes.
    if (coalesce_.count(id) > 0) flush_coalesced_block(id);
    ++stats_.puts_remote;
    msg::Message message;
    message.tag = msg::kBlockPut;
    message.header = {id.array_id, linear_of(id), my_rank_, epoch_,
                      /*screened=*/1};
    message.data = {norm};
    if (channel_ != nullptr) {
      channel_->send_ordered(owner, std::move(message));
    } else {
      shared_.fabric->send(my_rank_, owner, std::move(message));
    }
    return;
  }
  if (owner == my_rank_) {
    ++stats_.puts_local;
    screened_norms_.erase(id);
    check_write_conflict(id, my_rank_, accumulate);
    if (data->size() != shape_of(id).element_count()) {
      throw RuntimeError("put: shape mismatch for block " + id.to_string());
    }
    auto it = home_.find(id);
    if (it == home_.end()) {
      // First write to this home block: adopt the payload outright when
      // we own it exclusively, else materialize a private copy.
      BlockPtr block = make_exclusive(std::move(data));
      home_doubles_ += block->size();
      home_.emplace(id, std::move(block));
      return;
    }
    if (it->second->size() != data->size()) {
      throw RuntimeError("put: shape mismatch for block " + id.to_string());
    }
    ensure_exclusive_home(it->second);
    if (accumulate) {
      blas::axpy(1.0, data->data(), it->second->data());
    } else {
      blas::copy(data->data(), it->second->data());
    }
    return;
  }

  if (!accumulate) {
    // A replace conflicts with shadowed accumulates; push them out first
    // so the home-side conflict detector sees both writes.
    if (coalesce_.count(id) > 0) flush_coalesced_block(id);
    send_put_message(id, make_exclusive(std::move(data)), false, owner);
    return;
  }

  if (!coalesce_enabled_) {
    send_put_message(id, make_exclusive(std::move(data)), true, owner);
    return;
  }

  auto it = coalesce_.find(id);
  if (it != coalesce_.end()) {
    blas::axpy(1.0, data->data(), it->second->data());
    ++stats_.puts_coalesced;
    return;
  }
  coalesce_.emplace(id, make_exclusive(std::move(data)));
  if (coalesce_.size() >= kCoalesceFlushThreshold) flush_coalesced();
}

void DistArrayManager::flush_coalesced_block(const BlockId& id) {
  auto it = coalesce_.find(id);
  if (it == coalesce_.end()) return;
  // `id` may alias the key of the node being erased (flush_coalesced
  // passes begin()->first), so copy it before the erase.
  const BlockId key = it->first;
  BlockPtr payload = std::move(it->second);
  coalesce_.erase(it);
  ++stats_.coalesce_flushes;
  send_put_message(key, std::move(payload), true, shared_.owner_rank(key));
}

void DistArrayManager::flush_coalesced() {
  while (!coalesce_.empty()) {
    flush_coalesced_block(coalesce_.begin()->first);
  }
}

void DistArrayManager::create_array(int array_id) {
  created_.insert(array_id);
}

void DistArrayManager::delete_array(int array_id) {
  for (auto it = home_.begin(); it != home_.end();) {
    if (it->first.array_id == array_id) {
      home_doubles_ -= it->second->size();
      it = home_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = write_records_.begin(); it != write_records_.end();) {
    if (it->first.array_id == array_id) {
      it = write_records_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = screened_norms_.begin(); it != screened_norms_.end();) {
    if (it->first.array_id == array_id) {
      it = screened_norms_.erase(it);
    } else {
      ++it;
    }
  }
  cache_.erase_array(array_id);
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->first.array_id == array_id) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = coalesce_.begin(); it != coalesce_.end();) {
    if (it->first.array_id == array_id) {
      it = coalesce_.erase(it);
    } else {
      ++it;
    }
  }
  created_.erase(array_id);
}

void DistArrayManager::advance_epoch() {
  SIA_CHECK(coalesce_.empty(),
            "advance_epoch with unflushed coalesced puts (interpreter must "
            "flush before entering the barrier)");
  ++epoch_;
  // Cached remote copies may be rewritten in the new epoch; drop them all.
  // In-flight requests keep their old epoch tag, so replies arriving after
  // the barrier are discarded in handle_get_reply.
  fields::fold(cache_stats_accum_, cache_.stats());
  cache_.clear();
  pending_.clear();
  misses_.clear();
  for (msg::Message& early : std::exchange(early_, {})) {
    if (early.tag == msg::kBlockGetRequest) {
      handle_get_request(early);
    } else {
      handle_put(early, early.tag == msg::kBlockPutAcc);
    }
  }
}

BlockCache::Stats DistArrayManager::cache_stats() const {
  BlockCache::Stats total = cache_stats_accum_;
  fields::fold(total, cache_.stats());
  return total;
}

void DistArrayManager::handle_get_request(const msg::Message& message) {
  const int array_id = static_cast<int>(message.header[0]);
  const std::int64_t linear = message.header[1];
  const int reply_rank = static_cast<int>(message.header[2]);
  const BlockId id = id_from_linear(array_id, linear);
  // The master releases a barrier one worker at a time, so a released
  // worker's get can overtake this owner's own release; answer it once
  // this owner is in the requester's epoch.
  if (message.header[3] > epoch_) {
    early_.push_back(message);
    return;
  }

  auto it = home_.find(id);
  if (it == home_.end()) {
    if (screenable(array_id)) {
      // Screened (or never-contributed) block of a sparse array: answer
      // with a tiny norm-only marker instead of a payload. The client
      // caches the canonical zero block, so the payload never moves.
      ++stats_.gets_screened;
      auto norm_it = screened_norms_.find(id);
      shared_.fabric->record_screened(
          my_rank_,
          static_cast<std::int64_t>(shape_of(id).element_count()));
      msg::Message reply;
      reply.tag = msg::kBlockGetReply;
      reply.header = {array_id, linear, /*found=*/0, /*screened=*/1};
      reply.data = {norm_it != screened_norms_.end() ? norm_it->second
                                                     : 0.0};
      reply.ack = message.seq;  // the reply is the request's ack
      shared_.fabric->send(my_rank_, reply_rank, std::move(reply));
      return;
    }
    // Not an error here: a look-ahead prefetch may run past what has been
    // put. The miss is reported back and only the *use* of the block
    // raises an error (try_read).
    msg::Message miss;
    miss.tag = msg::kBlockGetReply;
    miss.header = {array_id, linear, /*found=*/0};
    miss.ack = message.seq;  // the reply is the request's ack
    shared_.fabric->send(my_rank_, reply_rank, std::move(miss));
    return;
  }
  // Conflict: a get in the same epoch as a write by a different worker.
  auto rec = write_records_.find(id);
  if (rec != write_records_.end() && rec->second.epoch == epoch_ &&
      rec->second.writer != reply_rank) {
    throw RuntimeError(
        "get of block " + id.to_string() + " of '" +
        shared_.program->array(array_id).name +
        "' in the same epoch as a put by another worker (missing "
        "sip_barrier)");
  }

  // Zero-copy reply: share the home block itself. Home mutations go
  // through ensure_exclusive_home, so the reader's snapshot is stable.
  msg::Message reply;
  reply.tag = msg::kBlockGetReply;
  reply.header = {array_id, linear, /*found=*/1};
  reply.ack = message.seq;  // the reply is the request's ack
  reply.block = it->second;
  shared_.fabric->send(my_rank_, reply_rank, std::move(reply));
}

void DistArrayManager::handle_get_reply(msg::Message& message) {
  const int array_id = static_cast<int>(message.header[0]);
  const BlockId id = id_from_linear(array_id, message.header[1]);
  auto it = pending_.find(id);
  if (it == pending_.end() || it->second != epoch_) {
    // Stale reply from before a barrier (or after a delete): drop it.
    ++stats_.replies_dropped;
    if (it != pending_.end()) pending_.erase(it);
    return;
  }
  pending_.erase(it);
  if (message.header.size() > 2 && message.header[2] == 0) {
    if (message.header.size() > 3 && message.header[3] != 0) {
      // Screened marker: cache the canonical zero block so the demand
      // read is satisfied locally and no further get (demand or
      // look-ahead) is issued for this block this epoch.
      ++stats_.zero_reads;
      cache_.put(id, zero_block(shape_of(id)));
      return;
    }
    misses_.insert(id);
    return;
  }
  SIA_CHECK(message.block != nullptr, "get reply without block payload");
  if (message.block->size() != shape_of(id).element_count()) {
    throw RuntimeError("get reply shape mismatch for " + id.to_string());
  }
  // Adopt the shared payload directly — no allocation, no unpack copy.
  cache_.put(id, std::move(message.block));
}

void DistArrayManager::handle_put(msg::Message& message, bool accumulate) {
  const int array_id = static_cast<int>(message.header[0]);
  const BlockId id = id_from_linear(array_id, message.header[1]);
  const int writer = static_cast<int>(message.header[2]);
  // Like a get, a released worker's put can overtake this owner's own
  // release: apply it once this owner is in the sender's epoch.
  if (message.header.at(3) > epoch_) {
    early_.push_back(std::move(message));
    return;
  }
  check_write_conflict(id, writer, accumulate);

  if (message.header.at(4) != 0) {
    // Screened replace marker: the sender's payload was below the
    // threshold, so the block becomes a norm-table entry with no storage.
    auto it = home_.find(id);
    if (it != home_.end()) {
      home_doubles_ -= it->second->size();
      home_.erase(it);
    }
    screened_norms_[id] = message.data.empty() ? 0.0 : message.data[0];
    return;
  }
  screened_norms_.erase(id);

  BlockPtr incoming = std::move(message.block);
  const std::size_t incoming_size =
      incoming ? incoming->size() : message.data.size();
  const BlockShape shape = shape_of(id);
  if (incoming_size != shape.element_count()) {
    throw RuntimeError("put shape mismatch for block " + id.to_string());
  }

  auto it = home_.find(id);
  if (it == home_.end()) {
    // First write this epoch to a fresh home slot: adopt the payload
    // (for put+= the missing block is implicitly zero, so the payload is
    // already the correct value).
    BlockPtr block;
    if (incoming && incoming.use_count() == 1) {
      block = std::move(incoming);
    } else {
      block = make_block(shape);
      if (incoming) {
        blas::copy(incoming->data(), block->data());
      } else {
        std::copy(message.data.begin(), message.data.end(),
                  block->data().begin());
      }
    }
    home_doubles_ += block->size();
    home_.emplace(id, std::move(block));
    return;
  }

  ensure_exclusive_home(it->second);
  if (accumulate) {
    if (incoming) {
      blas::axpy(1.0, incoming->data(), it->second->data());
    } else {
      for (std::size_t i = 0; i < message.data.size(); ++i) {
        it->second->data()[i] += message.data[i];
      }
    }
  } else {
    if (incoming && incoming.use_count() == 1) {
      home_doubles_ -= it->second->size();
      it->second = std::move(incoming);
      home_doubles_ += it->second->size();
    } else if (incoming) {
      blas::copy(incoming->data(), it->second->data());
    } else {
      std::copy(message.data.begin(), message.data.end(),
                it->second->data().begin());
    }
  }
}

void DistArrayManager::handle_delete(const msg::Message& message) {
  delete_array(static_cast<int>(message.header[0]));
}

void DistArrayManager::store_home_block(const BlockId& id, BlockPtr block) {
  auto it = home_.find(id);
  if (it != home_.end()) {
    home_doubles_ -= it->second->size();
    it->second = std::move(block);
    home_doubles_ += it->second->size();
  } else {
    home_doubles_ += block->size();
    home_.emplace(id, std::move(block));
  }
}

}  // namespace sia::sip
