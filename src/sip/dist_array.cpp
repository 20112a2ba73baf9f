#include "sip/dist_array.hpp"

#include <utility>

#include "msg/tags.hpp"

namespace sia::sip {

DistArrayManager::DistArrayManager(SipShared& shared, int my_rank,
                                   BlockPool& pool,
                                   std::size_t cache_capacity_doubles)
    : shared_(shared), my_rank_(my_rank), pool_(pool),
      cache_(cache_capacity_doubles),
      coalesce_(pool, [this](const BlockId& id, BlockPtr payload) {
        ++stats_.coalesce_flushes;
        send_put_message(id, std::move(payload), /*accumulate=*/true);
      }) {}

void DistArrayManager::issue_get(const BlockId& id, bool implicit) {
  const int owner = shared_.owner_rank(id);
  if (owner == my_rank_) {
    ++stats_.gets_local;
    return;
  }
  // Read-your-own-accumulate: a shadowed put+= for this block must reach
  // the home before the get request (same src-dst FIFO keeps the order).
  coalesce_.flush(id);
  if (cache_.contains(id) || pending_.count(id) > 0) return;
  if (implicit) ++stats_.implicit_gets;
  ++stats_.gets_issued;
  misses_.erase(id);
  pending_.emplace(id, epoch_);
  msg::Message request;
  request.tag = msg::kBlockGetRequest;
  request.header = {id.array_id, shared_.program->linear_of(id), my_rank_,
                    epoch_};
  send_block_message(*shared_.fabric, channel_, my_rank_, owner,
                     std::move(request), Delivery::kRead);
}

BlockPtr DistArrayManager::try_read(const BlockId& id) {
  const int owner = shared_.owner_rank(id);
  if (owner == my_rank_) {
    auto it = home_.find(id);
    if (it == home_.end()) {
      // Sparse semantics: an absent block of a screenable array reads as
      // zero (it was either screened at put time or never received an
      // above-threshold contribution).
      if (shared_.program->screenable(id.array_id)) {
        ++stats_.zero_reads;
        return zero_block(shared_.program->shape_of(id));
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
  write_log_.record(id, epoch_, writer, accumulate,
                    shared_.program->array(id.array_id).name, kPutNames);
}

void DistArrayManager::write_home(const BlockId& id, BlockPtr incoming,
                                  bool accumulate, int writer,
                                  const char* mismatch) {
  check_write_conflict(id, writer, accumulate);
  screened_norms_.erase(id);
  if (incoming->size() != shared_.program->shape_of(id).element_count()) {
    throw RuntimeError(mismatch + id.to_string());
  }
  auto it = home_.find(id);
  store_home_block(
      id, apply_write(
              std::move(incoming), accumulate,
              [&] { return it == home_.end() ? BlockPtr() : it->second; },
              &pool_, stats_.home_cow_copies));
}

void DistArrayManager::screen_home_block(const BlockId& id, double norm) {
  auto it = home_.find(id);
  if (it != home_.end()) {
    home_doubles_ -= it->second->size();
    home_.erase(it);
  }
  screened_norms_[id] = norm;
}

void DistArrayManager::send_put_message(const BlockId& id, BlockPtr payload,
                                        bool accumulate, double norm) {
  ++stats_.puts_remote;
  msg::Message message;
  message.tag = accumulate ? msg::kBlockPutAcc : msg::kBlockPut;
  message.header = {id.array_id, shared_.program->linear_of(id), my_rank_,
                    epoch_, /*screened=*/payload ? 0 : 1};
  if (payload) {
    message.block = std::move(payload);
  } else {
    message.data = {norm};
  }
  // Under the reliable protocol a duplicated or retransmitted put+= must
  // not accumulate twice: tracked ordered sends are applied exactly once.
  send_block_message(*shared_.fabric, channel_, my_rank_,
                     shared_.owner_rank(id), std::move(message),
                     Delivery::kWrite);
}

void DistArrayManager::put(const BlockId& id, BlockPtr data,
                           bool accumulate) {
  SIA_CHECK(data != nullptr, "DistArrayManager::put: null block");
  const int owner = shared_.owner_rank(id);
  if (shared_.program->screenable(id.array_id) &&
      data->norm() < shared_.program->threshold()) {
    // Below-threshold payload: never moves. An accumulate contribution is
    // dropped outright (error bounded by the threshold); a replace is
    // recorded in the owner's norm table so reads answer "screened".
    const double norm = data->norm();
    ++stats_.puts_screened;
    if (owner == my_rank_) {
      check_write_conflict(id, my_rank_, accumulate);
      if (!accumulate) screen_home_block(id, norm);
      return;
    }
    shared_.fabric->record_screened(
        my_rank_, static_cast<std::int64_t>(data->size()));
    if (accumulate) return;
    // A replace conflicts with shadowed accumulates; push them out first
    // so the home-side conflict detector sees both writes.
    coalesce_.flush(id);
    send_put_message(id, nullptr, /*accumulate=*/false, norm);
    return;
  }
  if (owner == my_rank_) {
    ++stats_.puts_local;
    write_home(id, std::move(data), accumulate, my_rank_,
               "put: shape mismatch for block ");
    return;
  }
  if (accumulate) {
    if (coalesce_.merge(id, std::move(data))) ++stats_.puts_coalesced;
    return;
  }
  coalesce_.flush(id);
  send_put_message(id, make_exclusive(std::move(data), pool_),
                   /*accumulate=*/false);
}

void DistArrayManager::flush_coalesced() { coalesce_.flush_all(); }

void DistArrayManager::delete_array(int array_id) {
  const auto in_array = [&](const auto& entry) {
    return entry.first.array_id == array_id;
  };
  for (auto it = home_.begin(); it != home_.end();) {
    if (in_array(*it)) {
      home_doubles_ -= it->second->size();
      it = home_.erase(it);
    } else {
      ++it;
    }
  }
  write_log_.erase_array(array_id);
  std::erase_if(screened_norms_, in_array);
  cache_.erase_array(array_id);
  std::erase_if(pending_, in_array);
  coalesce_.erase_array(array_id);
}

void DistArrayManager::advance_epoch() {
  coalesce_.check_flushed("puts");
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
  const BlockId id = shared_.program->id_from_linear(array_id, linear);
  // The master releases a barrier one worker at a time, so a released
  // worker's get can overtake this owner's own release; answer it once
  // this owner is in the requester's epoch.
  if (message.header[3] > epoch_) {
    early_.push_back(message);
    return;
  }
  BlockReply reply{array_id, linear};
  auto it = home_.find(id);
  if (it == home_.end()) {
    if (shared_.program->screenable(array_id)) {
      // Screened (or never-contributed) block of a sparse array: answer
      // with a tiny norm-only marker instead of a payload. The client
      // caches the canonical zero block, so the payload never moves.
      ++stats_.gets_screened;
      auto norm_it = screened_norms_.find(id);
      shared_.fabric->record_screened(
          my_rank_, static_cast<std::int64_t>(
                        shared_.program->shape_of(id).element_count()));
      reply.status = ReplyStatus::kScreened;
      msg::Message marker =
          make_reply(msg::kBlockGetReply, reply, message.seq);
      marker.data = {norm_it != screened_norms_.end() ? norm_it->second
                                                      : 0.0};
      shared_.fabric->send(my_rank_, reply_rank, std::move(marker));
      return;
    }
    // Not an error here: a look-ahead prefetch may run past what has been
    // put. The miss is reported back and only the *use* of the block
    // raises an error (try_read).
    reply.status = ReplyStatus::kMiss;
    shared_.fabric->send(my_rank_, reply_rank,
                         make_reply(msg::kBlockGetReply, reply, message.seq));
    return;
  }
  // Conflict: a get in the same epoch as a write by a different worker.
  if (write_log_.written_by_other(id, epoch_, reply_rank)) {
    throw RuntimeError(
        "get of block " + id.to_string() + " of '" +
        shared_.program->array(array_id).name +
        "' in the same epoch as a put by another worker (missing "
        "sip_barrier)");
  }
  // Zero-copy reply: share the home block itself. Home writes go through
  // apply_write, so the reader's snapshot is stable.
  shared_.fabric->send(
      my_rank_, reply_rank,
      make_reply(msg::kBlockGetReply, reply, message.seq, it->second));
}

void DistArrayManager::handle_get_reply(msg::Message& message) {
  const BlockReply reply = decode_reply(message);
  const BlockId id =
      shared_.program->id_from_linear(reply.array_id, reply.linear);
  auto it = pending_.find(id);
  if (it == pending_.end() || it->second != epoch_) {
    // Stale reply from before a barrier (or after a delete): drop it.
    ++stats_.replies_dropped;
    if (it != pending_.end()) pending_.erase(it);
    return;
  }
  pending_.erase(it);
  if (reply.status == ReplyStatus::kScreened) {
    // Screened marker: cache the canonical zero block so the demand read
    // is satisfied locally and no further get (demand or look-ahead) is
    // issued for this block this epoch.
    ++stats_.zero_reads;
    cache_.put(id, zero_block(shared_.program->shape_of(id)));
    return;
  }
  if (reply.status == ReplyStatus::kMiss) {
    misses_.insert(id);
    return;
  }
  SIA_CHECK(message.block != nullptr, "get reply without block payload");
  if (message.block->size() !=
      shared_.program->shape_of(id).element_count()) {
    throw RuntimeError("get reply shape mismatch for " + id.to_string());
  }
  // Adopt the shared payload directly — no allocation, no unpack copy.
  cache_.put(id, std::move(message.block));
}

void DistArrayManager::handle_put(msg::Message& message, bool accumulate) {
  const BlockId id = shared_.program->id_from_linear(
      static_cast<int>(message.header[0]), message.header[1]);
  const int writer = static_cast<int>(message.header[2]);
  // Like a get, a released worker's put can overtake this owner's own
  // release: apply it once this owner is in the sender's epoch.
  if (message.header.at(3) > epoch_) {
    early_.push_back(std::move(message));
    return;
  }
  if (message.header.at(4) != 0) {
    // Screened replace marker: the sender's payload was below the
    // threshold, so the block becomes a norm-table entry with no storage.
    check_write_conflict(id, writer, accumulate);
    screen_home_block(id, message.data.empty() ? 0.0 : message.data[0]);
    return;
  }
  SIA_CHECK(message.block != nullptr, "put without block payload");
  write_home(id, std::move(message.block), accumulate, writer,
             "put shape mismatch for block ");
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
