#include "sip/served_array.hpp"

#include <algorithm>

#include "blas/elementwise.hpp"
#include "msg/tags.hpp"

namespace sia::sip {

namespace {
constexpr std::size_t kCoalesceFlushThreshold = 128;
}  // namespace

ServedArrayClient::ServedArrayClient(SipShared& shared, int my_rank,
                                     BlockPool& pool,
                                     std::size_t cache_capacity_doubles)
    : shared_(shared), my_rank_(my_rank), pool_(pool),
      cache_(cache_capacity_doubles) {}

BlockShape ServedArrayClient::shape_of(const BlockId& id) const {
  const sial::ResolvedArray& array = shared_.program->array(id.array_id);
  return shared_.program->grid_block_shape(
      array, {id.segments.data(), static_cast<std::size_t>(id.rank)});
}

std::int64_t ServedArrayClient::linear_of(const BlockId& id) const {
  const sial::ResolvedArray& array = shared_.program->array(id.array_id);
  return id.linearize(array.num_segments);
}

bool ServedArrayClient::screenable(int array_id) const {
  return shared_.config.sparse_threshold > 0.0 &&
         shared_.program->array(array_id).sparse;
}

double ServedArrayClient::threshold() const {
  return shared_.config.sparse_threshold;
}

BlockPtr ServedArrayClient::make_exclusive(BlockPtr data) {
  if (data.use_count() == 1) return data;
  auto copy = std::make_shared<Block>(data->shape(),
                                      pool_.allocate(data->size()));
  blas::copy(data->data(), copy->data());
  return copy;
}

void ServedArrayClient::issue_request(const BlockId& id) {
  // A shadowed prepare+= must reach the server before the request so the
  // reply reflects it (same src-dst FIFO preserves the order).
  if (coalesce_.count(id) > 0) flush_coalesced_block(id);
  if (cache_.contains(id)) return;
  auto it = pending_.find(id);
  if (it != pending_.end() && it->second.demand_inflight) return;
  ++stats_.requests_issued;
  if (it == pending_.end()) {
    Pending entry;
    entry.epoch = epoch_;
    entry.demand_inflight = true;
    pending_.emplace(id, entry);
  } else {
    // Only a look-ahead is in flight: send the demand request anyway. It
    // coalesces onto the server's in-flight read and promotes the queued
    // read-ahead job, so this worker is not stuck behind every other
    // demand read; whichever reply lands first is adopted.
    ++stats_.lookahead_promoted;
    it->second.demand_inflight = true;
  }
  msg::Message request;
  request.tag = msg::kServedRequest;
  request.header = {id.array_id, linear_of(id), my_rank_};
  const int server = shared_.server_rank(id);
  if (channel_ != nullptr) {
    channel_->send_request(server, std::move(request));
  } else {
    shared_.fabric->send(my_rank_, server, std::move(request));
  }
}

void ServedArrayClient::issue_lookahead(const BlockId& id) {
  // Unlike a demand request, a speculative one must not force the shadow
  // prepare+= out early — write-combining wins outrank read-ahead. The
  // demand request that may follow flushes it first, keeping FIFO order.
  if (coalesce_.count(id) > 0) return;
  if (cache_.contains(id) || pending_.count(id) > 0) return;
  ++stats_.lookahead_issued;
  Pending entry;
  entry.epoch = epoch_;
  entry.lookahead_inflight = true;
  pending_.emplace(id, entry);
  msg::Message request;
  request.tag = msg::kServedRequest;
  request.header = {id.array_id, linear_of(id), my_rank_, /*lookahead=*/1};
  const int server = shared_.server_rank(id);
  if (channel_ != nullptr) {
    channel_->send_request(server, std::move(request));
  } else {
    shared_.fabric->send(my_rank_, server, std::move(request));
  }
}

BlockPtr ServedArrayClient::try_read(const BlockId& id) {
  BlockPtr block = cache_.get(id);
  if (block) ++stats_.requests_cached;
  return block;
}

bool ServedArrayClient::pending(const BlockId& id) const {
  return pending_.count(id) > 0;
}

void ServedArrayClient::send_prepare_message(const BlockId& id,
                                             BlockPtr exclusive_data,
                                             bool accumulate) {
  ++stats_.prepares;
  // Our cached copy and any speculative reply still in flight pre-date
  // this prepare: drop the one and mark the other stale, so a later
  // demand read of the same block in this epoch cannot return data that
  // misses the write (the demand request re-fetches post-prepare state;
  // client->server FIFO guarantees the server sees the prepare first).
  cache_.erase(id);
  auto it = pending_.find(id);
  if (it != pending_.end() && it->second.lookahead_inflight) {
    it->second.lookahead_stale = true;
  }
  msg::Message message;
  message.tag = accumulate ? msg::kServedPrepareAcc : msg::kServedPrepare;
  message.header = {id.array_id, linear_of(id), my_rank_};
  message.block = std::move(exclusive_data);
  const int server = shared_.server_rank(id);
  if (channel_ != nullptr) {
    // Tracked ordered send: retransmitted until the server acks that the
    // block is durably on disk, exactly-once applied via the server's
    // per-peer sequencer.
    channel_->send_ordered(server, std::move(message));
  } else {
    shared_.fabric->send(my_rank_, server, std::move(message));
  }
}

void ServedArrayClient::send_screened_prepare(const BlockId& id,
                                              double norm) {
  ++stats_.prepares;
  // Same pre-write invalidation as a full prepare: the cached copy and
  // any speculative reply in flight pre-date this write.
  cache_.erase(id);
  auto it = pending_.find(id);
  if (it != pending_.end() && it->second.lookahead_inflight) {
    it->second.lookahead_stale = true;
  }
  msg::Message message;
  message.tag = msg::kServedPrepare;
  message.header = {id.array_id, linear_of(id), my_rank_, /*screened=*/1};
  message.data = {norm};
  const int server = shared_.server_rank(id);
  if (channel_ != nullptr) {
    channel_->send_ordered(server, std::move(message));
  } else {
    shared_.fabric->send(my_rank_, server, std::move(message));
  }
}

void ServedArrayClient::prepare(const BlockId& id, BlockPtr data,
                                bool accumulate) {
  SIA_CHECK(data != nullptr, "ServedArrayClient::prepare: null block");
  if (screenable(id.array_id) && data->norm() < threshold()) {
    // Below-threshold payload never moves: an accumulate contribution is
    // dropped at the sender, a replace becomes a tiny presence-map
    // marker on the server.
    const double norm = data->norm();
    ++stats_.prepares_screened;
    shared_.fabric->record_screened(
        my_rank_, static_cast<std::int64_t>(data->size()));
    if (accumulate) return;
    if (coalesce_.count(id) > 0) flush_coalesced_block(id);
    send_screened_prepare(id, norm);
    return;
  }
  if (!accumulate) {
    if (coalesce_.count(id) > 0) flush_coalesced_block(id);
    send_prepare_message(id, make_exclusive(std::move(data)), false);
    return;
  }
  auto it = coalesce_.find(id);
  if (it != coalesce_.end()) {
    blas::axpy(1.0, data->data(), it->second->data());
    ++stats_.prepares_coalesced;
    return;
  }
  coalesce_.emplace(id, make_exclusive(std::move(data)));
  if (coalesce_.size() >= kCoalesceFlushThreshold) flush_coalesced();
}

void ServedArrayClient::flush_coalesced_block(const BlockId& id) {
  auto it = coalesce_.find(id);
  if (it == coalesce_.end()) return;
  // `id` may alias the key of the node being erased (flush_coalesced
  // passes begin()->first), so copy it before the erase.
  const BlockId key = it->first;
  BlockPtr payload = std::move(it->second);
  coalesce_.erase(it);
  ++stats_.coalesce_flushes;
  send_prepare_message(key, std::move(payload), true);
}

void ServedArrayClient::flush_coalesced() {
  while (!coalesce_.empty()) {
    flush_coalesced_block(coalesce_.begin()->first);
  }
}

void ServedArrayClient::advance_epoch() {
  SIA_CHECK(coalesce_.empty(),
            "advance_epoch with unflushed coalesced prepares (interpreter "
            "must flush before entering the barrier)");
  ++epoch_;
  cache_.clear();
  pending_.clear();
}

void ServedArrayClient::handle_reply(msg::Message& message) {
  const int array_id = static_cast<int>(message.header[0]);
  const sial::ResolvedArray& array = shared_.program->array(array_id);
  const BlockId id =
      BlockId::from_linear(array_id, message.header[1], array.num_segments);
  const bool miss = message.header.size() > 2 && message.header[2] != 0;
  const bool lookahead =
      message.header.size() > 3 && message.header[3] != 0;
  auto it = pending_.find(id);
  if (it == pending_.end() || it->second.epoch != epoch_) {
    // Stray reply: from a previous epoch, or the second of a promoted
    // look-ahead/demand pair after the first one was already adopted.
    ++stats_.replies_dropped;
    if (it != pending_.end()) pending_.erase(it);
    return;
  }
  Pending& entry = it->second;
  const bool screened =
      message.header.size() > 4 && message.header[4] != 0;
  if (lookahead) {
    entry.lookahead_inflight = false;
    if (entry.lookahead_stale) {
      // The speculative fetch pre-dates one of our own prepares; its
      // payload misses that write. Discard it — the demand request
      // issued after the prepare re-fetches the post-prepare state.
      entry.lookahead_stale = false;
      ++stats_.replies_dropped;
      if (!entry.demand_inflight) pending_.erase(it);
      return;
    }
    if (miss && !screened) {
      // Look-ahead miss: the block does not exist on the server (yet).
      // Forget the speculative request; a demand request re-asks and
      // fails the run only if the program really reads an absent block.
      ++stats_.lookahead_misses;
      if (!entry.demand_inflight) pending_.erase(it);
      return;
    }
  }
  if (miss && screened) {
    // Screened block: adopt the canonical zero block. This satisfies a
    // demand read outright and suppresses any future fetch (demand or
    // look-ahead) of the block this epoch via the cache.
    ++stats_.zero_reads;
    cache_.put(id, zero_block(shape_of(id)));
    pending_.erase(it);
    return;
  }
  SIA_CHECK(message.block != nullptr, "served reply without block payload");
  if (message.block->size() != shape_of(id).element_count()) {
    throw RuntimeError("served reply shape mismatch for " + id.to_string());
  }
  // Adopt the server's shared payload — no allocation, no unpack copy.
  // This resolves the whole fetch, even if a promoted demand request is
  // still in flight; its reply arrives as a stray and is dropped.
  cache_.put(id, std::move(message.block));
  pending_.erase(it);
}

}  // namespace sia::sip
