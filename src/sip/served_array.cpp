#include "sip/served_array.hpp"

#include "msg/tags.hpp"

namespace sia::sip {

ServedArrayClient::ServedArrayClient(SipShared& shared, int my_rank,
                                     BlockPool& pool,
                                     std::size_t cache_capacity_doubles)
    : shared_(shared), my_rank_(my_rank), pool_(pool),
      cache_(cache_capacity_doubles),
      coalesce_(pool, [this](const BlockId& id, BlockPtr payload) {
        ++stats_.coalesce_flushes;
        send_prepare_message(id, std::move(payload), /*accumulate=*/true);
      }) {}

void ServedArrayClient::send_request(const BlockId& id, bool lookahead) {
  msg::Message request;
  request.tag = msg::kServedRequest;
  request.header = {id.array_id, shared_.program->linear_of(id), my_rank_};
  if (lookahead) request.header.push_back(1);
  send_block_message(*shared_.fabric, channel_, my_rank_,
                     shared_.server_rank(id), std::move(request),
                     Delivery::kRead);
}

void ServedArrayClient::issue_request(const BlockId& id) {
  // A shadowed prepare+= must reach the server before the request so the
  // reply reflects it (same src-dst FIFO preserves the order).
  coalesce_.flush(id);
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
  send_request(id, /*lookahead=*/false);
}

void ServedArrayClient::issue_lookahead(const BlockId& id) {
  // Unlike a demand request, a speculative one must not force the shadow
  // prepare+= out early — write-combining wins outrank read-ahead. The
  // demand request that may follow flushes it first, keeping FIFO order.
  if (coalesce_.contains(id)) return;
  if (cache_.contains(id) || pending_.count(id) > 0) return;
  ++stats_.lookahead_issued;
  Pending entry;
  entry.epoch = epoch_;
  entry.lookahead_inflight = true;
  pending_.emplace(id, entry);
  send_request(id, /*lookahead=*/true);
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
                                             BlockPtr payload,
                                             bool accumulate, double norm) {
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
  message.header = {id.array_id, shared_.program->linear_of(id), my_rank_};
  if (payload) {
    message.block = std::move(payload);
  } else {
    message.header.push_back(/*screened=*/1);
    message.data = {norm};
  }
  // Under the reliable protocol the server acks a prepare once its block
  // is durably on disk, and applies it exactly once.
  send_block_message(*shared_.fabric, channel_, my_rank_,
                     shared_.server_rank(id), std::move(message),
                     Delivery::kWrite);
}

void ServedArrayClient::prepare(const BlockId& id, BlockPtr data,
                                bool accumulate) {
  SIA_CHECK(data != nullptr, "ServedArrayClient::prepare: null block");
  if (shared_.program->screenable(id.array_id) &&
      data->norm() < shared_.program->threshold()) {
    // Below-threshold payload never moves: an accumulate contribution is
    // dropped at the sender, a replace becomes a tiny presence-map
    // marker on the server.
    const double norm = data->norm();
    ++stats_.prepares_screened;
    shared_.fabric->record_screened(
        my_rank_, static_cast<std::int64_t>(data->size()));
    if (accumulate) return;
    coalesce_.flush(id);
    send_prepare_message(id, nullptr, /*accumulate=*/false, norm);
    return;
  }
  if (accumulate) {
    if (coalesce_.merge(id, std::move(data))) ++stats_.prepares_coalesced;
    return;
  }
  coalesce_.flush(id);
  send_prepare_message(id, make_exclusive(std::move(data), pool_),
                       /*accumulate=*/false);
}

void ServedArrayClient::flush_coalesced() { coalesce_.flush_all(); }

void ServedArrayClient::advance_epoch() {
  coalesce_.check_flushed("prepares");
  ++epoch_;
  cache_.clear();
  pending_.clear();
}

void ServedArrayClient::handle_reply(msg::Message& message) {
  const BlockReply reply = decode_reply(message);
  const BlockId id =
      shared_.program->id_from_linear(reply.array_id, reply.linear);
  auto it = pending_.find(id);
  if (it == pending_.end() || it->second.epoch != epoch_) {
    // Stray reply: from a previous epoch, or the second of a promoted
    // look-ahead/demand pair after the first one was already adopted.
    ++stats_.replies_dropped;
    if (it != pending_.end()) pending_.erase(it);
    return;
  }
  Pending& entry = it->second;
  if (reply.lookahead) {
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
    if (reply.status == ReplyStatus::kMiss) {
      // Look-ahead miss: the block does not exist on the server (yet).
      // Forget the speculative request; a demand request re-asks and
      // fails the run only if the program really reads an absent block.
      ++stats_.lookahead_misses;
      if (!entry.demand_inflight) pending_.erase(it);
      return;
    }
  }
  if (reply.status == ReplyStatus::kScreened) {
    // Screened block: adopt the canonical zero block. This satisfies a
    // demand read outright and suppresses any future fetch (demand or
    // look-ahead) of the block this epoch via the cache.
    ++stats_.zero_reads;
    cache_.put(id, zero_block(shared_.program->shape_of(id)));
    pending_.erase(it);
    return;
  }
  SIA_CHECK(message.block != nullptr, "served reply without block payload");
  if (message.block->size() !=
      shared_.program->shape_of(id).element_count()) {
    throw RuntimeError("served reply shape mismatch for " + id.to_string());
  }
  // Adopt the server's shared payload — no allocation, no unpack copy.
  // This resolves the whole fetch, even if a promoted demand request is
  // still in flight; its reply arrives as a stray and is dropped.
  cache_.put(id, std::move(message.block));
  pending_.erase(it);
}

}  // namespace sia::sip
