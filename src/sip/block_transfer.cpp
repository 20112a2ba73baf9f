#include "sip/block_transfer.hpp"

#include "blas/elementwise.hpp"
#include "common/error.hpp"

namespace sia::sip {

namespace {
// Shadow-table size at which coalesced writes are pushed out even without
// reaching a flush point, bounding worker-side buffering.
constexpr std::size_t kCoalesceFlushThreshold = 128;

BlockPtr copy_block(const Block& source, BlockPool* pool) {
  BlockPtr copy =
      pool != nullptr
          ? std::make_shared<Block>(source.shape(),
                                    pool->allocate(source.size()))
          : std::make_shared<Block>(source.shape());
  blas::copy(source.data(), copy->data());
  return copy;
}
}  // namespace

void send_block_message(msg::Fabric& fabric, msg::ReliableChannel* channel,
                        int src, int dst, msg::Message message,
                        Delivery delivery) {
  if (channel == nullptr) {
    fabric.send(src, dst, std::move(message));
  } else if (delivery == Delivery::kWrite) {
    channel->send_ordered(dst, std::move(message));
  } else {
    channel->send_request(dst, std::move(message));
  }
}

BlockPtr make_exclusive(BlockPtr data, BlockPool& pool) {
  if (data.use_count() == 1) return data;
  return copy_block(*data, &pool);
}

bool WriteCombiner::merge(const BlockId& id, BlockPtr data) {
  auto it = table_.find(id);
  if (it != table_.end()) {
    blas::axpy(1.0, data->data(), it->second->data());
    return true;
  }
  table_.emplace(id, make_exclusive(std::move(data), pool_));
  if (table_.size() >= kCoalesceFlushThreshold) flush_all();
  return false;
}

void WriteCombiner::flush(const BlockId& id) {
  auto it = table_.find(id);
  if (it == table_.end()) return;
  // `id` may alias the key of the node being erased (flush_all passes
  // begin()->first), so copy it before the erase.
  const BlockId key = it->first;
  BlockPtr payload = std::move(it->second);
  table_.erase(it);
  sink_(key, std::move(payload));
}

void WriteCombiner::flush_all() {
  while (!table_.empty()) flush(table_.begin()->first);
}

void WriteCombiner::erase_array(int array_id) {
  std::erase_if(table_, [&](const auto& entry) {
    return entry.first.array_id == array_id;
  });
}

void WriteCombiner::check_flushed(const char* writes) const {
  SIA_CHECK(table_.empty(),
            std::string("advance_epoch with unflushed coalesced ") + writes +
                " (interpreter must flush before entering the barrier)");
}

void WriteLog::record(const BlockId& id, std::int64_t epoch, int writer,
                      bool accumulate, const std::string& array_name,
                      const WriteNames& names) {
  WriteRecord& record = records_[id];
  if (record.epoch == epoch) {
    const std::string block =
        " block " + id.to_string() + " of '" + array_name + "' without " +
        names.barrier;
    if (record.accumulate != accumulate) {
      throw RuntimeError(std::string("conflicting ") + names.op + " and " +
                         names.op + "+= on" + block);
    }
    if (!accumulate && record.writer != writer) {
      throw RuntimeError(std::string("two workers ") + names.done + block);
    }
  }
  record.epoch = epoch;
  record.writer = writer;
  record.accumulate = accumulate;
}

bool WriteLog::written_by_other(const BlockId& id, std::int64_t epoch,
                                int reader) const {
  auto it = records_.find(id);
  return it != records_.end() && it->second.epoch == epoch &&
         it->second.writer != reader;
}

void WriteLog::erase_array(int array_id) {
  std::erase_if(records_, [&](const auto& entry) {
    return entry.first.array_id == array_id;
  });
}

BlockPtr apply_write(BlockPtr incoming, bool accumulate,
                     const std::function<BlockPtr()>& lookup,
                     BlockPool* pool, std::int64_t& cow_copies) {
  const bool exclusive = incoming.use_count() == 1;
  if (exclusive && !accumulate) return incoming;
  BlockPtr stored = lookup();
  if (!stored) {
    // An absent block reads as zero, so an accumulate stores the payload.
    return exclusive ? incoming : copy_block(*incoming, pool);
  }
  if (stored.use_count() > 2) {
    ++cow_copies;
    stored = copy_block(*stored, pool);
  }
  if (accumulate) {
    blas::axpy(1.0, incoming->data(), stored->data());
  } else {
    blas::copy(incoming->data(), stored->data());
  }
  return stored;
}

msg::Message make_reply(int tag, const BlockReply& reply, std::uint64_t ack,
                        BlockPtr block) {
  msg::Message message;
  message.tag = tag;
  message.header = {reply.array_id, reply.linear,
                    static_cast<std::int64_t>(reply.status),
                    reply.lookahead ? 1 : 0};
  message.ack = ack;
  message.block = std::move(block);
  return message;
}

BlockReply decode_reply(const msg::Message& message) {
  SIA_CHECK(message.header.size() == 4, "malformed block reply header");
  return BlockReply{static_cast<int>(message.header[0]), message.header[1],
                    static_cast<ReplyStatus>(message.header[2]),
                    message.header[3] != 0};
}

}  // namespace sia::sip
