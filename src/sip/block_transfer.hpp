// Block-transfer rules shared by distributed and served arrays.
//
// Served arrays follow the distributed-array protocol with a different
// barrier (paper §IV-A, §V-B): `request`/`prepare` mirror `get`/`put`,
// and `server_barrier` mirrors `sip_barrier`. Each rule of that protocol
// is defined here once, for the home store (DistArrayManager), the served
// client (ServedArrayClient) and the I/O server (IoServer):
//   * send_block_message: tracked or plain delivery of a read or a write;
//   * WriteCombiner: the `put +=` / `prepare +=` shadow table;
//   * WriteLog: same-epoch write-conflict detection;
//   * apply_write: adopt-or-copy when a write lands on a stored block;
//   * make_reply / decode_reply: the one get and served reply layout.
// Block geometry (shape, linear id, screening) lives on
// sial::ResolvedProgram.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "block/block.hpp"
#include "block/block_id.hpp"
#include "block/block_pool.hpp"
#include "msg/fabric.hpp"
#include "msg/message.hpp"
#include "msg/reliable.hpp"

namespace sia::sip {

// Sends a block-protocol message from `src` to `dst`. With the reliable
// protocol on (`channel` non-null) a write goes out as a tracked ordered
// send, retransmitted until acked and applied exactly once by the
// receiver's sequencer, and a read as a tracked request whose reply is
// the ack. Without it, both are plain fabric sends.
enum class Delivery { kRead, kWrite };
void send_block_message(msg::Fabric& fabric, msg::ReliableChannel* channel,
                        int src, int dst, msg::Message message,
                        Delivery delivery);

// An exclusively owned version of `data`: `data` itself when the caller
// passes the last reference, else a copy in a fresh `pool` block.
BlockPtr make_exclusive(BlockPtr data, BlockPool& pool);

// Write-combining shadow table: repeated accumulates of one block merge
// into an exclusively owned copy here and leave as one write at the next
// flush point (a pardo iteration boundary, a barrier, a conflicting
// access of the block, or the table-size threshold).
class WriteCombiner {
 public:
  // Sends one flushed entry (its block id, its exclusive payload).
  using Sink = std::function<void(const BlockId& id, BlockPtr payload)>;

  WriteCombiner(BlockPool& pool, Sink sink)
      : pool_(pool), sink_(std::move(sink)) {}

  // Adds `data` into the entry of `id` (axpy) and returns true, or opens
  // an entry with an exclusive copy and returns false. Opening the entry
  // that fills the table flushes every entry.
  bool merge(const BlockId& id, BlockPtr data);
  bool contains(const BlockId& id) const { return table_.count(id) > 0; }
  // Sends the entry of `id`, if there is one.
  void flush(const BlockId& id);
  void flush_all();
  std::size_t size() const { return table_.size(); }
  // Drops the entries of a deleted array unsent.
  void erase_array(int array_id);
  // Barrier check: every entry must have been flushed before the epoch
  // advances. `writes` names them in the diagnostic ("puts").
  void check_flushed(const char* writes) const;

 private:
  BlockPool& pool_;
  Sink sink_;
  std::unordered_map<BlockId, BlockPtr, BlockIdHash> table_;
};

// How a write protocol names itself in conflict diagnostics.
struct WriteNames {
  const char* op;       // "put"
  const char* done;     // past tense: "put", "prepared"
  const char* barrier;  // the barrier a program is missing
};
inline constexpr WriteNames kPutNames{"put", "put",
                                      "an intervening sip_barrier"};
inline constexpr WriteNames kPrepareNames{"prepare", "prepared",
                                          "a server_barrier"};

// Per-block record of the last write, for the conflict rules (paper
// §IV-C: "the runtime system detects most improper uses of barriers").
class WriteLog {
 public:
  // Records a write of `id` by `writer` in `epoch`. Throws RuntimeError
  // if it conflicts with an earlier write in the same epoch: a replace
  // and an accumulate, or replaces by two workers.
  void record(const BlockId& id, std::int64_t epoch, int writer,
              bool accumulate, const std::string& array_name,
              const WriteNames& names);
  // True when a worker other than `reader` wrote `id` in `epoch`.
  bool written_by_other(const BlockId& id, std::int64_t epoch,
                        int reader) const;
  void erase_array(int array_id);

 private:
  struct WriteRecord {
    std::int64_t epoch = -1;
    int writer = -1;
    bool accumulate = false;
  };
  std::unordered_map<BlockId, WriteRecord, BlockIdHash> records_;
};

// The block to store once a write of `incoming` lands. A write to an
// empty slot, or a replace, adopts an exclusively owned payload as is.
// Any other write goes into the stored block, which `lookup` returns (or
// null for an empty slot; it is called only for such writes, so an
// adopted replace costs no lookup). The stored block is referenced by the
// caller's table and by the returned handle; a further reference means a
// zero-copy reply or a queued disk write may still read it, so it is
// copied first and never mutated in place (`cow_copies` counts these).
// Fresh blocks come from `pool`, or from the heap when it is null.
BlockPtr apply_write(BlockPtr incoming, bool accumulate,
                     const std::function<BlockPtr()>& lookup,
                     BlockPool* pool, std::int64_t& cow_copies);

// Get replies and served replies share one header layout:
// {array_id, linear, status, lookahead}. A found reply carries the block;
// a screened one answers for a below-threshold (or never-written) block
// of a sparse array, which the reader takes as the zero block.
enum class ReplyStatus : std::int64_t { kFound = 0, kMiss = 1, kScreened = 2 };
struct BlockReply {
  int array_id = -1;
  std::int64_t linear = 0;
  ReplyStatus status = ReplyStatus::kFound;
  bool lookahead = false;
};
// `ack` echoes the request's sequence number: under the reliable protocol
// the reply is the request's ack (0 when the protocol is off).
msg::Message make_reply(int tag, const BlockReply& reply, std::uint64_t ack,
                        BlockPtr block = nullptr);
BlockReply decode_reply(const msg::Message& message);

}  // namespace sia::sip
