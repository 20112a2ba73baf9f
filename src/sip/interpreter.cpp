#include "sip/interpreter.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "blas/elementwise.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "msg/tags.hpp"
#include "sip/checkpoint.hpp"
#include "sip/prefetch.hpp"
#include "sip/spawn.hpp"

namespace sia::sip {

using sial::ArrayKind;
using sial::BlockOperand;
using sial::BlockSelector;
using sial::Instruction;
using sial::Opcode;

namespace {

// AssignStmt::Op values as compiled into a0.
enum Mode { kModeAssign = 0, kModeAcc = 1, kModeSub = 2, kModeScale = 3 };

}  // namespace

Interpreter::Interpreter(SipShared& shared, int worker_index)
    : shared_(shared), worker_index_(worker_index),
      my_rank_(shared.worker_rank(worker_index)),
      program_(*shared.program), profiler_(shared.config.profiling) {
  pool_ = std::make_unique<BlockPool>(shared_.pool_plan,
                                      /*allow_heap_fallback=*/true);
  data_ = std::make_unique<DataManager>(program_, *pool_);
  const std::size_t cache_doubles = std::max<std::size_t>(
      shared_.config.worker_memory_bytes / sizeof(double) / 4, 4096);
  dist_ = std::make_unique<DistArrayManager>(shared_, my_rank_, *pool_,
                                             cache_doubles,
                                             shared_.config.coalesce_puts);
  served_ = std::make_unique<ServedArrayClient>(shared_, my_rank_, *pool_,
                                                cache_doubles,
                                                shared_.config.coalesce_puts);
  if (shared_.config.fault_tolerance_enabled()) {
    channel_ = std::make_unique<msg::ReliableChannel>(
        shared_.fabric, my_rank_, shared_.config.retry_timeout_ms,
        shared_.config.retry_max);
    dist_->set_channel(channel_.get());
    served_->set_channel(channel_.get());
  }

  // Resolve super instruction names once.
  const auto& names = program_.code().superinstructions;
  superinstructions_.reserve(names.size());
  for (const std::string& name : names) {
    const SuperInstructionFn* fn =
        SuperInstructionRegistry::global().lookup(name);
    superinstructions_.push_back(fn);  // missing ones error on first use
  }
}

// ---------------------------------------------------------------------
// Messaging.

void Interpreter::dispatch_admitted(msg::Message& message) {
  switch (message.tag) {
    case msg::kBlockPut:
    case msg::kBlockPutAcc: {
      // Apply, then ack with the applied seq. Home blocks are in-memory
      // state that dies with the run, so unlike a served prepare there is
      // no durability to wait for: applied == safe to ack.
      const int src = message.src;
      const std::uint64_t seq = message.seq;
      dist_->handle_put(message, message.tag == msg::kBlockPutAcc);
      msg::Message ack;
      ack.tag = msg::kProtoAck;
      ack.ack = seq;
      shared_.fabric->send(my_rank_, src, std::move(ack));
      break;
    }
    case msg::kBlockGetRequest:
      dist_->handle_get_request(message);
      break;
    default:
      throw InternalError("sequencer released unexpected tag " +
                          std::to_string(message.tag));
  }
}

void Interpreter::handle_message(msg::Message& message) {
  // Replies double as acks for their tracked request under the reliable
  // protocol; clear the retransmit entry before normal dispatch (even a
  // reply the handler then drops as stale still acknowledges delivery).
  if (channel_ && message.ack != 0 &&
      (message.tag == msg::kBlockGetReply ||
       message.tag == msg::kServedReply)) {
    channel_->on_ack(message.src, message.ack);
  }
  switch (message.tag) {
    case msg::kBlockGetRequest:
      if (channel_ && message.seq != 0) {
        // May depend on an ordered put still in flight (msg.ack).
        msg::PeerSequencer::Admit admitted =
            sequencer_.admit_after(std::move(message));
        for (msg::Message& released : admitted.deliver) {
          dispatch_admitted(released);
        }
      } else {
        dist_->handle_get_request(message);
      }
      break;
    case msg::kBlockGetReply:
      dist_->handle_get_reply(message);
      break;
    case msg::kBlockPut:
    case msg::kBlockPutAcc:
      if (channel_ && message.seq != 0) {
        const int src = message.src;
        const std::uint64_t seq = message.seq;
        msg::PeerSequencer::Admit admitted =
            sequencer_.admit_ordered(std::move(message));
        if (admitted.duplicate) {
          // Retransmit of an applied put whose ack was lost: re-ack so
          // the sender stops retrying (the apply itself must not repeat —
          // accumulate twice is silent corruption).
          msg::Message ack;
          ack.tag = msg::kProtoAck;
          ack.ack = seq;
          shared_.fabric->send(my_rank_, src, std::move(ack));
        }
        for (msg::Message& released : admitted.deliver) {
          dispatch_admitted(released);
        }
      } else {
        dist_->handle_put(message, message.tag == msg::kBlockPutAcc);
      }
      break;
    case msg::kBlockDelete:
      dist_->handle_delete(message);
      break;
    case msg::kServedReply:
      served_->handle_reply(message);
      break;
    case msg::kProtoAck:
      if (channel_) channel_->on_ack(message.src, message.ack);
      break;
    case msg::kHeartbeatPing: {
      msg::Message pong;
      pong.tag = msg::kHeartbeatAck;
      pong.header = {message.header.empty() ? 0 : message.header[0],
                     my_rank_};
      shared_.fabric->send(my_rank_, shared_.master_rank(),
                           std::move(pong));
      break;
    }
    case msg::kChunkReply:
      chunk_replies_[{static_cast<int>(message.header[0]),
                      message.header[1]}] = {message.header[2],
                                             message.header[3]};
      break;
    case msg::kChunkStealRequest: {
      // The master wants the tail of this worker's outstanding chunk for
      // a starved worker. Clamp the proposed split to the current
      // position — iterations already started (all < pos) are never
      // revoked — and grant [max(split, pos), chunk_end). Runs on the
      // interpreter thread like every handler, so touching the frame is
      // safe.
      const int pardo_id = static_cast<int>(message.header[0]);
      const std::int64_t instance = message.header[1];
      const std::int64_t split = message.header[2];
      std::int64_t grant_begin = 0, grant_end = 0;
      for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
        Frame& frame = *it;
        if (frame.kind != Frame::Kind::kPardo ||
            frame.pardo_id != pardo_id || frame.instance != instance) {
          continue;
        }
        const std::int64_t safe = std::max(split, frame.pos);
        if (safe < frame.chunk_end) {
          grant_begin = safe;
          grant_end = frame.chunk_end;
          frame.chunk_end = safe;
        }
        break;
      }
      msg::Message reply;
      reply.tag = msg::kChunkStealReply;
      reply.header = {pardo_id, instance, grant_begin, grant_end};
      shared_.fabric->send(my_rank_, shared_.master_rank(),
                           std::move(reply));
      break;
    }
    case msg::kBarrierRelease:
      barrier_released_[message.header[0]] = true;
      // Advance the epoch immediately: messages behind this one in the
      // mailbox were sent by workers already past the barrier.
      if (pending_barrier_server_) {
        served_->advance_epoch();
      } else {
        dist_->advance_epoch();
      }
      break;
    case msg::kScalarBcast:
      collective_results_[message.header[0]] = message.data.at(0);
      break;
    case msg::kAbort:
      // Another rank's fatal error, relayed by the master. In spawn mode
      // this message is the only way the news reaches this process.
      shared_.raise_abort(abort_text(message));
      break;  // the next check_abort unwinds via Aborted
    default:
      throw InternalError("worker received unexpected tag " +
                          std::to_string(message.tag));
  }
}

void Interpreter::service_messages() {
  if (channel_) channel_->poll();  // retransmit overdue tracked sends
  while (auto message = shared_.fabric->try_recv(my_rank_)) {
    handle_message(*message);
  }
}

void Interpreter::wait_until(const std::function<bool()>& ready,
                             const char* what, WaitKind kind) {
  service_messages();
  if (ready()) return;
  const double start = wall_seconds();
  // Publish what this rank is blocked on so the master's watchdog can
  // name it in a diagnosed abort if the run wedges.
  shared_.set_rank_status(my_rank_, static_cast<int>(kind));
  while (!ready()) {
    shared_.check_abort();
    if (channel_) channel_->poll();
    auto message = shared_.fabric->recv_for(my_rank_, 10);
    if (message.has_value()) {
      handle_message(*message);
      service_messages();
    }
  }
  shared_.set_rank_status(my_rank_, -1);
  const double waited = wall_seconds() - start;
  profiler_.record_wait(current_pardo_id(), waited, kind);
  SIA_DEBUG(my_rank_) << "waited " << waited * 1e3 << " ms for " << what;
}

void Interpreter::drain_channel() {
  if (!channel_ || channel_->idle()) return;
  const double start = wall_seconds();
  shared_.set_rank_status(my_rank_, static_cast<int>(WaitKind::kBarrier));
  auto last_hint = std::chrono::steady_clock::time_point{};
  while (!channel_->idle()) {
    shared_.check_abort();
    channel_->poll();
    // Unacked ordered sends to an I/O server are prepares whose
    // durability ack only goes out when the block hits disk — which may
    // be never if it just sits in the server's cache. Nudge the server
    // to flush. (Worker-to-worker puts ack on apply; no nudge needed.)
    const auto now = std::chrono::steady_clock::now();
    if (now - last_hint > std::chrono::milliseconds(50)) {
      for (int dst : channel_->unacked_ordered_dsts()) {
        if (shared_.is_server(dst)) {
          msg::Message hint;
          hint.tag = msg::kServerFlushHint;
          shared_.fabric->send(my_rank_, dst, std::move(hint));
        }
      }
      last_hint = now;
    }
    auto message = shared_.fabric->recv_for(my_rank_, 10);
    if (message.has_value()) {
      handle_message(*message);
      service_messages();
    }
  }
  shared_.set_rank_status(my_rank_, -1);
  profiler_.record_wait(current_pardo_id(), wall_seconds() - start,
                        WaitKind::kBarrier);
}

int Interpreter::current_pardo_id() const {
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    if (it->kind == Frame::Kind::kPardo) return it->pardo_id;
  }
  return -1;
}

// ---------------------------------------------------------------------
// Scalar stack.

double Interpreter::pop() {
  SIA_CHECK(!stack_.empty(), "scalar stack underflow");
  const double value = stack_.back();
  stack_.pop_back();
  return value;
}

void Interpreter::push(double value) { stack_.push_back(value); }

// ---------------------------------------------------------------------
// Block access.

BlockSelector Interpreter::resolve(const BlockOperand& operand) const {
  return program_.resolve_operand(operand, data_->index_values());
}

BlockPtr Interpreter::fetch_base_block(const BlockSelector& selector) {
  const sial::ResolvedArray& array = program_.array(selector.array_id);
  switch (array.kind) {
    case ArrayKind::kStatic:
    case ArrayKind::kTemp:
    case ArrayKind::kLocal:
      return data_->read_local_kind(selector);
    case ArrayKind::kDistributed: {
      const BlockId id = selector.id();
      if (shared_.owner_rank(id) == my_rank_) {
        return dist_->try_read(id);  // throws if never put
      }
      while (true) {
        if (BlockPtr block = dist_->try_read(id)) return block;
        if (!dist_->pending(id)) dist_->issue_get(id, /*implicit=*/true);
        wait_until([&] { return !dist_->pending(id); }, "distributed block",
                   WaitKind::kBlock);
      }
    }
    case ArrayKind::kServed: {
      const BlockId id = selector.id();
      while (true) {
        if (BlockPtr block = served_->try_read(id)) return block;
        // Unconditional: a no-op while a demand fetch is in flight, but
        // if only a look-ahead is pending this sends the demand request
        // that promotes the server's queued read-ahead job — otherwise
        // the worker would block at low priority behind every other
        // rank's demand reads.
        served_->issue_request(id);
        wait_until([&] { return !served_->pending(id); }, "served block",
                   WaitKind::kServed);
      }
    }
  }
  throw InternalError("fetch_base_block: bad array kind");
}

BlockPtr Interpreter::read_operand(const BlockOperand& operand) {
  const BlockSelector selector = resolve(operand);
  BlockPtr base = fetch_base_block(selector);
  if (!selector.sliced) return base;
  return std::make_shared<Block>(
      slice(*base,
            {selector.slice_origin.data(),
             static_cast<std::size_t>(selector.rank)},
            selector.shape()));
}

void Interpreter::with_write_block(
    const BlockSelector& selector, bool needs_existing,
    const std::function<void(Block&)>& compute) {
  if (!selector.sliced) {
    BlockPtr dst = needs_existing ? data_->read_local_kind(selector)
                                  : data_->write_local_kind(selector);
    compute(*dst);
    return;
  }
  // Insertion: read-modify-write of the containing block.
  BlockPtr container = data_->read_local_kind(selector);
  const std::span<const int> origin = {
      selector.slice_origin.data(), static_cast<std::size_t>(selector.rank)};
  Block scratch = needs_existing
                      ? slice(*container, origin, selector.shape())
                      : Block(selector.shape());
  compute(scratch);
  insert(*container, origin, scratch);
}

BlockPtr Interpreter::permuted_for(BlockPtr src,
                                   std::span<const int> src_ids,
                                   std::span<const int> dst_ids,
                                   const BlockShape& dst_shape) {
  bool identity = src_ids.size() == dst_ids.size();
  if (identity) {
    for (std::size_t d = 0; d < src_ids.size(); ++d) {
      if (src_ids[d] != dst_ids[d]) {
        identity = false;
        break;
      }
    }
  }
  if (identity) return src;  // callers only read the result
  // Stage the permuted copy in pool memory — this runs per iteration on
  // put/prepare hot loops and must not bypass the paper's preallocated
  // block stacks (§V-B) with ad-hoc heap traffic.
  auto out = std::make_shared<Block>(dst_shape,
                                     pool_->allocate(dst_shape.element_count()));
  block_copy_permute(*out, dst_ids, *src, src_ids, CopyMode::kAssign);
  return out;
}

// ---------------------------------------------------------------------
// Pardo machinery.

void Interpreter::set_pardo_indices(const Frame& frame, std::int64_t raw) {
  const sial::PardoInfo& pardo =
      program_.code().pardos[static_cast<std::size_t>(frame.pardo_id)];
  std::vector<long> decoded(pardo.index_ids.size());
  program_.pardo_decode(pardo, data_->index_values(), raw, decoded);
  for (std::size_t d = 0; d < pardo.index_ids.size(); ++d) {
    data_->set_index_value(pardo.index_ids[d], decoded[d]);
  }
}

void Interpreter::clear_pardo_indices(const Frame& frame) {
  const sial::PardoInfo& pardo =
      program_.code().pardos[static_cast<std::size_t>(frame.pardo_id)];
  for (const int id : pardo.index_ids) data_->clear_index_value(id);
}

bool Interpreter::pardo_request_chunk(Frame& frame) {
  msg::Message request;
  request.tag = msg::kChunkRequest;
  request.header = {frame.pardo_id, frame.instance,
                    static_cast<std::int64_t>(frame.filtered.size())};
  shared_.fabric->send(my_rank_, shared_.master_rank(), std::move(request));

  const std::pair<int, std::int64_t> key{frame.pardo_id, frame.instance};
  wait_until([&] { return chunk_replies_.count(key) > 0; }, "pardo chunk",
             WaitKind::kChunk);
  const auto [begin, end] = chunk_replies_[key];
  chunk_replies_.erase(key);
  frame.chunk_begin = begin;
  frame.chunk_end = end;
  frame.pos = begin;
  return begin < end;
}

bool Interpreter::pardo_advance(Frame& frame) {
  // Iteration boundary: write-combined put/prepare accumulates push out
  // before starting the next iteration (or blocking on the master for a
  // chunk).
  dist_->flush_coalesced();
  served_->flush_coalesced();
  // Poll the mailbox once per iteration boundary: a compute-bound body
  // may issue no blocking operation for a whole chunk, and the master's
  // steal requests (and peers' get requests) should not wait that long.
  service_messages();
  while (true) {
    if (frame.pos < frame.chunk_end) {
      data_->clear_temps();
      set_pardo_indices(
          frame, frame.filtered[static_cast<std::size_t>(frame.pos)]);
      ++frame.pos;
      profiler_.record_pardo_iteration(frame.pardo_id);
      return true;
    }
    if (!pardo_request_chunk(frame)) return false;
  }
}

void Interpreter::exec_pardo_start(const Instruction& instr) {
  // Sema rejects syntactic nesting; nesting routed through a procedure
  // call is only visible here. It would desynchronize the master's
  // per-instance chunk bookkeeping, so refuse it outright.
  for (const Frame& frame : frames_) {
    if (frame.kind == Frame::Kind::kPardo) {
      throw RuntimeError(
          "pardo loops may not be nested (this one is reached through a "
          "procedure called inside another pardo)");
    }
  }
  Frame frame;
  frame.kind = Frame::Kind::kPardo;
  frame.start_pc = pc_;
  frame.end_pc = instr.a1;
  frame.pardo_id = instr.a0;
  frame.instance = pardo_instance_[instr.a0]++;
  frame.started_at = wall_seconds();
  const sial::PardoInfo& pardo =
      program_.code().pardos[static_cast<std::size_t>(instr.a0)];
  frame.filtered =
      program_.pardo_filtered_space(pardo, data_->index_values());

  frames_.push_back(std::move(frame));
  if (pardo_advance(frames_.back())) {
    ++pc_;
    return;
  }
  profiler_.record_pardo_elapsed(frames_.back().pardo_id,
                                 wall_seconds() - frames_.back().started_at);
  frames_.pop_back();
  pc_ = instr.a1 + 1;  // skip past kPardoEnd
}

void Interpreter::exec_pardo_end(const Instruction& instr) {
  (void)instr;
  SIA_CHECK(!frames_.empty() && frames_.back().kind == Frame::Kind::kPardo,
            "pardo_end without matching frame");
  Frame& frame = frames_.back();
  if (pardo_advance(frame)) {
    pc_ = frame.start_pc + 1;
    return;
  }
  data_->clear_temps();
  clear_pardo_indices(frame);
  profiler_.record_pardo_elapsed(frame.pardo_id,
                                 wall_seconds() - frame.started_at);
  frames_.pop_back();
  ++pc_;
}

void Interpreter::exec_do_start(const Instruction& instr) {
  const sial::ResolvedIndex& index = program_.index(instr.a0);
  long first = 0, last = 0;
  if (instr.a2 >= 0) {
    const long super_value = data_->index_value(instr.a2);
    if (super_value == sial::kUndefinedIndexValue) {
      throw RuntimeError("'do " + index.name +
                         " in ...': super index has no value");
    }
    first = (super_value - 1) * index.subs_per_segment + 1;
    last = std::min<long>(super_value * index.subs_per_segment,
                          index.seg_hi);
  } else {
    first = index.seg_lo;
    last = index.seg_hi;
  }
  if (first > last) {
    pc_ = instr.a1 + 1;
    return;
  }
  Frame frame;
  frame.kind = Frame::Kind::kDo;
  frame.start_pc = pc_;
  frame.end_pc = instr.a1;
  frame.index_id = instr.a0;
  frame.current = first;
  frame.last = last;
  frames_.push_back(frame);
  data_->set_index_value(instr.a0, first);
  ++pc_;
}

void Interpreter::exec_do_end(const Instruction& instr) {
  (void)instr;
  SIA_CHECK(!frames_.empty() && frames_.back().kind == Frame::Kind::kDo,
            "do_end without matching frame");
  Frame& frame = frames_.back();
  if (exiting_loop_) {
    exiting_loop_ = false;
  } else if (frame.current + 1 <= frame.last) {
    ++frame.current;
    data_->set_index_value(frame.index_id, frame.current);
    pc_ = frame.start_pc + 1;
    return;
  }
  data_->clear_index_value(frame.index_id);
  frames_.pop_back();
  ++pc_;
}

// ---------------------------------------------------------------------
// Block instructions.

void Interpreter::exec_block_scalar_op(const Instruction& instr) {
  const double value = pop();
  const BlockSelector selector = resolve(instr.blocks[0]);
  switch (instr.a0) {
    case kModeAssign:
      with_write_block(selector, false,
                       [&](Block& dst) { blas::fill(dst.data(), value); });
      return;
    case kModeAcc:
      with_write_block(selector, true,
                       [&](Block& dst) { blas::shift(dst.data(), value); });
      return;
    case kModeSub:
      with_write_block(selector, true,
                       [&](Block& dst) { blas::shift(dst.data(), -value); });
      return;
    case kModeScale:
      with_write_block(selector, true,
                       [&](Block& dst) { blas::scal(dst.data(), value); });
      return;
    default:
      throw InternalError("bad block scalar mode");
  }
}

void Interpreter::exec_block_copy(const Instruction& instr) {
  const BlockSelector dst = resolve(instr.blocks[0]);
  BlockPtr src = read_operand(instr.blocks[1]);
  const CopyMode mode = instr.a0 == kModeAssign   ? CopyMode::kAssign
                        : instr.a0 == kModeAcc    ? CopyMode::kAccumulate
                                                  : CopyMode::kSubtract;
  with_write_block(dst, mode != CopyMode::kAssign, [&](Block& dst_block) {
    block_copy_permute(dst_block, ids_of(instr.blocks[0]), *src,
                       ids_of(instr.blocks[1]), mode,
                       shared_.config.sparse_threshold);
  });
}

void Interpreter::exec_block_binary(const Instruction& instr) {
  const BlockSelector dst = resolve(instr.blocks[0]);
  BlockPtr a = read_operand(instr.blocks[1]);
  BlockPtr b = read_operand(instr.blocks[2]);
  const bool accumulate = instr.a0 == kModeAcc;
  const auto op = static_cast<sial::BinOp>(instr.a1);

  with_write_block(dst, accumulate, [&](Block& dst_block) {
    if (op == sial::BinOp::kMul) {
      block_contract(dst_block, ids_of(instr.blocks[0]), *a,
                     ids_of(instr.blocks[1]), *b, ids_of(instr.blocks[2]),
                     accumulate, shared_.config.sparse_threshold);
    } else {
      block_add(dst_block, ids_of(instr.blocks[0]), *a,
                ids_of(instr.blocks[1]), *b, ids_of(instr.blocks[2]),
                op == sial::BinOp::kSub, accumulate);
    }
  });
}

void Interpreter::exec_block_scaled_copy(const Instruction& instr) {
  const double coefficient = pop();
  const BlockSelector dst = resolve(instr.blocks[0]);
  BlockPtr src = read_operand(instr.blocks[1]);

  with_write_block(dst, instr.a0 != kModeAssign, [&](Block& dst_block) {
    BlockPtr permuted =
        permuted_for(src, ids_of(instr.blocks[1]), ids_of(instr.blocks[0]),
                     dst_block.shape());
    auto src_span = permuted->data();
    auto dst_span = dst_block.data();
    switch (instr.a0) {
      case kModeAssign:
        for (std::size_t i = 0; i < dst_span.size(); ++i) {
          dst_span[i] = coefficient * src_span[i];
        }
        return;
      case kModeAcc:
        blas::axpy(coefficient, src_span, dst_span);
        return;
      case kModeSub:
        blas::axpy(-coefficient, src_span, dst_span);
        return;
      default:
        throw InternalError("bad scaled copy mode");
    }
  });
}

// ---------------------------------------------------------------------
// Communication instructions.

std::vector<LoopContext> Interpreter::loop_contexts() const {
  std::vector<LoopContext> loops;
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    LoopContext loop;
    if (it->kind == Frame::Kind::kDo) {
      loop.is_pardo = false;
      loop.index_id = it->index_id;
      loop.current = it->current;
      loop.last = it->last;
    } else {
      loop.is_pardo = true;
      loop.pardo =
          &program_.code().pardos[static_cast<std::size_t>(it->pardo_id)];
      loop.filtered = &it->filtered;
      loop.next_pos = it->pos;
      loop.end_pos = it->chunk_end;
    }
    loops.push_back(loop);
  }
  return loops;
}

std::vector<BlockId> Interpreter::lookahead_candidates(
    const sial::BlockOperand& operand) const {
  if (shared_.config.prefetch_depth <= 0) return {};
  const std::vector<LoopContext> loops = loop_contexts();
  return prefetch_candidates(program_, operand, data_->index_values(), loops,
                             shared_.config.prefetch_depth);
}

void Interpreter::exec_get(const Instruction& instr) {
  dist_->issue_get(resolve(instr.blocks[0]).id());

  // Look ahead along the enclosing loops (paper §V-A).
  for (const BlockId& candidate : lookahead_candidates(instr.blocks[0])) {
    dist_->issue_get(candidate);
  }
}

void Interpreter::exec_request(const Instruction& instr) {
  served_->issue_request(resolve(instr.blocks[0]).id());

  // Served-array look-ahead, mirroring exec_get: speculative requests for
  // the next iterations become low-priority read-ahead jobs at the I/O
  // server, warming its cache (and this worker's) behind demand traffic.
  for (const BlockId& candidate : lookahead_candidates(instr.blocks[0])) {
    served_->issue_lookahead(candidate);
  }
}

void Interpreter::exec_prefetch(const Instruction& instr) {
  // Optimizer-hoisted fetch of a loop-invariant block (src/sial/opt/).
  // Zero-trip guard first, replicating exec_do_start's bounds: if the
  // loop this fetch was hoisted from will not run, the unoptimized
  // program never issued it — the block may legitimately not exist.
  const sial::ResolvedIndex& index = program_.index(instr.a0);
  long first = 0, last = 0;
  if (instr.a1 >= 0) {
    const long super_value = data_->index_value(instr.a1);
    if (super_value == sial::kUndefinedIndexValue) {
      return;  // the kDoStart right behind us reports the error
    }
    first = (super_value - 1) * index.subs_per_segment + 1;
    last = std::min<long>(super_value * index.subs_per_segment,
                          index.seg_hi);
  } else {
    first = index.seg_lo;
    last = index.seg_hi;
  }
  if (first > last) return;

  const BlockId id = resolve(instr.blocks[0]).id();
  const bool served = program_.array(instr.blocks[0].array_id).kind ==
                      sial::ArrayKind::kServed;
  if (served) {
    served_->issue_request(id);
  } else {
    dist_->issue_get(id);
  }
}

void Interpreter::batch_issue_gets(const Instruction& instr,
                                   std::size_t first_block) {
  if (!shared_.config.batch_gets) return;
  const auto issue = [&](const BlockOperand& operand) {
    const sial::ResolvedArray& array = program_.array(operand.array_id);
    if (array.kind == ArrayKind::kDistributed) {
      dist_->issue_get(resolve(operand).id(), /*implicit=*/true);
    } else if (array.kind == ArrayKind::kServed) {
      served_->issue_request(resolve(operand).id());
    }
  };
  for (std::size_t i = first_block; i < instr.blocks.size(); ++i) {
    issue(instr.blocks[i]);
  }
  for (const sial::ExecOperand& earg : instr.eargs) {
    if (earg.kind == sial::ExecOperand::Kind::kBlock) issue(earg.block);
  }
}

void Interpreter::exec_put(const Instruction& instr) {
  const BlockSelector dst = resolve(instr.blocks[0]);
  BlockPtr src = read_operand(instr.blocks[1]);
  BlockPtr shaped = permuted_for(src, ids_of(instr.blocks[1]),
                                 ids_of(instr.blocks[0]), dst.shape());
  if (shaped->size() != dst.shape().element_count()) {
    throw RuntimeError("put: block shape mismatch");
  }
  // Hand the shared_ptr over: when `shaped` is the last reference (the
  // common permuted-copy case) the manager ships it zero-copy.
  dist_->put(dst.id(), std::move(shaped), instr.a0 == 1);
}

void Interpreter::exec_prepare(const Instruction& instr) {
  const BlockSelector dst = resolve(instr.blocks[0]);
  BlockPtr src = read_operand(instr.blocks[1]);
  BlockPtr shaped = permuted_for(src, ids_of(instr.blocks[1]),
                                 ids_of(instr.blocks[0]), dst.shape());
  if (shaped->size() != dst.shape().element_count()) {
    throw RuntimeError("prepare: block shape mismatch");
  }
  served_->prepare(dst.id(), std::move(shaped), instr.a0 == 1);
}

void Interpreter::exec_allocate(const Instruction& instr, bool allocate) {
  const BlockOperand& operand = instr.blocks[0];
  const sial::ResolvedArray& array = program_.array(operand.array_id);
  std::array<int, blas::kMaxRank> lo{}, hi{};
  for (int d = 0; d < operand.rank; ++d) {
    const std::size_t ud = static_cast<std::size_t>(d);
    const int index_id = operand.index_ids[ud];
    if (index_id == sial::kWildcardIndex) {
      lo[ud] = 1;
      hi[ud] = array.num_segments[ud];
      continue;
    }
    const long value = data_->index_value(index_id);
    if (value == sial::kUndefinedIndexValue) {
      throw RuntimeError("allocate: index '" +
                         program_.index(index_id).name + "' has no value");
    }
    const int local = static_cast<int>(value) - array.seg_lo[ud] + 1;
    if (local < 1 || local > array.num_segments[ud]) {
      throw RuntimeError("allocate: index value outside array '" +
                         array.name + "'");
    }
    lo[ud] = hi[ud] = local;
  }
  const std::span<const int> lo_span{lo.data(),
                                     static_cast<std::size_t>(operand.rank)};
  const std::span<const int> hi_span{hi.data(),
                                     static_cast<std::size_t>(operand.rank)};
  if (allocate) {
    data_->allocate_local(operand.array_id, lo_span, hi_span);
  } else {
    data_->deallocate_local(operand.array_id, lo_span, hi_span);
  }
}

void Interpreter::exec_execute(const Instruction& instr) {
  const SuperInstructionFn* fn =
      superinstructions_[static_cast<std::size_t>(instr.a0)];
  if (fn == nullptr) {
    throw RuntimeError(
        "unknown super instruction '" +
        program_.code()
            .superinstructions[static_cast<std::size_t>(instr.a0)] +
        "' (not registered with the SIP)");
  }

  struct Writeback {
    BlockPtr container;
    BlockPtr scratch;
    BlockSelector selector;
  };
  std::vector<Writeback> writebacks;
  std::vector<ExecArgValue> values;
  values.reserve(instr.eargs.size());

  for (const sial::ExecOperand& earg : instr.eargs) {
    ExecArgValue value;
    value.kind = earg.kind;
    switch (earg.kind) {
      case sial::ExecOperand::Kind::kBlock: {
        const BlockSelector selector = resolve(earg.block);
        value.selector = selector;
        const sial::ResolvedArray& array = program_.array(selector.array_id);
        const bool local_kind = array.kind == ArrayKind::kStatic ||
                                array.kind == ArrayKind::kTemp ||
                                array.kind == ArrayKind::kLocal;
        if (local_kind && !selector.sliced) {
          value.block = data_->has_block(selector.id())
                            ? data_->read_local_kind(selector)
                            : data_->write_local_kind(selector);
        } else if (local_kind) {
          BlockPtr container = data_->read_local_kind(selector);
          auto scratch = std::make_shared<Block>(
              slice(*container,
                    {selector.slice_origin.data(),
                     static_cast<std::size_t>(selector.rank)},
                    selector.shape()));
          writebacks.push_back(Writeback{container, scratch, selector});
          value.block = std::move(scratch);
        } else {
          // Distributed/served: read-only clone.
          BlockPtr base = fetch_base_block(selector);
          value.block = std::make_shared<Block>(
              selector.sliced
                  ? slice(*base,
                          {selector.slice_origin.data(),
                           static_cast<std::size_t>(selector.rank)},
                          selector.shape())
                  : base->clone());
        }
        break;
      }
      case sial::ExecOperand::Kind::kScalar:
        value.scalar = &data_->scalar_ref(earg.slot);
        break;
      case sial::ExecOperand::Kind::kString:
        value.text =
            program_.code().strings[static_cast<std::size_t>(earg.slot)];
        break;
      case sial::ExecOperand::Kind::kNumber:
        value.number = earg.number;
        break;
    }
    values.push_back(std::move(value));
  }

  SuperInstructionContext context(program_, values, worker_index_,
                                  shared_.num_workers());
  (*fn)(context);

  for (const Writeback& writeback : writebacks) {
    insert(*writeback.container,
           {writeback.selector.slice_origin.data(),
            static_cast<std::size_t>(writeback.selector.rank)},
           *writeback.scratch);
  }
}

void Interpreter::exec_barrier(bool server) {
  // All coalesced writes must be at their home/server before this worker
  // enters the barrier: the fabric enqueues synchronously, so flushing
  // here guarantees the puts sit in the destination mailbox ahead of the
  // master's release (which is only sent after every worker entered).
  dist_->flush_coalesced();
  served_->flush_coalesced();
  // Under the reliable protocol the guarantee must be stronger: every
  // tracked send *acked*, not merely enqueued — a dropped put that is
  // retransmitted after the release would land in the wrong epoch.
  drain_channel();
  const std::int64_t seq = ++barrier_seq_;
  pending_barrier_server_ = server;
  msg::Message enter;
  enter.tag = msg::kBarrierEnter;
  enter.header = {seq, server ? 1 : 0};
  shared_.fabric->send(my_rank_, shared_.master_rank(), std::move(enter));
  // The epoch advance happens inside handle_message when the release
  // arrives (see kBarrierRelease).
  wait_until([&] { return barrier_released_.count(seq) > 0; }, "barrier",
             WaitKind::kBarrier);
  barrier_released_.erase(seq);
}

void Interpreter::exec_collective(const Instruction& instr) {
  const std::int64_t seq = ++collective_seq_;
  msg::Message reduce;
  reduce.tag = msg::kScalarReduce;
  reduce.header = {seq, instr.a1};
  reduce.data = {data_->scalar(instr.a1)};
  shared_.fabric->send(my_rank_, shared_.master_rank(), std::move(reduce));
  wait_until([&] { return collective_results_.count(seq) > 0; },
             "collective", WaitKind::kCollective);
  data_->scalar_ref(instr.a0) += collective_results_[seq];
  collective_results_.erase(seq);
}

void Interpreter::exec_checkpoint(const Instruction& instr, bool restore) {
  const int array_id = instr.a0;
  const std::string& key =
      program_.code().strings[static_cast<std::size_t>(instr.a1)];
  const sial::ResolvedArray& array = program_.array(array_id);

  exec_barrier(/*server=*/false);
  if (!restore) {
    checkpoint::write_part(shared_.scratch_dir, key, worker_index_,
                           program_, array_id, dist_->home_blocks());
    if (worker_index_ == 0) {
      checkpoint::Manifest manifest;
      manifest.array_name = array.name;
      manifest.parts = shared_.num_workers();
      manifest.total_blocks = array.total_blocks;
      checkpoint::write_manifest(shared_.scratch_dir, key, manifest);
    }
  } else {
    const checkpoint::Manifest manifest =
        checkpoint::read_manifest(shared_.scratch_dir, key);
    if (manifest.array_name != array.name) {
      throw RuntimeError("restore: checkpoint '" + key + "' holds array '" +
                         manifest.array_name + "', not '" + array.name +
                         "'");
    }
    dist_->delete_array(array_id);
    dist_->create_array(array_id);
    for (int part = 0; part < manifest.parts; ++part) {
      checkpoint::read_part(
          shared_.scratch_dir, key, part,
          [&](std::int64_t linear, const std::vector<double>& payload) {
            const BlockId id = BlockId::from_linear(array_id, linear,
                                                    array.num_segments);
            if (shared_.owner_rank(id) != my_rank_) return;
            const BlockShape shape = program_.grid_block_shape(
                array,
                {id.segments.data(), static_cast<std::size_t>(id.rank)});
            if (shape.element_count() != payload.size()) {
              throw RuntimeError("restore: block size mismatch in '" + key +
                                 "'");
            }
            auto block = std::make_shared<Block>(
                shape, pool_->allocate(shape.element_count()));
            std::copy(payload.begin(), payload.end(),
                      block->data().begin());
            dist_->store_home_block(id, std::move(block));
          });
    }
  }
  exec_barrier(/*server=*/false);
}

// ---------------------------------------------------------------------
// Main loop.

void Interpreter::step() {
  const Instruction& instr =
      program_.code().code[static_cast<std::size_t>(pc_)];
  switch (instr.op) {
    case Opcode::kNop:
      ++pc_;
      return;
    case Opcode::kPardoStart:
      exec_pardo_start(instr);
      return;
    case Opcode::kPardoEnd:
      exec_pardo_end(instr);
      return;
    case Opcode::kDoStart:
      exec_do_start(instr);
      return;
    case Opcode::kDoEnd:
      exec_do_end(instr);
      return;
    case Opcode::kJump:
      pc_ = instr.a0;
      return;
    case Opcode::kJumpIfFalse:
      pc_ = pop() != 0.0 ? pc_ + 1 : instr.a0;
      return;
    case Opcode::kCall:
      call_stack_.push_back(pc_ + 1);
      pc_ = program_.code()
                .procs[static_cast<std::size_t>(instr.a0)]
                .entry_pc;
      return;
    case Opcode::kReturn:
      SIA_CHECK(!call_stack_.empty(), "return without call");
      pc_ = call_stack_.back();
      call_stack_.pop_back();
      return;
    case Opcode::kExitLoop:
      exiting_loop_ = true;
      pc_ = instr.a0;
      return;
    case Opcode::kPushNumber:
      push(instr.f0);
      ++pc_;
      return;
    case Opcode::kPushScalar:
      push(data_->scalar(instr.a0));
      ++pc_;
      return;
    case Opcode::kPushIndex: {
      const long value = data_->index_value(instr.a0);
      if (value == sial::kUndefinedIndexValue) {
        throw RuntimeError("index '" + program_.index(instr.a0).name +
                           "' read without a value");
      }
      push(static_cast<double>(value));
      ++pc_;
      return;
    }
    case Opcode::kPushConst:
      push(program_.constant_value(instr.a0));
      ++pc_;
      return;
    case Opcode::kNeg:
      push(-pop());
      ++pc_;
      return;
    case Opcode::kAdd: {
      const double rhs = pop();
      push(pop() + rhs);
      ++pc_;
      return;
    }
    case Opcode::kSub: {
      const double rhs = pop();
      push(pop() - rhs);
      ++pc_;
      return;
    }
    case Opcode::kMul: {
      const double rhs = pop();
      push(pop() * rhs);
      ++pc_;
      return;
    }
    case Opcode::kDiv: {
      const double rhs = pop();
      if (rhs == 0.0) throw RuntimeError("scalar division by zero");
      push(pop() / rhs);
      ++pc_;
      return;
    }
    case Opcode::kSqrt:
      push(std::sqrt(pop()));
      ++pc_;
      return;
    case Opcode::kAbs:
      push(std::abs(pop()));
      ++pc_;
      return;
    case Opcode::kExpFn:
      push(std::exp(pop()));
      ++pc_;
      return;
    case Opcode::kCompare: {
      const double rhs = pop();
      const double lhs = pop();
      bool result = false;
      switch (static_cast<sial::CmpOp>(instr.a0)) {
        case sial::CmpOp::kLt: result = lhs < rhs; break;
        case sial::CmpOp::kLe: result = lhs <= rhs; break;
        case sial::CmpOp::kGt: result = lhs > rhs; break;
        case sial::CmpOp::kGe: result = lhs >= rhs; break;
        case sial::CmpOp::kEq: result = lhs == rhs; break;
        case sial::CmpOp::kNe: result = lhs != rhs; break;
      }
      push(result ? 1.0 : 0.0);
      ++pc_;
      return;
    }
    case Opcode::kStoreScalar: {
      const double value = pop();
      double& slot = data_->scalar_ref(instr.a0);
      switch (instr.a1) {
        case kModeAssign: slot = value; break;
        case kModeAcc: slot += value; break;
        case kModeSub: slot -= value; break;
        case kModeScale: slot *= value; break;
        default: throw InternalError("bad scalar store mode");
      }
      ++pc_;
      return;
    }
    case Opcode::kBlockDot: {
      batch_issue_gets(instr, 0);
      BlockPtr a = read_operand(instr.blocks[0]);
      BlockPtr b = read_operand(instr.blocks[1]);
      push(block_dot(*a, ids_of(instr.blocks[0]), *b,
                     ids_of(instr.blocks[1]),
                     shared_.config.sparse_threshold));
      ++pc_;
      return;
    }
    case Opcode::kPrintTop:
      if (worker_index_ == 0) {
        std::printf("[sial:%s] %.12g\n", program_.code().name.c_str(),
                    stack_.back());
        std::fflush(stdout);
      }
      pop();
      ++pc_;
      return;
    case Opcode::kPrintString:
      if (worker_index_ == 0) {
        std::printf(
            "[sial:%s] %s\n", program_.code().name.c_str(),
            program_.code().strings[static_cast<std::size_t>(instr.a0)]
                .c_str());
        std::fflush(stdout);
      }
      ++pc_;
      return;
    case Opcode::kBlockScalarOp:
      exec_block_scalar_op(instr);
      ++pc_;
      return;
    case Opcode::kBlockCopy:
      batch_issue_gets(instr, 1);  // dst (index 0) is a local-kind write
      exec_block_copy(instr);
      ++pc_;
      return;
    case Opcode::kBlockBinary:
      batch_issue_gets(instr, 1);
      exec_block_binary(instr);
      ++pc_;
      return;
    case Opcode::kBlockScaledCopy:
      batch_issue_gets(instr, 1);
      exec_block_scaled_copy(instr);
      ++pc_;
      return;
    case Opcode::kGet:
      exec_get(instr);
      ++pc_;
      return;
    case Opcode::kRequest:
      exec_request(instr);
      ++pc_;
      return;
    case Opcode::kPrefetch:
      exec_prefetch(instr);
      ++pc_;
      return;
    case Opcode::kPut:
      batch_issue_gets(instr, 1);  // source may itself be remote
      exec_put(instr);
      ++pc_;
      return;
    case Opcode::kPrepare:
      batch_issue_gets(instr, 1);
      exec_prepare(instr);
      ++pc_;
      return;
    case Opcode::kAllocate:
      exec_allocate(instr, true);
      ++pc_;
      return;
    case Opcode::kDeallocate:
      exec_allocate(instr, false);
      ++pc_;
      return;
    case Opcode::kCreate:
      dist_->create_array(instr.a0);
      ++pc_;
      return;
    case Opcode::kDeleteArr:
      dist_->delete_array(instr.a0);
      ++pc_;
      return;
    case Opcode::kExecute:
      batch_issue_gets(instr, 0);  // block operands live in eargs
      exec_execute(instr);
      ++pc_;
      return;
    case Opcode::kSipBarrier:
      exec_barrier(false);
      ++pc_;
      return;
    case Opcode::kServerBarrier:
      exec_barrier(true);
      ++pc_;
      return;
    case Opcode::kCollective:
      exec_collective(instr);
      ++pc_;
      return;
    case Opcode::kCheckpoint:
      exec_checkpoint(instr, false);
      ++pc_;
      return;
    case Opcode::kRestoreArr:
      exec_checkpoint(instr, true);
      ++pc_;
      return;
    case Opcode::kHalt:
      return;  // caller notices
  }
  throw InternalError("unhandled opcode");
}

void Interpreter::execute_program() {
  const double start = wall_seconds();
  while (true) {
    shared_.check_abort();
    service_messages();
    const int pc = pc_;
    const Instruction& instr =
        program_.code().code[static_cast<std::size_t>(pc)];
    if (instr.op == Opcode::kHalt) break;
    const double t0 = wall_seconds();
    step();
    profiler_.record_instruction(pc, instr.line, opcode_name(instr.op),
                                 wall_seconds() - t0);
  }
  profiler_.record_total(wall_seconds() - start);

  // Nothing may stay write-combined past the end of the program.
  dist_->flush_coalesced();
  served_->flush_coalesced();
  drain_channel();

  // Tell the master this worker is done; keep servicing messages until
  // the fabric stops or all peers finish (other workers may still need
  // blocks homed here).
  msg::Message done;
  done.tag = msg::kBarrierEnter;
  done.header = {0, 2};
  shared_.fabric->send(my_rank_, shared_.master_rank(), std::move(done));
  while (!shared_.fabric->stopped()) {
    auto message = shared_.fabric->recv_for(my_rank_, 20);
    if (!message.has_value()) {
      if (shared_.abort_flag.load(std::memory_order_acquire)) break;
      continue;
    }
    if (message->tag == msg::kShutdown) break;
    handle_message(*message);
  }
}

void Interpreter::run() {
  try {
    execute_program();
  } catch (const Aborted&) {
    // Another rank failed first; it already raised the abort.
  } catch (const std::exception& error) {
    const int line =
        pc_ >= 0 && pc_ < static_cast<int>(program_.code().code.size())
            ? program_.code().code[static_cast<std::size_t>(pc_)].line
            : 0;
    shared_.raise_abort(std::string(error.what()) +
                        (line > 0 ? " (at SIAL line " + std::to_string(line) +
                                        ")"
                                  : ""));
  }
}

}  // namespace sia::sip
