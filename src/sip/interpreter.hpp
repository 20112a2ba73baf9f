// The SIP worker: a bytecode interpreter over the message fabric.
//
// "Each worker loops through the instruction table executing bytecode
// instructions, periodically checking for messages and processing them"
// (paper §V-B). This interpreter services its mailbox between
// instructions and while blocked, which is what makes the fully
// asynchronous protocol deadlock-free: a worker waiting for a block keeps
// answering other workers' get requests.
//
// Waits are instrumented: any time spent blocked on a block, a chunk, a
// barrier release, or a collective is recorded as wait time against the
// enclosing pardo loop (paper §VI-B).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "block/block_pool.hpp"
#include "msg/reliable.hpp"
#include "sip/data_manager.hpp"
#include "sip/dist_array.hpp"
#include "sip/prefetch.hpp"
#include "sip/profiler.hpp"
#include "sip/served_array.hpp"
#include "sip/shared.hpp"
#include "sip/superinstr.hpp"

namespace sia::sip {

class Interpreter {
 public:
  // `worker_index` is 0-based; the fabric rank is 1 + worker_index.
  Interpreter(SipShared& shared, int worker_index);

  // Executes the program from pc 0 to kHalt. Exceptions abort the whole
  // launch; the method itself never throws.
  void run();

  // Post-run access for result collection and tests.
  DataManager& data() { return *data_; }
  DistArrayManager& dist() { return *dist_; }
  ServedArrayClient& served() { return *served_; }
  BlockPool& pool() { return *pool_; }
  Profiler& profiler() { return profiler_; }
  int worker_index() const { return worker_index_; }
  // Null when the reliable protocol is off.
  const msg::ReliableChannel* channel() const { return channel_.get(); }
  const msg::PeerSequencer& sequencer() const { return sequencer_; }

 private:
  struct Frame {
    enum class Kind { kDo, kPardo };
    Kind kind = Kind::kDo;
    int start_pc = -1;
    int end_pc = -1;
    // do loops.
    int index_id = -1;
    long current = 0;
    long last = 0;
    // pardo loops.
    int pardo_id = -1;
    std::int64_t instance = 0;
    std::vector<std::int64_t> filtered;  // surviving raw linear positions
    std::int64_t chunk_begin = 0, chunk_end = 0;
    std::int64_t pos = 0;  // next position within [chunk_begin, chunk_end)
    double started_at = 0.0;
  };

  // ------------------------------------------------------------------
  // Execution.
  void execute_program();
  // Executes the instruction at pc_; advances pc_.
  void step();

  void exec_pardo_start(const sial::Instruction& instr);
  void exec_pardo_end(const sial::Instruction& instr);
  void exec_do_start(const sial::Instruction& instr);
  void exec_do_end(const sial::Instruction& instr);
  void exec_block_scalar_op(const sial::Instruction& instr);
  void exec_block_copy(const sial::Instruction& instr);
  void exec_block_binary(const sial::Instruction& instr);
  void exec_block_scaled_copy(const sial::Instruction& instr);
  void exec_get(const sial::Instruction& instr);
  void exec_request(const sial::Instruction& instr);
  // Optimizer-hoisted loop-invariant fetch (kPrefetch): non-blocking
  // get/request with a zero-trip guard on the hoisted loop's bounds.
  void exec_prefetch(const sial::Instruction& instr);
  // Snapshot of the enclosing do/pardo loops, innermost first, for
  // prefetch_candidates (shared by exec_get and exec_request look-ahead).
  std::vector<LoopContext> loop_contexts() const;
  // Issues the asynchronous fetch for every distributed/served block
  // operand of `instr` starting at `first_block` (plus execute args), so
  // all replies are in flight before the first blocking read (wait-any).
  // Gated by config.batch_gets.
  void batch_issue_gets(const sial::Instruction& instr,
                        std::size_t first_block);
  void exec_put(const sial::Instruction& instr);
  void exec_prepare(const sial::Instruction& instr);
  void exec_allocate(const sial::Instruction& instr, bool allocate);
  void exec_execute(const sial::Instruction& instr);
  void exec_barrier(bool server);
  void exec_collective(const sial::Instruction& instr);
  void exec_checkpoint(const sial::Instruction& instr, bool restore);

  // Shared look-ahead prediction (see prefetch.hpp): the candidates for
  // `operand`'s next iterations. Empty when prefetch_depth is 0.
  std::vector<BlockId> lookahead_candidates(
      const sial::BlockOperand& operand) const;

  // Requests the next chunk for the frame; false when the pardo is done.
  bool pardo_request_chunk(Frame& frame);
  // Starts the next iteration in the current chunk (or next chunk);
  // false when no iterations remain.
  bool pardo_advance(Frame& frame);
  void set_pardo_indices(const Frame& frame, std::int64_t raw);
  void clear_pardo_indices(const Frame& frame);

  // ------------------------------------------------------------------
  // Blocks.
  sial::BlockSelector resolve(const sial::BlockOperand& operand) const;
  // Effective (possibly sliced) read of an operand; waits for remote
  // blocks, servicing messages meanwhile.
  BlockPtr read_operand(const sial::BlockOperand& operand);
  // The stored block behind a selector, fetching remote ones.
  BlockPtr fetch_base_block(const sial::BlockSelector& selector);
  // Destination handling: calls `compute(dst_block)` with the effective
  // destination; `needs_existing` preloads current content (+=, -=, *=).
  void with_write_block(const sial::BlockSelector& selector,
                        bool needs_existing,
                        const std::function<void(Block&)>& compute);
  // Permutes `src` (with src_ids) into the id order of dst_ids; returns
  // `src` itself when the order already matches.
  BlockPtr permuted_for(BlockPtr src, std::span<const int> src_ids,
                        std::span<const int> dst_ids,
                        const BlockShape& dst_shape);

  static std::span<const int> ids_of(const sial::BlockOperand& operand) {
    return {operand.index_ids.data(),
            static_cast<std::size_t>(operand.rank)};
  }

  // ------------------------------------------------------------------
  // Messaging and waiting.
  void service_messages();
  // Mutable reference: block payloads are adopted out of the message.
  void handle_message(msg::Message& message);
  // Reliable protocol: route an admitted data-plane message (put or get
  // request released by the sequencer) to its handler, acking puts.
  void dispatch_admitted(msg::Message& message);
  // Blocks until every tracked send is acked. Ordered sends to I/O
  // servers are nudged with flush hints (their durability acks only go
  // out when the dirty block hits disk). Must run before any barrier
  // enter: the barrier protocol assumes all data-plane traffic landed.
  void drain_channel();
  // Services messages until `ready` returns true; accounts wait time
  // against the enclosing pardo, bucketed by what was awaited.
  void wait_until(const std::function<bool()>& ready, const char* what,
                  WaitKind kind);
  int current_pardo_id() const;

  // ------------------------------------------------------------------
  // Scalar stack.
  double pop();
  void push(double value);

  SipShared& shared_;
  int worker_index_;
  int my_rank_;
  const sial::ResolvedProgram& program_;
  Profiler profiler_;

  std::unique_ptr<BlockPool> pool_;
  std::unique_ptr<DataManager> data_;
  std::unique_ptr<DistArrayManager> dist_;
  std::unique_ptr<ServedArrayClient> served_;
  // Reliable delivery (fault tolerance): tracked sends with retransmit,
  // and exactly-once admission of incoming puts. Null/idle when off.
  std::unique_ptr<msg::ReliableChannel> channel_;
  msg::PeerSequencer sequencer_;

  int pc_ = 0;
  bool exiting_loop_ = false;
  std::vector<double> stack_;
  std::vector<Frame> frames_;
  std::vector<int> call_stack_;  // return pcs

  // Protocol bookkeeping.
  std::map<int, std::int64_t> pardo_instance_;  // per pardo id
  std::int64_t barrier_seq_ = 0;
  std::int64_t collective_seq_ = 0;
  // Kind of the barrier currently awaited; the epoch advance must happen
  // the moment the release message is *handled*, because later messages
  // in the same service batch already belong to the new epoch.
  bool pending_barrier_server_ = false;
  // Replies captured by handle_message, consumed by waiting code.
  std::map<std::pair<int, std::int64_t>, std::pair<std::int64_t, std::int64_t>>
      chunk_replies_;               // (pardo, instance) -> [begin, end)
  std::map<std::int64_t, bool> barrier_released_;
  std::map<std::int64_t, double> collective_results_;

  // Resolved super instruction functions by table id.
  std::vector<const SuperInstructionFn*> superinstructions_;
};

}  // namespace sia::sip
