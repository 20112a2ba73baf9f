// Intra-worker dataflow executor: the instruction window.
//
// The paper's workers are coarse-grained interpreters whose every step is
// a super instruction — exactly the granularity at which intra-node
// parallelism is cheap to schedule (the SIA itself later grew
// multithreaded workers, Lotrich et al. arXiv:2003.01688). This module
// gives each worker a compute thread pool plus an *instruction window*:
// the interpreter thread decodes super instructions into window entries
// carrying their block-level read/write sets, and any entry whose
// RAW/WAR/WAW hazards are clear is issued to the pool out of program
// order. The interpreter thread keeps draining the fabric meanwhile, so
// compute overlaps the async get/put engine: an entry blocked on a remote
// operand parks in the window and is woken when the reply arrives instead
// of stalling the whole worker.
//
// Retirement is strictly in program order on the interpreter thread.
// Communication side effects (put/prepare sends, deferred gets) happen at
// retire, so the fabric sees the exact message sequence of the serial
// interpreter; and because two writers of the same block are themselves
// ordered by the hazard rules (an accumulate reads its target, so +=
// chains serialize in program order), array contents and checksums stay
// bit-identical to the serial path — the invariant every benchmark
// baseline relies on.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "block/block.hpp"
#include "block/block_id.hpp"
#include "common/fields.hpp"

namespace sia::sip {

class DataflowExecutor {
 public:
  // A not-yet-resolved operand of a window entry: a remote block that had
  // not arrived at decode time. The interpreter thread re-runs `resolve`
  // on every pump until it returns a block (communication managers are
  // not thread safe, so resolution never happens on the pool).
  struct PendingOperand {
    BlockId id;
    // Returns the block once available (issuing/refreshing the fetch as a
    // side effect), or nullptr while still in flight. May throw — e.g. a
    // get that the home answered with "no such block" — and the error is
    // attributed to the owning entry.
    std::function<BlockPtr()> resolve;
    // Where to deposit the resolved block (a slot inside the entry's
    // closure state, written on the interpreter thread before the entry
    // becomes ready; the state transition publishes it to the pool).
    std::function<void(BlockPtr)> deposit;
  };

  struct Entry {
    // Block-level hazard sets. Keys are base (container) BlockIds; sliced
    // accesses are tracked conservatively through their containing block.
    std::vector<BlockId> reads;
    std::vector<BlockId> writes;
    // Writes backed by freshly allocated storage (decode-time register
    // renaming of full temp overwrites): earlier in-flight accesses hold
    // pointers to the superseded physical block, so these take no
    // WAW/WAR dependencies — but they still claim the scoreboard's
    // last-writer slot so later readers RAW-chain onto this entry. An id
    // must not appear in both `writes` and `renamed_writes`.
    std::vector<BlockId> renamed_writes;
    // Heavy work, run on a pool thread once hazards are clear and all
    // pending operands resolved. May be null (retire-only entries, e.g. a
    // deferred get issue).
    std::function<void()> execute;
    // Program-order side effects, run on the interpreter thread at
    // retirement (put/prepare sends, deferred gets). May be null.
    std::function<void()> retire;
    std::vector<PendingOperand> pending_operands;
    // Bytecode position, for error attribution.
    int pc = -1;
  };

  struct Stats {
    std::int64_t tasks_executed = 0;    // entries run on the pool
    std::int64_t entries_retired = 0;
    std::int64_t hazard_stalls = 0;     // entries enqueued with live deps
    // Dependency edges observed at enqueue, classified by hazard kind
    // (an entry may contribute several edges; edges are counted before
    // dedup against other kinds, so their sum can exceed hazard_stalls).
    std::int64_t raw_deps = 0;          // read waits on an earlier write
    std::int64_t war_deps = 0;          // write waits on an earlier read
    std::int64_t waw_deps = 0;          // write waits on an earlier write
    std::int64_t operand_stalls = 0;    // entries that parked on a fetch
    std::int64_t drains = 0;            // full-window drains
    std::int64_t window_peak = 0;       // max simultaneous entries
    std::int64_t occupancy_sum = 0;     // window size sampled at enqueue
    std::int64_t occupancy_samples = 0;
    double drain_wait_seconds = 0.0;    // interpreter blocked in drain()
    // Per-pool-thread busy time and task counts (timeline summary).
    std::vector<double> thread_busy_seconds;
    std::vector<std::int64_t> thread_tasks;

    // Field list for the rank report (common/fields.hpp).
    template <class Visit, class... S>
    static void fields(Visit&& visit, S&... s) {
      visit("tasks_executed", Fold::kSum, s.tasks_executed...);
      visit("entries_retired", Fold::kSum, s.entries_retired...);
      visit("hazard_stalls", Fold::kSum, s.hazard_stalls...);
      visit("raw_deps", Fold::kSum, s.raw_deps...);
      visit("war_deps", Fold::kSum, s.war_deps...);
      visit("waw_deps", Fold::kSum, s.waw_deps...);
      visit("operand_stalls", Fold::kSum, s.operand_stalls...);
      visit("drains", Fold::kSum, s.drains...);
      visit("window_peak", Fold::kMax, s.window_peak...);
      visit("occupancy_sum", Fold::kSum, s.occupancy_sum...);
      visit("occupancy_samples", Fold::kSum, s.occupancy_samples...);
      visit("drain_wait_seconds", Fold::kSum, s.drain_wait_seconds...);
      visit("thread_busy_seconds", Fold::kSum, s.thread_busy_seconds...);
      visit("thread_tasks", Fold::kSum, s.thread_tasks...);
    }
  };

  // `threads` >= 1. `window_limit` bounds the number of in-flight entries
  // (the scan-ahead distance).
  DataflowExecutor(int threads, std::size_t window_limit);
  ~DataflowExecutor();
  DataflowExecutor(const DataflowExecutor&) = delete;
  DataflowExecutor& operator=(const DataflowExecutor&) = delete;

  // ------------------------------------------------------------------
  // Interpreter-thread interface.

  // Adds an entry at the window tail. The caller must have made room
  // first (window_full() false — see pump/wait_progress).
  void enqueue(Entry entry);

  // Makes progress without blocking: resolves pending operands, issues
  // newly ready entries to the pool, and retires completed entries from
  // the window head in program order (running their retire actions).
  // Rethrows, in program order, any error a pool thread captured.
  void pump();

  // Blocks up to `timeout_ms` for a completion event (or returns at once
  // if one arrived since the last pump). The caller loops
  // { pump(); service_messages(); wait_progress(...); } so fabric service
  // continues while compute is in flight.
  void wait_progress(int timeout_ms);

  bool window_full() const { return window_.size() >= window_limit_; }
  bool idle() const { return window_.empty(); }
  std::size_t window_size() const { return window_.size(); }

  // True while any un-retired entry writes `id` (used by the interpreter
  // to order scan-time reads behind window writes).
  bool writes_block(const BlockId& id) const;

  // Drops every entry that has not started executing and waits for the
  // running ones; retire actions are NOT run. Used on abort paths so the
  // worker can unwind without waiting for operands that will never
  // arrive. Safe to call repeatedly.
  void cancel();

  // Accounting for interpreter-side drains (waiting the window empty at
  // a boundary): bumps Stats::drains / drain_wait_seconds.
  void record_drain(double wait_seconds);

  // Bytecode position of the entry whose error pump() is currently
  // rethrowing (or whose retire action is running); -1 otherwise. Lets
  // the interpreter attribute deferred errors to the right SIAL line.
  int last_error_pc() const { return last_error_pc_; }

  int threads() const { return static_cast<int>(pool_.size()); }
  const Stats& stats() const { return stats_; }

 private:
  enum class State {
    kWaitingOperands,  // pending operands unresolved
    kWaitingHazards,   // operands ready, earlier conflicting entries live
    kReady,            // queued for the pool
    kRunning,
    kDone,             // execute finished (or failed: error_ set)
    kRetired,
  };

  struct Node {
    Entry entry;
    std::uint64_t seq = 0;
    State state = State::kWaitingOperands;
    int unmet_deps = 0;              // earlier entries this one waits on
    std::vector<Node*> dependents;   // entries waiting on this one
    std::exception_ptr error;
    bool counted_operand_stall = false;
  };

  // Per-hazard-key scoreboard: the last enqueued writer and the readers
  // that arrived after it (what a later writer must wait out).
  struct KeyState {
    Node* last_writer = nullptr;
    std::vector<Node*> readers_since_write;
  };

  void worker_loop(int thread_index);
  // Lock held. Moves a node whose deps and operands cleared into the
  // ready queue (or straight to Done for retire-only entries).
  void make_ready_locked(Node* node);
  void on_complete_locked(Node* node);
  void resolve_operands_locked(std::unique_lock<std::mutex>& lock);

  const std::size_t window_limit_;
  mutable std::mutex mutex_;
  std::condition_variable pool_cv_;      // wakes pool threads
  std::condition_variable progress_cv_;  // wakes the interpreter thread
  std::deque<std::unique_ptr<Node>> window_;  // program order, head retires
  std::vector<Node*> ready_;                  // issue queue for the pool
  std::unordered_map<BlockId, KeyState, BlockIdHash> keys_;
  // Un-retired write counts per block, for writes_block().
  std::unordered_map<BlockId, int, BlockIdHash> live_writes_;
  std::uint64_t next_seq_ = 1;
  int last_error_pc_ = -1;
  bool progress_event_ = false;
  bool shutdown_ = false;
  bool cancelled_ = false;
  std::vector<std::thread> pool_;
  Stats stats_;
};

}  // namespace sia::sip
