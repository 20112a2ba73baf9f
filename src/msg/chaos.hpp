// Deterministic fault injection over the message fabric.
//
// ChaosFabric is a true decorator: it owns any base Fabric — the plain
// thread fabric or a SocketFabric — and interposes on sends. Every send
// of a protected data-plane message consults a FaultPlan and a seeded
// counter-keyed RNG to decide whether to drop, delay, duplicate, or
// reorder it, and a scheduled rank kill makes one rank's sends and
// receives go dark at its Nth message. Every decision is a pure function
// of {plan.seed, sending rank, that rank's send counter}, so a chaos run
// replays bit-identically from its plan string — no wall-clock or global
// state enters the draw — and the draws are identical whether the ranks
// share a process or not: each rank's sends enter the chaos layer of the
// process that hosts it, keyed by its own counter.
//
// Faults only touch the retryable data-plane tags (gets/puts/prepares/
// requests/replies/acks): the SIP's control plane (barriers, chunk
// grants, shutdown) is the fabric's own invariant layer and the reliable
// protocol does not cover it. Rank darkness, however, swallows
// *everything* to and from the dead rank — including heartbeats, which is
// exactly how the master's watchdog detects the death.
//
// DiskFaultInjector is the disk-side counterpart: DiskStore calls
// `check()` around pread/pwrite and the injector throws an injected
// EIO/ENOSPC/short-write at the Nth tracked operation, exercising the
// PR-3 error paths end to end.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/fields.hpp"
#include "msg/fabric.hpp"

namespace sia::msg {

// Counts of injected faults by kind, aggregated over the whole fabric.
struct ChaosStats {
  std::int64_t drops = 0;
  std::int64_t dups = 0;
  std::int64_t delays = 0;
  std::int64_t reorders = 0;
  std::int64_t kill_swallowed = 0;  // messages eaten by rank darkness

  std::int64_t total() const {
    return drops + dups + delays + reorders + kill_swallowed;
  }

  // Field list for the rank report (common/fields.hpp).
  template <class Visit, class... S>
  static void fields(Visit&& visit, S&... s) {
    visit("drops", Fold::kSum, s.drops...);
    visit("dups", Fold::kSum, s.dups...);
    visit("delays", Fold::kSum, s.delays...);
    visit("reorders", Fold::kSum, s.reorders...);
    visit("kill_swallowed", Fold::kSum, s.kill_swallowed...);
  }
};

class ChaosFabric : public Fabric {
 public:
  // Decorates `base` (which must outlive nothing — ownership transfers).
  ChaosFabric(std::unique_ptr<Fabric> base, const FaultPlan& plan);
  // Convenience: wraps a fresh in-process thread fabric of `ranks`.
  ChaosFabric(int ranks, const FaultPlan& plan);
  ~ChaosFabric() override;

  void send(int src, int dst, Message message) override;
  std::optional<Message> try_recv(int rank) override;
  std::optional<Message> try_recv_tag(int rank, int tag) override;
  bool has_message(int rank) const override;
  std::optional<Message> recv(int rank) override;
  std::optional<Message> recv_for(int rank, int timeout_ms) override;
  void barrier(int rank) override;
  void stop() override;
  TrafficStats stats(int rank) const override;
  TrafficStats total_stats() const override;
  void record_screened(int rank, std::int64_t doubles_elided) override;
  // Injection past the fault layer (used by the internal delay pump):
  // goes straight to the base fabric.
  void deliver(int src, int dst, Message message) override;

  bool killed(int rank) const override {
    return killed_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }
  // Clears the darkness after the master respawned the rank's thread.
  // Does not reset the kill trigger: a plan kills a rank at most once.
  void revive(int rank) override;

  ChaosStats chaos_stats() const;

  // The decorated transport (e.g. to reach SocketFabric accessors).
  Fabric& base() { return *base_; }
  const Fabric& base() const { return *base_; }

  // Called (once) when the scheduled kill fires, with the dying rank.
  // Spawned child processes install `raise(SIGKILL)` here so a chaos kill
  // is a real process death instead of simulated darkness; in thread mode
  // it stays empty and darkness does the simulating.
  void set_kill_hook(std::function<void(int)> hook) {
    kill_hook_ = std::move(hook);
  }

 private:
  // True for tags the reliable protocol covers; only these are eligible
  // for random drop/delay/dup/reorder.
  static bool protected_tag(int tag);
  // Deterministic uniform draw in [0,1) for this (src, counter, salt).
  double draw(int src, std::uint64_t counter, std::uint64_t salt) const;

  void enqueue_delayed(int src, int dst, Message message, int delay_ms);
  void pump_delayed();  // timer-thread body

  std::unique_ptr<Fabric> base_;
  FaultPlan plan_;
  std::function<void(int)> kill_hook_;
  // Per-rank counter of protected sends (keys the RNG) and of all sends
  // (triggers the scheduled kill).
  std::vector<std::atomic<std::uint64_t>> sent_counter_;
  std::vector<std::atomic<std::uint64_t>> kill_counter_;
  std::vector<std::atomic<bool>> killed_;
  // One-shot latch: a plan kills its rank at most once per run, so a
  // revived rank stays alive even though the counter is past the trigger.
  std::atomic<bool> kill_fired_{false};

  std::atomic<std::int64_t> drops_{0};
  std::atomic<std::int64_t> dups_{0};
  std::atomic<std::int64_t> delays_{0};
  std::atomic<std::int64_t> reorders_{0};
  std::atomic<std::int64_t> kill_swallowed_{0};

  struct Delayed {
    std::chrono::steady_clock::time_point due;
    std::uint64_t order;  // tie-break: preserve enqueue order at equal due
    int src;
    int dst;
    Message msg;
  };
  struct DelayedLater {
    bool operator()(const Delayed& a, const Delayed& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.order > b.order;
    }
  };
  mutable std::mutex delay_mutex_;
  std::condition_variable delay_cv_;
  std::priority_queue<Delayed, std::vector<Delayed>, DelayedLater> delayed_;
  std::uint64_t delay_order_ = 0;
  bool delay_quit_ = false;
  std::thread delay_thread_;
};

// Shared injector for DiskStore faults: one per launch, threaded through
// SipShared so every store on every server increments the same operation
// counter. Throws sia::RuntimeError at the Nth tracked operation.
class DiskFaultInjector {
 public:
  explicit DiskFaultInjector(const FaultPlan& plan)
      : kind_(plan.disk_fault), at_op_(plan.disk_fault_at_op) {}

  // Called around each tracked DiskStore pread/pwrite. `what` names the
  // operation for the diagnostic ("write array T2 block 17").
  void check(const std::string& what);

  std::int64_t faults_injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  int kind_;  // 0 none, 1 EIO, 2 ENOSPC, 3 short write
  long at_op_;
  std::atomic<long> op_counter_{0};
  std::atomic<std::int64_t> injected_{0};
};

}  // namespace sia::msg
