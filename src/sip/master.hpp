// The SIP master and the dry-run memory analysis.
//
// "The SIP is organized as a master, a set of workers, and a set of I/O
// servers... the master inspects the SIAL program in 'dry-run' mode [to]
// estimate the memory requirements for each worker... If the information
// from the dry run implies that the computation is not feasible with the
// available memory, this is reported to the user along with the number of
// processors that would be sufficient." (paper §V-B).
//
// At run time the master is a pure message-protocol server: it doles out
// guided pardo chunks, coordinates the two barrier kinds (releasing
// workers only after I/O servers flushed for server_barrier), and reduces
// collective scalars.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/fields.hpp"
#include "sip/scheduler.hpp"
#include "sip/shared.hpp"

namespace sia::sip {

// Result of the master's dry-run analysis.
struct DryRunReport {
  std::size_t worker_budget_bytes = 0;
  std::size_t static_bytes = 0;      // replicated static arrays
  std::size_t temp_peak_bytes = 0;   // temp blocks per pardo iteration
  std::size_t local_bytes = 0;       // allocate'd local array regions
  std::size_t cache_demand_bytes = 0;  // remote blocks incl. prefetch depth
  std::size_t dist_total_bytes = 0;  // all distributed arrays, all workers
  std::size_t dist_share_bytes = 0;  // per-worker share at current count
  std::size_t served_total_bytes = 0;  // disk-resident, for information

  bool feasible = true;
  // Smallest worker count that would fit; 0 if no count can (fixed costs
  // alone exceed the budget).
  int workers_needed = 0;

  // Pool size classes derived from the block shapes the program uses:
  // capacity in doubles -> number of slots per worker.
  std::map<std::size_t, std::size_t> pool_plan;

  std::size_t per_worker_bytes() const {
    return static_bytes + temp_peak_bytes + local_bytes +
           cache_demand_bytes + dist_share_bytes;
  }
  std::string to_string() const;
};

// Analyzes the program against the configuration. Pure function of the
// resolved program.
DryRunReport dry_run(const sial::ResolvedProgram& program);

// Master rank main loop; returns once all workers reported completion (or
// on abort). Sends kShutdown to the I/O servers on the way out.
class Master {
 public:
  struct Stats {
    std::int64_t heartbeats_missed = 0;   // individual missed beats
    std::int64_t server_recoveries = 0;   // successful I/O-server respawns
    // Guided-schedule scheduling + work stealing.
    std::int64_t chunks_served = 0;       // chunks granted from schedules
    std::int64_t steal_attempts = 0;      // split proposals sent to victims
    std::int64_t steals_granted = 0;      // non-empty grants forwarded
    std::int64_t stolen_iterations = 0;   // iterations moved by stealing
    // Iterations granted per worker (schedule chunks + stolen tails),
    // indexed by worker: the imbalance histogram for the ProfileReport.
    std::vector<std::int64_t> worker_iterations;

    // Field list for the rank report (common/fields.hpp).
    template <class Visit, class... S>
    static void fields(Visit&& visit, S&... s) {
      visit("heartbeats_missed", Fold::kSum, s.heartbeats_missed...);
      visit("server_recoveries", Fold::kSum, s.server_recoveries...);
      visit("chunks_served", Fold::kSum, s.chunks_served...);
      visit("steal_attempts", Fold::kSum, s.steal_attempts...);
      visit("steals_granted", Fold::kSum, s.steals_granted...);
      visit("stolen_iterations", Fold::kSum, s.stolen_iterations...);
      visit("worker_iterations", Fold::kSum, s.worker_iterations...);
    }
  };

  explicit Master(SipShared& shared);
  void run();
  const Stats& stats() const { return stats_; }

 private:
  struct BarrierState {
    int entered = 0;
    std::set<int> acked_servers;  // ranks whose flush-ack arrived
    bool waiting_servers = false;
  };
  struct CollectiveState {
    int arrived = 0;
    double sum = 0.0;
  };

  // One pardo instance's chunk bookkeeping key.
  struct ChunkKey {
    int pardo_id = 0;
    std::int64_t instance = 0;
    bool operator<(const ChunkKey& other) const {
      return pardo_id != other.pardo_id ? pardo_id < other.pardo_id
                                        : instance < other.instance;
    }
    bool operator==(const ChunkKey& other) const {
      return pardo_id == other.pardo_id && instance == other.instance;
    }
  };
  // The chunk most recently granted to a worker and not yet finished
  // (the worker finishes it exactly when its next request arrives).
  struct OutstandingChunk {
    ChunkKey key;
    std::int64_t begin = 0, end = 0;
    bool valid = false;
    bool steal_failed = false;  // victim answered an empty grant for it
  };
  struct StealInFlight {
    ChunkKey key;
    int victim_rank = 0;
  };

  void handle_chunk_request(const msg::Message& message);
  void handle_steal_reply(const msg::Message& message);
  // Schedule exhausted but `key` still has starved requesters: start a
  // steal against the worker with the largest outstanding chunk, or —
  // when nothing is stealable — answer everyone "done".
  void resolve_starved(const ChunkKey& key);
  void send_chunk_reply(int rank, const ChunkKey& key, std::int64_t begin,
                        std::int64_t end);
  void handle_barrier_enter(const msg::Message& message);
  void handle_server_ack(const msg::Message& message);
  void handle_scalar_reduce(const msg::Message& message);
  void release_barrier(std::int64_t seq);

  // Heartbeat watchdog (fault tolerance): evaluate last round's acks,
  // escalate unresponsive ranks, broadcast the next ping.
  void heartbeat_tick();
  // Sends kAbort (carrying the first error) to every non-master rank via
  // deliver(), bypassing the stopped-fabric send gate. Thread-mode ranks
  // learn of an abort from the shared flag; spawned process ranks only
  // learn from this message.
  void broadcast_abort();
  // A rank missed `heartbeat_misses` consecutive beats: respawn a dead
  // I/O server, or abort the run with a diagnosis naming the rank and
  // what every other rank is currently blocked on.
  void handle_dead_rank(int rank);

  SipShared& shared_;
  ScheduleTable schedules_;
  std::map<std::int64_t, BarrierState> barriers_;       // by sequence
  std::map<std::int64_t, CollectiveState> collectives_; // by sequence
  int workers_done_ = 0;

  // Work-stealing state. outstanding_ is indexed by worker (rank - 1);
  // starved_ queues requesters whose reply waits on a steal resolution;
  // at most one steal is in flight at a time (the victim answers exactly
  // once, so resolution is a simple state machine).
  bool stealing_ = false;  // a lone worker has no victim
  std::vector<OutstandingChunk> outstanding_;
  std::map<ChunkKey, std::deque<int>> starved_;
  std::optional<StealInFlight> steal_;
  // Granted-but-unassigned ranges (steal resolved after its thief was
  // answered by another path); served ahead of the schedule.
  std::map<ChunkKey, std::vector<std::pair<std::int64_t, std::int64_t>>>
      spare_;

  // Watchdog state, indexed by fabric rank.
  std::int64_t heartbeat_tick_ = 0;
  std::vector<std::int64_t> last_heartbeat_ack_;
  std::vector<int> heartbeat_miss_streak_;
  Stats stats_;
};

}  // namespace sia::sip
