// SIP profiling.
//
// "Because basic operations are relatively time consuming, we can keep
// track of very detailed performance metrics without an impact on
// performance" (paper §VIII). Each worker records per-instruction wall
// time, and per-pardo elapsed and wait time; "wait time indicates how much
// time is spent waiting for blocks of data to become available. Small wait
// times indicate effective overlap of computation and communication"
// (§VI-B). Reports aggregate across workers and map back to source lines —
// the paper stresses that this mapping is transparent because the compiler
// does not optimize.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/fields.hpp"

namespace sia::sip {

// What a worker was blocked on while servicing messages. Block/served
// waits are the paper's headline metric ("wait time indicates how much
// time is spent waiting for blocks of data", §VI-B); the other kinds
// separate scheduler and synchronization stalls from data stalls.
enum class WaitKind : int {
  kBlock = 0,   // distributed-array get reply
  kServed,      // served-array request reply
  kChunk,       // master chunk grant
  kBarrier,     // barrier release
  kCollective,  // collective result
};
inline constexpr std::size_t kWaitKindCount = 5;

class Profiler {
 public:
  explicit Profiler(bool enabled) : enabled_(enabled) {}

  void record_instruction(int pc, int line, const char* opcode,
                          double seconds) {
    if (!enabled_) return;
    Entry& entry = instructions_[pc];
    entry.line = line;
    entry.opcode = opcode;
    entry.count += 1;
    entry.seconds += seconds;
  }

  // Wait time: spent blocked (servicing messages) on something that had
  // not yet arrived, bucketed by what was awaited.
  void record_wait(int pardo_id, double seconds, WaitKind kind) {
    if (!enabled_) return;
    total_wait_ += seconds;
    wait_by_kind_[static_cast<std::size_t>(kind)] += seconds;
    if (pardo_id >= 0) pardo_[pardo_id].wait += seconds;
  }

  void record_pardo_iteration(int pardo_id) {
    if (!enabled_) return;
    pardo_[pardo_id].iterations += 1;
  }

  void record_pardo_elapsed(int pardo_id, double seconds) {
    if (!enabled_) return;
    pardo_[pardo_id].elapsed += seconds;
  }

  void record_total(double seconds) { total_elapsed_ += seconds; }

  struct Entry {
    int line = 0;
    const char* opcode = "";
    std::int64_t count = 0;
    double seconds = 0.0;
    // Line and opcode are a function of the pc key, so the list (and a
    // decoded report) carries only the costs.
    template <class Visit, class... S>
    static void fields(Visit&& visit, S&... s) {
      visit("count", Fold::kSum, s.count...);
      visit("seconds", Fold::kSum, s.seconds...);
    }
  };
  struct PardoEntry {
    std::int64_t iterations = 0;
    double elapsed = 0.0;
    double wait = 0.0;
    template <class Visit, class... S>
    static void fields(Visit&& visit, S&... s) {
      visit("iterations", Fold::kSum, s.iterations...);
      visit("elapsed", Fold::kSum, s.elapsed...);
      visit("wait", Fold::kSum, s.wait...);
    }
  };

  const std::map<int, Entry>& instructions() const { return instructions_; }
  const std::map<int, PardoEntry>& pardos() const { return pardo_; }
  double total_wait() const { return total_wait_; }
  double total_elapsed() const { return total_elapsed_; }
  double wait_for(WaitKind kind) const {
    return wait_by_kind_[static_cast<std::size_t>(kind)];
  }
  // Get/request wait: time blocked on distributed or served block data.
  double block_wait() const {
    return wait_for(WaitKind::kBlock) + wait_for(WaitKind::kServed);
  }

  // Field list for the rank report (common/fields.hpp); the elapsed time
  // folds to the slowest worker's.
  template <class Visit, class... S>
  static void fields(Visit&& visit, S&... s) {
    visit("instructions", Fold::kSum, s.instructions_...);
    visit("pardos", Fold::kSum, s.pardo_...);
    visit("wait", Fold::kSum, s.total_wait_...);
    visit("elapsed", Fold::kMax, s.total_elapsed_...);
    visit("block_wait", Fold::kSum, s.wait_by_kind_[0]...);
    visit("served_wait", Fold::kSum, s.wait_by_kind_[1]...);
    visit("chunk_wait", Fold::kSum, s.wait_by_kind_[2]...);
    visit("barrier_wait", Fold::kSum, s.wait_by_kind_[3]...);
    visit("collective_wait", Fold::kSum, s.wait_by_kind_[4]...);
  }

 private:
  bool enabled_;
  std::map<int, Entry> instructions_;   // keyed by pc
  std::map<int, PardoEntry> pardo_;     // keyed by pardo table id
  double total_wait_ = 0.0;
  double total_elapsed_ = 0.0;
  std::array<double, kWaitKindCount> wait_by_kind_{};
};

// Aggregated view over all workers, returned from a SIP run.
struct ProfileReport {
  struct LineCost {
    int line = 0;
    std::string opcode;
    std::int64_t count = 0;
    double seconds = 0.0;
  };
  struct PardoCost {
    int pardo_id = 0;
    int line = 0;
    std::int64_t iterations = 0;
    double elapsed = 0.0;   // summed over workers
    double wait = 0.0;      // summed over workers
  };

  std::vector<LineCost> lines;    // sorted by cost, descending
  std::vector<PardoCost> pardos;  // by pardo id
  double total_elapsed = 0.0;     // wall time of the slowest worker
  double total_wait = 0.0;        // summed over workers
  double total_busy = 0.0;        // summed instruction time over workers

  // Wait-time breakdown by kind, summed over workers.
  double block_wait = 0.0;        // distributed get replies
  double served_wait = 0.0;       // served request replies
  double chunk_wait = 0.0;        // master chunk grants
  double barrier_wait = 0.0;      // barrier releases
  double collective_wait = 0.0;   // collective results
  // Per-worker get/request wait (block + served), indexed by worker.
  std::vector<double> worker_block_wait;

  // Served-array pipeline counters, aggregated over workers (client side)
  // and I/O servers (server side). All zero when no served traffic ran.
  struct ServedPipeline {
    // Client (ServedArrayClient::Stats, summed over workers).
    std::int64_t client_requests_issued = 0;
    std::int64_t client_requests_cached = 0;
    std::int64_t client_lookahead_issued = 0;
    std::int64_t client_lookahead_misses = 0;
    // Demand requests sent while a look-ahead for the same block was
    // still in flight (promotes the server's queued read-ahead job).
    std::int64_t client_lookahead_promoted = 0;
    // Server (IoServer::Stats, summed over I/O servers).
    std::int64_t server_requests = 0;
    std::int64_t server_lookahead_requests = 0;
    std::int64_t server_cache_hits = 0;
    std::int64_t server_disk_reads = 0;
    std::int64_t server_disk_writes = 0;
    std::int64_t reads_coalesced = 0;
    std::int64_t write_batches = 0;
    std::int64_t map_flushes = 0;
    std::int64_t computed = 0;

    bool any() const {
      return client_requests_issued != 0 || client_requests_cached != 0 ||
             client_lookahead_issued != 0 || server_requests != 0 ||
             server_lookahead_requests != 0 || server_disk_writes != 0;
    }
  };
  ServedPipeline served;

  // Fault-tolerance counters, aggregated over workers (reliable-channel
  // retransmit state), receivers (dedup windows), the master (watchdog),
  // and the chaos fabric / disk injector (faults actually injected). All
  // zero in a fault-free run with the reliable protocol off.
  struct Robustness {
    std::int64_t retries_sent = 0;       // tracked sends retransmitted
    std::int64_t dup_msgs_dropped = 0;   // exactly-once dedup hits
    std::int64_t acks_timed_out = 0;     // sends that exhausted retry_max
    std::int64_t heartbeats_missed = 0;  // individual missed beats
    std::int64_t server_recoveries = 0;  // I/O-server respawns
    std::int64_t sends_after_stop = 0;   // counted no-op sends (shutdown)
    // Faults injected, by kind.
    std::int64_t faults_dropped = 0;
    std::int64_t faults_duplicated = 0;
    std::int64_t faults_delayed = 0;
    std::int64_t faults_reordered = 0;
    std::int64_t faults_kill_swallowed = 0;  // sends/recvs of a dead rank
    std::int64_t faults_disk = 0;

    std::int64_t faults_injected() const {
      return faults_dropped + faults_duplicated + faults_delayed +
             faults_reordered + faults_kill_swallowed + faults_disk;
    }
    bool any() const {
      return retries_sent != 0 || dup_msgs_dropped != 0 ||
             acks_timed_out != 0 || heartbeats_missed != 0 ||
             server_recoveries != 0 || sends_after_stop != 0 ||
             faults_injected() != 0;
    }
  };
  Robustness robustness;

  // Workers run one sequential interpreter each, so these are always 0.
  // They remain only because the sipbench per-layer report still reads
  // them; the next benchmark change drops them.
  struct Executor {
    std::int64_t hazard_stalls = 0;
    double drain_wait_seconds = 0.0;
    double thread_busy_seconds = 0.0;
  };
  Executor executor;

  // Norm-based screening counters (sparse arrays, sparse_threshold > 0),
  // aggregated over workers, servers, and the fabric. All zero when
  // screening is off.
  struct Screening {
    double threshold = 0.0;            // config.sparse_threshold
    std::int64_t blocks_screened = 0;  // payload transfers elided (fabric)
    std::int64_t bytes_elided = 0;     // bytes those payloads would move
    std::int64_t kernels_screened = 0; // GEMMs/dots/permutes skipped
    std::int64_t puts_screened = 0;      // dist put payloads dropped
    std::int64_t gets_screened = 0;      // dist gets answered norm-only
    std::int64_t prepares_screened = 0;  // served prepares dropped/markers
    std::int64_t requests_screened = 0;  // served requests norm-only
    std::int64_t zero_reads = 0;         // reads satisfied by the zero block
    std::int64_t evictions_screened = 0; // dirty victims re-screened
    // Per sparse array: blocks absent-or-screened vs total blocks.
    struct ArrayCensus {
      std::string name;
      std::int64_t screened = 0;
      std::int64_t total = 0;
    };
    std::vector<ArrayCensus> arrays;

    bool any() const {
      return threshold > 0.0 &&
             (blocks_screened != 0 || kernels_screened != 0 ||
              puts_screened != 0 || gets_screened != 0 ||
              prepares_screened != 0 || requests_screened != 0 ||
              zero_reads != 0 || !arrays.empty());
    }
  };
  Screening screening;

  // Launch-time planner record (config.autotune): what the DES model
  // predicted, what actually happened, and how far apart they were. All
  // zero/false when the run was not planned.
  struct Plan {
    bool planned = false;
    bool calibrated = false;        // calibration file had prior runs
    double predicted_seconds = 0.0; // DES prediction for the chosen plan
    double actual_seconds = 0.0;    // measured wall time of the run
    int candidates = 0;             // configurations swept
    std::string summary;            // chosen knobs, "key=value ..." form
    std::vector<std::string> pinned;  // user-set knobs left untouched

    double error_percent() const {
      if (actual_seconds <= 0.0 || predicted_seconds <= 0.0) return 0.0;
      return 100.0 * (predicted_seconds - actual_seconds) / actual_seconds;
    }
    bool any() const { return planned; }
  };
  Plan plan;

  // Guided-schedule counters from the master: chunks served, work-steal
  // traffic, and the per-worker iteration histogram.
  struct Scheduling {
    std::int64_t chunks_served = 0;
    std::int64_t steal_attempts = 0;
    std::int64_t steals_granted = 0;
    std::int64_t stolen_iterations = 0;
    std::vector<std::int64_t> worker_iterations;  // indexed by worker

    // Spread of the iteration histogram: (max - min) / mean, percent.
    double imbalance_percent() const;
    bool any() const { return chunks_served != 0 || steal_attempts != 0; }
  };
  Scheduling scheduling;

  // Percentage of elapsed time spent waiting (the paper's bottom line in
  // Fig. 2), averaged over workers.
  double wait_percent() const;

  std::string to_string() const;
};

}  // namespace sia::sip
