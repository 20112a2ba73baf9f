// Runtime configuration for the SIP.
//
// The paper stresses that tuning parameters — most importantly the segment
// size — are *not* visible in SIAL source; they are chosen by the runtime
// or by a knowledgeable user as runtime parameters. SipConfig is that set
// of runtime parameters.
//
// A knob is a member plus one line in its struct's `fields` list, which
// gives its name, valid range and planner dimension (fields.hpp Knob).
// Everything else walks that list: validate() checks the ranges, the
// spawn bundle prints and parses every field by name (sip/spawn.hpp),
// the planner pins the tuned knobs moved off their default and prints
// the tuned ones in its plan summary, and sial_tool's flags set fields
// by name through the same strict parser.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "common/fields.hpp"

namespace sia {

// Deterministic fault-injection plan. Every fault the ChaosFabric and the
// DiskStore inject is a pure function of {seed, plan, message/op index},
// so a failing chaos run replays exactly from its plan string.
//
// Parse format (also accepted from the SIA_FAULT_PLAN environment
// variable): comma-separated key=value pairs, e.g.
//   drop=0.01,delay_ms=5,dup=0.01,kill_rank=5@msg:200,disk=eio@op:40,seed=42
// Keys: drop / dup / reorder (probabilities in [0,1]), delay_ms /
// delay_jitter_ms (fixed + uniform-random extra delay), kill_rank=R@msg:N
// (rank R goes dark at its Nth sent message), disk=eio|enospc|short@op:N
// (the Nth tracked DiskStore operation fails), seed (RNG seed).
struct FaultPlan {
  double drop = 0.0;     // P(drop) per protected data-plane message
  double dup = 0.0;      // P(duplicate)
  double reorder = 0.0;  // P(reorder within tag) — applied as a small delay
  int delay_ms = 0;          // fixed delivery delay for every message
  int delay_jitter_ms = 0;   // extra uniform-random delay in [0, jitter]
  int kill_rank = -1;        // rank to kill (-1: none)
  long kill_at_msg = 0;      // ...at its Nth counted message
  // Disk fault: 0 none, 1 EIO, 2 ENOSPC, 3 short write.
  int disk_fault = 0;
  long disk_fault_at_op = 0;  // ...at the Nth tracked DiskStore operation
  std::uint64_t seed = 1;

  template <class Visit, class... S>
  static void fields(Visit&& visit, S&... s) {
    visit("drop", Knob{.min = 0, .max = 1}, s.drop...);
    visit("dup", Knob{.min = 0, .max = 1}, s.dup...);
    visit("reorder", Knob{.min = 0, .max = 1}, s.reorder...);
    visit("delay_ms", Knob{.min = 0}, s.delay_ms...);
    visit("delay_jitter_ms", Knob{.min = 0}, s.delay_jitter_ms...);
    visit("kill_rank", Knob{.min = -1}, s.kill_rank...);
    visit("kill_at_msg", Knob{}, s.kill_at_msg...);
    visit("disk_fault", Knob{.min = 0, .max = 3}, s.disk_fault...);
    visit("disk_fault_at_op", Knob{}, s.disk_fault_at_op...);
    visit("seed", Knob{}, s.seed...);
  }
  bool operator==(const FaultPlan&) const = default;

  // True when any fault is configured; gates the reliable protocol and
  // the ChaosFabric decorator on.
  bool active() const {
    return drop > 0.0 || dup > 0.0 || reorder > 0.0 || delay_ms > 0 ||
           delay_jitter_ms > 0 || kill_rank >= 0 || disk_fault != 0;
  }

  // Parses the plan string above (any other field may also be set by
  // its list name); throws Error with the offending token on malformed
  // input. Empty string -> empty plan.
  static FaultPlan parse(const std::string& text);
  // Reads SIA_FAULT_PLAN from the environment (empty plan if unset).
  static FaultPlan from_env();

  void validate() const;
};

// Configuration of a SIP launch. Defaults give a small, laptop-friendly
// virtual machine; benchmarks and tests override fields as needed.
struct SipConfig {
  // Ranks. The fabric hosts 1 master + workers + io_servers ranks.
  int workers = 4;
  int io_servers = 1;

  // Segment size applied to every index type that the program does not
  // override via `segment_overrides`. The same segment size applies to all
  // indices of a given type and is constant for the whole run (paper §III).
  int default_segment = 8;
  // Per index-type segment size override, e.g. {"moindex", 4}.
  std::map<std::string, int> segment_overrides;

  // Sub-segments per segment for `subindex` declarations (paper §IV-E:
  // "determined by a runtime parameter in the same way as the segment
  // size"). Must evenly divide the segment size of the super index.
  int subsegments_per_segment = 2;

  // Per-worker block memory budget in bytes; the dry run checks the
  // program's peak demand against this and reports infeasibility.
  std::size_t worker_memory_bytes = 64ull << 20;
  // Per-I/O-server in-memory cache budget in bytes (LRU, write-behind).
  std::size_t server_cache_bytes = 32ull << 20;

  // Bytecode optimization level applied between the SIAL compiler and
  // program finalization (src/sial/opt/). 0 = none (bytecode runs
  // exactly as compiled), 1 = redundant-barrier elimination (bit-exact).
  int opt_level = 1;

  // Number of future loop iterations for which the interpreter issues
  // block requests ahead of use. 0 disables prefetching. Applies to both
  // distributed-array gets and served-array requests (the latter arrive
  // at the I/O server flagged as look-ahead and become low-priority
  // read-ahead jobs).
  int prefetch_depth = 2;

  // Disk service threads per I/O server, and its write-behind lane
  // count. Cache-miss reads (and on-demand block generation) become jobs
  // on this pool so the server's message loop keeps answering cache hits
  // and prepares while reads are in flight; duplicate in-flight requests
  // for the same block coalesce into one disk read.
  int server_disk_threads = 2;

  // Keep served-array files out of the OS page cache: fdatasync once per
  // write-behind batch, then posix_fadvise(DONTNEED) written and read
  // ranges. The server already fronts its disk with an application-level
  // LRU cache (server_cache_bytes), so the page cache only duplicates it
  // and hides the cost the cache exists to manage; cold I/O reproduces
  // the data-larger-than-RAM regime served arrays target and makes reads
  // genuine blocking device I/O the disk pool can overlap.
  bool server_cold_io = false;

  // Norm-based block screening threshold for arrays declared `sparse` in
  // SIAL. A block whose Frobenius norm is below the threshold is treated
  // as zero end to end: it is never allocated, sent, computed with, or
  // written to disk, and reads of it return a canonical shared zero
  // block. Contractions additionally skip the GEMM when the operand norm
  // product is below the threshold. 0 (the default) disables screening
  // entirely and is bit-identical to the dense engine; the result error
  // of a run is bounded by threshold * (number of screened
  // contributions).
  double sparse_threshold = 0.0;

  // Guided-scheduling knobs: first chunks are remaining/(chunk_divisor *
  // workers), never below min_chunk iterations.
  int chunk_divisor = 2;
  long min_chunk = 1;

  // ---- Launch-time autotuning (the planner) ----

  // Sweep the segment size through the priced DES performance model at
  // launch, size the server knobs from the dry run, and apply the plan
  // before resolution. A tuned knob (its `fields` entry names a planner
  // dimension) that differs from a default-constructed SipConfig is
  // pinned and never overridden. The
  // SIA_AUTOTUNE environment variable ("0"/"1") wins over this field
  // either way.
  bool autotune = false;

  // Per-host calibration file (the planner's per-transport cost tables)
  // refitted after each planned run so the model self-corrects. Empty:
  // SIA_CALIBRATION env, else
  // ~/.cache/sia/calibration.
  std::string calibration_file;

  // Directory for served-array disk files and checkpoints. Empty means a
  // fresh directory under the system temp dir, removed at shutdown.
  std::string scratch_dir;

  // Symbolic constants referenced by SIAL programs (e.g. norb, nocc),
  // resolved during program initialization.
  std::map<std::string, long> constants;

  // Served arrays computed on demand at the I/O servers instead of being
  // prepared: array name -> generator name registered with
  // ServerComputeRegistry (paper §V-B: "An I/O server may also perform
  // certain domain specific computations, namely computing blocks of
  // integrals ... computed on demand rather than stored"). A `request`
  // for a block that was never prepared invokes the generator; prepared
  // blocks still take precedence.
  std::map<std::string, std::string> computed_served;

  // ---- Fault tolerance (PR 4) ----

  // Fault-injection plan; empty (inactive) by default. When active the
  // launch wraps the fabric in a ChaosFabric and turns the reliable
  // delivery protocol + heartbeat watchdog on.
  FaultPlan fault_plan;

  // Force the seq/ack/retry protocol on even without fault injection
  // (e.g. to measure its overhead). Off by default: bookkeeping stays off
  // the zero-copy fast path in fault-free runs.
  bool reliable_protocol = false;

  // Retransmit timer for unacked retryable sends, and how many retries a
  // single message gets (exponential backoff, base retry_timeout_ms)
  // before the sender declares the peer dead and aborts with a diagnostic.
  int retry_timeout_ms = 200;
  int retry_max = 10;

  // Master heartbeat period in ms. 0 = auto: off in fault-free runs, on
  // (kAutoHeartbeatMs) when fault tolerance is enabled; < 0 = always off.
  int heartbeat_ms = 0;
  static constexpr int kAutoHeartbeatMs = 100;
  // Consecutive missed pings before a rank is declared dead.
  int heartbeat_misses = 5;

  // ---- Transport (PR 9) ----

  // How ranks talk to each other:
  //   "thread"   — every rank is a thread in this process sharing the
  //                in-process mailbox fabric (the default; zero-copy).
  //   "loopback" — ranks are still threads, but every cross-rank message
  //                is framed and carried over a real socketpair through
  //                msg::SocketFabric. Same results, real wire path:
  //                the transport-parity test mode and the socket-overhead
  //                bench column.
  //   "spawn"    — every worker and I/O-server rank runs in its own OS
  //                process (fork/exec), connected to the master's hub
  //                socket. The paper's one-rank-per-MPI-process shape.
  std::string transport = "thread";

  // Socket address for spawn mode ("unix:<path>" or "tcp:<host>:<port>",
  // port 0 = ephemeral). Empty: a unix socket in the scratch directory,
  // falling back to loopback TCP when the path would exceed sun_path.
  std::string socket_address;

  // Binary to exec for spawned ranks; it must call
  // sip::run_spawn_child() from main when sip::is_spawn_child() (see
  // sip/spawn.hpp). Empty: re-exec this executable via /proc/self/exe.
  std::string spawn_helper;

  // How long a spoke keeps retrying its initial connect / a reconnect
  // (exponential backoff) before declaring the hub unreachable.
  int connect_timeout_ms = 10000;

  // Capacity in doubles of each worker's remote-block cache (one for
  // distributed gets, one for served requests): a quarter of the worker
  // budget, at least 4096.
  std::size_t worker_cache_doubles() const {
    return std::max<std::size_t>(worker_memory_bytes / sizeof(double) / 4,
                                 4096);
  }

  bool socket_transport() const { return transport != "thread"; }
  bool spawn_processes() const { return transport == "spawn"; }

  // Effective switch for the seq/ack/dedup machinery.
  bool fault_tolerance_enabled() const {
    return reliable_protocol || fault_plan.active();
  }
  // Effective heartbeat period (ms); 0 means no heartbeat.
  int effective_heartbeat_ms() const {
    if (heartbeat_ms > 0) return heartbeat_ms;
    if (heartbeat_ms == 0 && fault_tolerance_enabled()) {
      return kAutoHeartbeatMs;
    }
    return 0;
  }

  // Throws Error naming the first field outside its listed range, or on
  // a combination that cannot work (an unknown transport, a kill_rank
  // beyond this launch or on the master).
  void validate() const;

  int total_ranks() const { return 1 + workers + io_servers; }
  int master_rank() const { return 0; }
  int first_worker_rank() const { return 1; }
  int first_server_rank() const { return 1 + workers; }

  // Segment size for a given index type name.
  int segment_for(const std::string& index_type) const;

  // Every field, once. Ranges checked by validate() span single fields;
  // `tuned` names the planner dimension (both segment fields are one).
  template <class Visit, class... S>
  static void fields(Visit&& visit, S&... s) {
    visit("workers", Knob{.min = 1}, s.workers...);
    visit("io_servers", Knob{.min = 0}, s.io_servers...);
    visit("default_segment", Knob{.min = 1, .tuned = "segment"},
          s.default_segment...);
    visit("segment_overrides", Knob{.min = 1, .tuned = "segment"},
          s.segment_overrides...);
    visit("subsegments_per_segment", Knob{.min = 1},
          s.subsegments_per_segment...);
    visit("worker_memory_bytes", Knob{}, s.worker_memory_bytes...);
    visit("server_cache_bytes", Knob{.tuned = "server_cache_bytes"},
          s.server_cache_bytes...);
    visit("opt_level", Knob{.min = 0, .max = 1}, s.opt_level...);
    visit("prefetch_depth", Knob{.min = 0}, s.prefetch_depth...);
    visit("server_disk_threads",
          Knob{.min = 1, .tuned = "server_disk_threads"},
          s.server_disk_threads...);
    visit("server_cold_io", Knob{}, s.server_cold_io...);
    visit("sparse_threshold", Knob{.min = 0}, s.sparse_threshold...);
    visit("chunk_divisor", Knob{.min = 1}, s.chunk_divisor...);
    visit("min_chunk", Knob{.min = 1}, s.min_chunk...);
    visit("autotune", Knob{}, s.autotune...);
    visit("calibration_file", Knob{}, s.calibration_file...);
    visit("scratch_dir", Knob{}, s.scratch_dir...);
    visit("constants", Knob{}, s.constants...);
    visit("computed_served", Knob{}, s.computed_served...);
    visit("fault_plan", Knob{}, s.fault_plan...);
    visit("reliable_protocol", Knob{}, s.reliable_protocol...);
    visit("retry_timeout_ms", Knob{.min = 1}, s.retry_timeout_ms...);
    visit("retry_max", Knob{.min = 1}, s.retry_max...);
    visit("heartbeat_ms", Knob{}, s.heartbeat_ms...);
    visit("heartbeat_misses", Knob{.min = 1}, s.heartbeat_misses...);
    visit("transport", Knob{}, s.transport...);
    visit("socket_address", Knob{}, s.socket_address...);
    visit("spawn_helper", Knob{}, s.spawn_helper...);
    visit("connect_timeout_ms", Knob{.min = 1}, s.connect_timeout_ms...);
  }
};

}  // namespace sia
