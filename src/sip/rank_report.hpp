// One rank's end-of-run counters, and the one path that carries them to
// the run result.
//
// Every rank (master, worker, I/O server) ends a run with one RankReport
// built by make_rank_report, and the launch folds all of them into the
// RunResult with merge_reports. Thread and loopback launches merge the
// in-memory reports; a spawned child encodes its report into its
// kResultReport message and the master decodes it with the same codec.
// Decoded input comes from another process, so decode and merge throw
// Error on anything malformed. A server incarnation retired by a respawn
// merges as one more report. Merge, codec and to_string all walk the
// counter structs' field lists (common/fields.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "block/block_cache.hpp"
#include "block/block_pool.hpp"
#include "common/fields.hpp"
#include "msg/chaos.hpp"
#include "msg/message.hpp"
#include "msg/reliable.hpp"
#include "sip/dist_array.hpp"
#include "sip/io_server.hpp"
#include "sip/launch.hpp"
#include "sip/master.hpp"
#include "sip/profiler.hpp"
#include "sip/served_array.hpp"

namespace sia::sip {

class Interpreter;

struct RankReport {
  enum class Kind : std::int64_t { kMaster = 0, kWorker = 1, kServer = 2 };
  Kind kind = Kind::kMaster;
  int rank = 0;
  std::vector<double> scalars;  // worker 0 only: the canonical copy

  Profiler profile;
  // One fabric, disk-fault injector and kernel counter per OS process, so
  // one report per process carries them: the master's in thread and
  // loopback launches, every rank's in spawn mode.
  msg::TrafficStats traffic;
  msg::ChaosStats chaos;
  std::int64_t disk_faults = 0;
  std::int64_t kernels_screened = 0;

  msg::ReliableChannel::Stats reliable;
  std::int64_t dups_dropped = 0;  // worker dedup window
  DistArrayManager::Stats dist;
  BlockCache::Stats cache;
  BlockPool::Stats pool;
  std::size_t peak_local_doubles = 0;
  ServedArrayClient::Stats served;
  IoServer::Stats server;
  Master::Stats master;
  // Sparse census: array id -> blocks that materialized (home blocks on
  // workers, data blocks on disk on servers).
  std::map<int, std::int64_t> resident;

  // The folded fields; kind, rank and scalars identify the report.
  template <class Visit, class... S>
  static void fields(Visit&& visit, S&... s) {
    visit("profile", Fold::kSum, s.profile...);
    visit("traffic", Fold::kSum, s.traffic...);
    visit("chaos", Fold::kSum, s.chaos...);
    visit("disk_faults", Fold::kSum, s.disk_faults...);
    visit("kernels_screened", Fold::kSum, s.kernels_screened...);
    visit("reliable", Fold::kSum, s.reliable...);
    visit("dups_dropped", Fold::kSum, s.dups_dropped...);
    visit("dist", Fold::kSum, s.dist...);
    visit("cache", Fold::kSum, s.cache...);
    visit("pool", Fold::kSum, s.pool...);
    visit("peak_local_doubles", Fold::kMax, s.peak_local_doubles...);
    visit("served", Fold::kSum, s.served...);
    visit("server", Fold::kSum, s.server...);
    visit("master", Fold::kSum, s.master...);
    visit("resident", Fold::kSum, s.resident...);
  }

  // kResultReport codec: the header carries every field in list order.
  msg::Message encode() const;
  static RankReport decode(const msg::Message& message);

  // One `path=value` line per field.
  std::string to_string() const;
};

// Builds `rank`'s report from the one object that ran it (exactly one of
// master/worker/server is non-null). Set `process_counters` for exactly
// one rank per OS process.
RankReport make_rank_report(const SipShared& shared, int rank,
                            const Master* master, Interpreter* worker,
                            const IoServer* server, bool process_counters);

// Folds every rank's report into `result`: scalars, traffic, profile and
// worker totals. Throws Error for a report that does not fit the program
// or the rank layout, or when worker rank 1 never reported.
void merge_reports(const std::vector<RankReport>& reports,
                   const sial::ResolvedProgram& resolved, RunResult& result);

}  // namespace sia::sip
