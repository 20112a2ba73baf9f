#include "sip/rank_report.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "msg/tags.hpp"
#include "sip/interpreter.hpp"
#include "sip/superinstr.hpp"

namespace sia::sip {

msg::Message RankReport::encode() const {
  msg::Message out;
  out.tag = msg::kResultReport;
  out.src = rank;
  out.header = {static_cast<std::int64_t>(kind), rank};
  fields::encode(scalars, out.header);
  fields::encode(*this, out.header);
  return out;
}

RankReport RankReport::decode(const msg::Message& message) {
  fields::Decoder in(message.header);
  RankReport report;
  const std::int64_t kind = in.word();
  if (kind < 0 || kind > static_cast<std::int64_t>(Kind::kServer)) {
    fields::Decoder::fail("bad report kind " + std::to_string(kind));
  }
  report.kind = static_cast<Kind>(kind);
  in.get(report.rank);
  in.get(report.scalars);
  in.get(report);
  if (!in.done() || !message.data.empty()) {
    fields::Decoder::fail("trailing words");
  }
  return report;
}

std::string RankReport::to_string() const {
  std::ostringstream out;
  out << "kind=" << static_cast<int>(kind) << "\nrank=" << rank << '\n';
  fields::print(out, "scalars", scalars);
  fields::print(out, "", *this);
  return out.str();
}

RankReport make_rank_report(const SipShared& shared, int rank,
                            const Master* master, Interpreter* worker,
                            const IoServer* server, bool process_counters) {
  RankReport r;
  r.rank = rank;
  if (master != nullptr) r.master = master->stats();
  if (worker != nullptr) {
    r.kind = RankReport::Kind::kWorker;
    r.profile = worker->profiler();
    if (const msg::ReliableChannel* channel = worker->channel()) {
      r.reliable = channel->stats();
    }
    r.dups_dropped = worker->sequencer().duplicates_dropped();
    r.dist = worker->dist().stats();
    r.cache = worker->dist().cache_stats();
    r.pool = worker->pool().stats();
    r.peak_local_doubles = worker->data().peak_doubles();
    r.served = worker->served().stats();
    for (const auto& [id, block] : worker->dist().home_blocks()) {
      ++r.resident[id.array_id];
    }
    if (worker->worker_index() == 0) {
      const std::size_t n = shared.program->code().scalars.size();
      for (std::size_t s = 0; s < n; ++s) {
        r.scalars.push_back(worker->data().scalar(static_cast<int>(s)));
      }
    }
  }
  if (server != nullptr) {
    r.kind = RankReport::Kind::kServer;
    r.server = server->stats();
    r.resident = server->data_blocks();
  }
  if (process_counters) {
    r.traffic = shared.fabric->total_stats();
    if (const auto* chaos =
            dynamic_cast<const msg::ChaosFabric*>(shared.fabric)) {
      r.chaos = chaos->chaos_stats();
    }
    if (shared.disk_injector != nullptr) {
      r.disk_faults = shared.disk_injector->faults_injected();
    }
    r.kernels_screened = static_cast<std::int64_t>(
        kernels_screened_count() - shared.kernels_screened_start);
  }
  return r;
}

void merge_reports(const std::vector<RankReport>& reports,
                   const sial::ResolvedProgram& resolved, RunResult& result) {
  const sial::CompiledProgram& code = resolved.code();
  const SipConfig& config = resolved.config();
  ProfileReport& profile = result.profile;
  profile.worker_block_wait.assign(static_cast<std::size_t>(config.workers),
                                   0.0);
  RankReport total;
  bool have_results = false;
  for (const RankReport& report : reports) {
    const bool fits =
        report.kind == RankReport::Kind::kMaster ? report.rank == 0
        : report.kind == RankReport::Kind::kWorker
            ? report.rank >= 1 && report.rank <= config.workers
            : report.rank > config.workers &&
                  report.rank < config.total_ranks();
    if (!fits) {
      throw Error("rank report: rank " + std::to_string(report.rank) +
                  " does not match its kind");
    }
    fields::fold(total, report);
    if (report.kind != RankReport::Kind::kWorker) continue;
    profile.worker_block_wait[static_cast<std::size_t>(report.rank - 1)] =
        report.profile.block_wait();
    if (report.rank != 1) continue;
    if (report.scalars.size() != code.scalars.size()) {
      throw Error("rank report: worker rank 1 sent " +
                  std::to_string(report.scalars.size()) + " scalars, the "
                  "program has " + std::to_string(code.scalars.size()));
    }
    for (std::size_t s = 0; s < code.scalars.size(); ++s) {
      result.scalars[code.scalars[s].name] = report.scalars[s];
    }
    have_results = true;
  }
  if (!have_results) {
    throw RuntimeError("worker rank 1 exited without reporting results");
  }
  result.traffic = total.traffic;

  const Profiler& run = total.profile;
  for (const auto& [pc, cost] : run.instructions()) {
    if (pc < 0 || static_cast<std::size_t>(pc) >= code.code.size()) {
      throw Error("rank report: pc " + std::to_string(pc) + " out of range");
    }
    const sial::Instruction& instr = code.code[static_cast<std::size_t>(pc)];
    profile.lines.push_back(
        {instr.line, opcode_name(instr.op), cost.count, cost.seconds, pc});
    profile.total_busy += cost.seconds;
  }
  // Instruction time includes the waits inside it; busy is compute only.
  profile.total_busy = std::max(0.0, profile.total_busy - run.total_wait());
  std::sort(profile.lines.begin(), profile.lines.end(),
            [](const auto& a, const auto& b) { return a.seconds > b.seconds; });
  for (const auto& [id, cost] : run.pardos()) {
    if (id < 0 || static_cast<std::size_t>(id) >= code.pardos.size()) {
      throw Error("rank report: pardo " + std::to_string(id) +
                  " out of range");
    }
    const int start = code.pardos[static_cast<std::size_t>(id)].start_pc;
    const int line =
        start >= 0 ? code.code[static_cast<std::size_t>(start)].line : 0;
    profile.pardos.push_back(
        {id, line, cost.iterations, cost.elapsed, cost.wait});
  }
  profile.total_elapsed = run.total_elapsed();
  profile.total_wait = run.total_wait();
  profile.block_wait = run.wait_for(WaitKind::kBlock);
  profile.served_wait = run.wait_for(WaitKind::kServed);
  profile.chunk_wait = run.wait_for(WaitKind::kChunk);
  profile.barrier_wait = run.wait_for(WaitKind::kBarrier);
  profile.collective_wait = run.wait_for(WaitKind::kCollective);

  RunResult::WorkerTotals& workers = result.workers;
  workers.gets_issued = total.dist.gets_issued;
  workers.gets_local = total.dist.gets_local;
  workers.gets_cached = total.dist.gets_cached;
  workers.implicit_gets = total.dist.implicit_gets;
  workers.puts_remote = total.dist.puts_remote;
  workers.puts_local = total.dist.puts_local;
  workers.puts_coalesced = total.dist.puts_coalesced;
  workers.prepares_coalesced = total.served.prepares_coalesced;
  workers.coalesce_flushes =
      total.dist.coalesce_flushes + total.served.coalesce_flushes;
  workers.cache_hits = total.cache.hits;
  workers.cache_misses = total.cache.misses;
  workers.cache_evictions = total.cache.evictions;
  workers.pool_heap_fallbacks =
      static_cast<std::int64_t>(total.pool.heap_fallbacks);
  workers.pool_class_high_water = total.pool.class_high_water;
  workers.peak_local_doubles = total.peak_local_doubles;

  ProfileReport::ServedPipeline& served = profile.served;
  served.client_requests_issued = total.served.requests_issued;
  served.client_requests_cached = total.served.requests_cached;
  served.client_lookahead_issued = total.served.lookahead_issued;
  served.client_lookahead_misses = total.served.lookahead_misses;
  served.client_lookahead_promoted = total.served.lookahead_promoted;
  served.server_requests = total.server.requests;
  served.server_lookahead_requests = total.server.lookahead_requests;
  served.server_cache_hits = total.server.cache_hits;
  served.server_disk_reads = total.server.disk_reads;
  served.server_disk_writes = total.server.disk_writes;
  served.reads_coalesced = total.server.reads_coalesced;
  served.write_batches = total.server.write_batches;
  served.map_flushes = total.server.map_flushes;
  served.computed = total.server.computed;

  ProfileReport::Robustness& robustness = profile.robustness;
  robustness.retries_sent = total.reliable.retries_sent;
  robustness.acks_timed_out = total.reliable.acks_timed_out;
  robustness.dup_msgs_dropped =
      total.dups_dropped + total.server.dup_msgs_dropped;
  robustness.heartbeats_missed = total.master.heartbeats_missed;
  robustness.server_recoveries = total.master.server_recoveries;
  robustness.sends_after_stop = total.traffic.sends_after_stop;
  robustness.faults_dropped = total.chaos.drops;
  robustness.faults_duplicated = total.chaos.dups;
  robustness.faults_delayed = total.chaos.delays;
  robustness.faults_reordered = total.chaos.reorders;
  robustness.faults_kill_swallowed = total.chaos.kill_swallowed;
  robustness.faults_disk = total.disk_faults;

  ProfileReport::Scheduling& scheduling = profile.scheduling;
  scheduling.chunks_served = total.master.chunks_served;
  scheduling.steal_attempts = total.master.steal_attempts;
  scheduling.steals_granted = total.master.steals_granted;
  scheduling.stolen_iterations = total.master.stolen_iterations;
  scheduling.worker_iterations = total.master.worker_iterations;

  ProfileReport::Screening& screening = profile.screening;
  screening.threshold = config.sparse_threshold;
  screening.blocks_screened = total.traffic.blocks_screened;
  screening.bytes_elided = total.traffic.bytes_elided;
  screening.kernels_screened = total.kernels_screened;
  screening.puts_screened = total.dist.puts_screened;
  screening.gets_screened = total.dist.gets_screened;
  screening.prepares_screened = total.served.prepares_screened;
  screening.requests_screened = total.server.requests_screened;
  screening.zero_reads = total.dist.zero_reads + total.served.zero_reads;
  screening.evictions_screened = total.server.evictions_screened;
  if (config.sparse_threshold <= 0.0) return;
  for (std::size_t a = 0; a < resolved.arrays().size(); ++a) {
    const sial::ResolvedArray& array = resolved.arrays()[a];
    if (!array.sparse) continue;
    // A sparse array's screened population is everything that never
    // materialized: blocks replaced by norm markers plus blocks whose
    // every contribution was dropped at the sender.
    const auto it = total.resident.find(static_cast<int>(a));
    const std::int64_t resident =
        it == total.resident.end() ? 0 : it->second;
    screening.arrays.push_back(
        {array.name, array.total_blocks - resident, array.total_blocks});
  }
}

}  // namespace sia::sip
