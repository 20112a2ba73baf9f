#include "sip/master.hpp"

#include <algorithm>
#include <sstream>

#include "common/log.hpp"
#include "msg/tags.hpp"
#include "sim/program_model.hpp"
#include "sip/io_server.hpp"
#include "sip/spawn.hpp"

namespace sia::sip {

// ---------------------------------------------------------------------
// Dry run.

DryRunReport dry_run(const sim::WorkerMemory& memory,
                     const SipConfig& config) {
  DryRunReport report;
  static_cast<sim::WorkerMemory&>(report) = memory;
  const std::size_t budget = config.worker_memory_bytes;
  const std::size_t fixed = report.fixed_bytes();
  report.worker_budget_bytes = budget;
  const auto workers = static_cast<std::size_t>(config.workers);
  report.dist_share_bytes = (report.dist_total_bytes + workers - 1) / workers;
  report.feasible = report.per_worker_bytes() <= budget;
  if (report.feasible) {
    report.workers_needed = config.workers;
  } else if (sim::fixed_exceeds(static_cast<double>(fixed),
                                static_cast<double>(report.dist_total_bytes),
                                static_cast<double>(budget))) {
    report.workers_needed = 0;  // no worker count can fit the fixed part
  } else {
    const std::size_t head = budget - fixed;
    report.workers_needed = static_cast<int>(
        (report.dist_total_bytes + head - 1) / head);
  }

  // The pool plan. A prepared block stays in its writer's pool only on
  // the thread transport (sockets serialize it), and there only while the
  // servers cache it or retire it in a write-behind batch, or a worker's
  // request cache holds it: per class, at most that many blocks of its
  // smallest served size. A plan past the budget is scaled down to it;
  // the pool's heap fallback serves the rest.
  report.pool_plan = memory.pool_slots;
  const auto servers = static_cast<std::size_t>(config.io_servers);
  const std::size_t held_doubles =
      servers * config.server_cache_bytes / sizeof(double) +
      static_cast<std::size_t>(config.workers) * config.worker_cache_doubles();
  const std::size_t batches =
      servers * static_cast<std::size_t>(config.server_disk_threads) *
      kMaxWriteBatch;
  std::map<std::size_t, std::size_t> served;  // class -> slots
  if (!config.socket_transport()) {
    // Largest size first, so a class's cap ends at its smallest size.
    for (auto it = memory.served_blocks.rbegin();
         it != memory.served_blocks.rend(); ++it) {
      std::size_t& slots =
          served[report.pool_plan.lower_bound(it->first)->first];
      slots = std::min(slots + it->second, held_doubles / it->first + batches);
    }
  }
  double bytes = 0.0;
  for (auto& [cls, slots] : report.pool_plan) {
    slots += served[cls];
    bytes += static_cast<double>(slots * cls * sizeof(double));
  }
  if (bytes > static_cast<double>(budget)) {
    for (auto& [cls, slots] : report.pool_plan) {
      slots = static_cast<std::size_t>(static_cast<double>(slots) *
                                       static_cast<double>(budget) / bytes);
    }
  }
  return report;
}

DryRunReport dry_run(const sial::ResolvedProgram& program) {
  return dry_run(sim::model_program(program).memory, program.config());
}

std::string DryRunReport::to_string() const {
  std::ostringstream out;
  auto mb = [](std::size_t b) {
    return std::to_string(b / 1024) + " KiB";
  };
  out << "=== SIP dry run ===\n";
  out << "per-worker budget:     " << mb(worker_budget_bytes) << "\n";
  out << "static (replicated):   " << mb(static_bytes) << "\n";
  out << "temp working set:      " << mb(temp_peak_bytes) << "\n";
  out << "local allocations:     " << mb(local_bytes) << "\n";
  out << "remote block cache:    " << mb(cache_demand_bytes) << "\n";
  out << "distributed share:     " << mb(dist_share_bytes) << " (of "
      << mb(dist_total_bytes) << " total)\n";
  out << "served arrays (disk):  " << mb(served_total_bytes) << "\n";
  out << "per-worker total:      " << mb(per_worker_bytes()) << "\n";
  for (const auto& [capacity, slots] : pool_plan) {
    out << "pool class " << capacity << " doubles: " << slots
        << " slots\n";
  }
  if (feasible) {
    out << "feasible with the configured workers\n";
  } else if (workers_needed > 0) {
    out << "INFEASIBLE; would need at least " << workers_needed
        << " workers\n";
  } else {
    out << "INFEASIBLE; no worker count fits the per-worker fixed part "
           "(static, temp, local and cache)\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------
// Master protocol loop.

Master::Master(SipShared& shared)
    : shared_(shared),
      schedules_(shared.config.workers, shared.config.chunk_divisor,
                 shared.config.min_chunk),
      stealing_(shared.config.workers > 1),
      outstanding_(static_cast<std::size_t>(shared.config.workers)) {
  stats_.worker_iterations.assign(
      static_cast<std::size_t>(shared.config.workers), 0);
}

void Master::send_chunk_reply(int rank, const ChunkKey& key,
                              std::int64_t begin, std::int64_t end) {
  msg::Message reply;
  reply.tag = msg::kChunkReply;
  reply.header = {key.pardo_id, key.instance, begin, end};
  shared_.fabric->send(shared_.master_rank(), rank, std::move(reply));
}

void Master::handle_chunk_request(const msg::Message& message) {
  const int pardo_id = static_cast<int>(message.header[0]);
  const std::int64_t instance = message.header[1];
  const std::int64_t total = message.header[2];
  const ChunkKey key{pardo_id, instance};

  // A new request means the worker finished whatever it held.
  const std::size_t wi = static_cast<std::size_t>(message.src - 1);
  if (wi < outstanding_.size()) {
    outstanding_[wi].valid = false;
    outstanding_[wi].steal_failed = false;
  }

  bool mismatch = false;
  GuidedSchedule* schedule =
      schedules_.get_or_create(pardo_id, instance, total, &mismatch);
  if (mismatch) {
    throw RuntimeError(
        "workers disagree about the iteration count of pardo " +
        std::to_string(pardo_id) +
        " (divergent control flow between workers?)");
  }
  // A range orphaned by a steal whose thief was already answered is
  // served before the schedule (it came out of the schedule originally).
  auto spare = spare_.find(key);
  if (spare != spare_.end() && !spare->second.empty()) {
    const auto [sb, se] = spare->second.back();
    spare->second.pop_back();
    if (spare->second.empty()) spare_.erase(spare);
    if (wi < outstanding_.size()) {
      outstanding_[wi] = {key, sb, se, true, false};
      stats_.worker_iterations[wi] += se - sb;
    }
    send_chunk_reply(message.src, key, sb, se);
    return;
  }
  const auto [begin, end] = schedule->next_chunk();
  if (begin < end) {
    ++stats_.chunks_served;
    if (wi < outstanding_.size()) {
      outstanding_[wi] = {key, begin, end, true, false};
      stats_.worker_iterations[wi] += end - begin;
    }
    send_chunk_reply(message.src, key, begin, end);
    return;
  }
  if (!stealing_) {
    schedules_.retire(pardo_id, instance);
    send_chunk_reply(message.src, key, begin, end);
    return;
  }
  // Schedule exhausted: before answering "done", try to reassign the
  // tail of another worker's outstanding chunk. The reply is deferred
  // until the steal resolves (grant or no eligible victim).
  starved_[key].push_back(message.src);
  resolve_starved(key);
}

void Master::resolve_starved(const ChunkKey& key) {
  auto queue = starved_.find(key);
  if (queue == starved_.end() || queue->second.empty()) {
    if (queue != starved_.end()) starved_.erase(queue);
    return;
  }
  // One steal at a time: when the in-flight one resolves, every starved
  // queue is revisited.
  if (steal_.has_value()) return;

  // Victim: the worker holding the largest outstanding chunk for this
  // pardo instance (the best proxy for "slowest" the master has without
  // asking), deterministic tie-break by rank. A chunk needs >= 2
  // iterations so the split leaves both sides at least one.
  int victim = -1;
  std::int64_t victim_size = 1;
  for (std::size_t w = 0; w < outstanding_.size(); ++w) {
    const OutstandingChunk& chunk = outstanding_[w];
    if (!chunk.valid || chunk.steal_failed || !(chunk.key == key)) continue;
    const std::int64_t size = chunk.end - chunk.begin;
    if (size > victim_size) {
      victim_size = size;
      victim = static_cast<int>(w) + 1;
    }
  }
  if (victim < 0) {
    // Nothing stealable: everyone still queued is done with this pardo.
    for (const int rank : queue->second) {
      schedules_.retire(key.pardo_id, key.instance);
      send_chunk_reply(rank, key, 0, 0);
    }
    starved_.erase(queue);
    return;
  }
  const OutstandingChunk& chunk =
      outstanding_[static_cast<std::size_t>(victim - 1)];
  // Propose the midpoint; the victim clamps to its actual position, so
  // iterations already started are never revoked.
  const std::int64_t split = chunk.begin + (chunk.end - chunk.begin) / 2;
  steal_ = StealInFlight{key, victim};
  ++stats_.steal_attempts;
  msg::Message request;
  request.tag = msg::kChunkStealRequest;
  request.header = {key.pardo_id, key.instance, split};
  shared_.fabric->send(shared_.master_rank(), victim, std::move(request));
}

void Master::handle_steal_reply(const msg::Message& message) {
  const ChunkKey key{static_cast<int>(message.header[0]),
                     message.header[1]};
  const std::int64_t grant_begin = message.header[2];
  const std::int64_t grant_end = message.header[3];
  if (!steal_.has_value() || steal_->victim_rank != message.src ||
      !(steal_->key == key)) {
    throw InternalError("steal reply does not match the steal in flight");
  }
  steal_.reset();

  const std::size_t vi = static_cast<std::size_t>(message.src - 1);
  OutstandingChunk& victim = outstanding_[vi];
  const bool victim_current = victim.valid && victim.key == key;
  if (grant_begin < grant_end) {
    if (victim_current) {
      // The victim shrank its chunk to end at the grant.
      stats_.worker_iterations[vi] -=
          std::min(victim.end, grant_end) - grant_begin;
      victim.end = grant_begin;
    }
    auto queue = starved_.find(key);
    if (queue != starved_.end() && !queue->second.empty()) {
      const int thief = queue->second.front();
      queue->second.pop_front();
      ++stats_.steals_granted;
      stats_.stolen_iterations += grant_end - grant_begin;
      const std::size_t ti = static_cast<std::size_t>(thief - 1);
      if (ti < outstanding_.size()) {
        outstanding_[ti] = {key, grant_begin, grant_end, true, false};
        stats_.worker_iterations[ti] += grant_end - grant_begin;
      }
      send_chunk_reply(thief, key, grant_begin, grant_end);
    } else {
      // No thief left waiting. The victim already gave the range up, so
      // it must not be lost: park it and serve it to the next request
      // for this pardo instance, ahead of the (exhausted) schedule.
      spare_[key].emplace_back(grant_begin, grant_end);
    }
  } else if (victim_current) {
    victim.steal_failed = true;
  }
  // Revisit every queue the single-steal rule may have blocked.
  std::vector<ChunkKey> keys;
  keys.reserve(starved_.size());
  for (const auto& [k, ranks] : starved_) keys.push_back(k);
  for (const ChunkKey& k : keys) resolve_starved(k);
}

void Master::release_barrier(std::int64_t seq) {
  for (int w = 0; w < shared_.num_workers(); ++w) {
    msg::Message release;
    release.tag = msg::kBarrierRelease;
    release.header = {seq};
    shared_.fabric->send(shared_.master_rank(), shared_.worker_rank(w),
                         std::move(release));
  }
  barriers_.erase(seq);
}

void Master::handle_barrier_enter(const msg::Message& message) {
  const std::int64_t seq = message.header[0];
  const std::int64_t kind = message.header[1];

  if (kind == 2) {  // worker finished the program
    if (++workers_done_ == shared_.num_workers()) {
      // run() notices and shuts servers down.
    }
    return;
  }

  BarrierState& state = barriers_[seq];
  if (++state.entered < shared_.num_workers()) return;

  if (kind == 0 || shared_.num_servers() == 0) {
    release_barrier(seq);
    return;
  }
  // server_barrier: ask the I/O servers to flush before releasing.
  state.waiting_servers = true;
  for (int s = 0; s < shared_.num_servers(); ++s) {
    msg::Message flush;
    flush.tag = msg::kServerBarrierEnter;
    flush.header = {seq};
    shared_.fabric->send(shared_.master_rank(),
                         1 + shared_.num_workers() + s, std::move(flush));
  }
}

void Master::handle_server_ack(const msg::Message& message) {
  const std::int64_t seq = message.header[0];
  auto it = barriers_.find(seq);
  if (it == barriers_.end()) {
    throw InternalError("server ack for unknown barrier");
  }
  // Keyed by rank, not counted: after an I/O-server respawn the flush
  // request is re-sent, and the (rare) second ack from a server that
  // flushed just before dying must not release the barrier early.
  it->second.acked_servers.insert(message.src);
  if (static_cast<int>(it->second.acked_servers.size()) ==
      shared_.num_servers()) {
    release_barrier(seq);
  }
}

void Master::handle_scalar_reduce(const msg::Message& message) {
  const std::int64_t seq = message.header[0];
  const std::int64_t slot = message.header[1];
  CollectiveState& state = collectives_[seq];
  state.sum += message.data.at(0);
  if (++state.arrived < shared_.num_workers()) return;

  for (int w = 0; w < shared_.num_workers(); ++w) {
    msg::Message bcast;
    bcast.tag = msg::kScalarBcast;
    bcast.header = {seq, slot};
    bcast.data = {state.sum};
    shared_.fabric->send(shared_.master_rank(), shared_.worker_rank(w),
                         std::move(bcast));
  }
  collectives_.erase(seq);
}

// ---------------------------------------------------------------------
// Heartbeat watchdog.

namespace {

const char* wait_kind_name(int status) {
  switch (status) {
    case -1: return "running";
    case 0: return "waiting for a distributed block";
    case 1: return "waiting for a served block";
    case 2: return "waiting for a pardo chunk";
    case 3: return "waiting at a barrier";
    case 4: return "waiting for a collective";
    default: return "unknown";
  }
}

}  // namespace

void Master::handle_dead_rank(int rank) {
  if (shared_.is_server(rank) && shared_.respawn_server) {
    SIA_INFO(shared_.master_rank())
        << "I/O server rank " << rank << " unresponsive after "
        << heartbeat_miss_streak_[static_cast<std::size_t>(rank)]
        << " missed heartbeats; respawning";
    if (shared_.respawn_server(rank)) {
      ++stats_.server_recoveries;
      heartbeat_miss_streak_[static_cast<std::size_t>(rank)] = 0;
      last_heartbeat_ack_[static_cast<std::size_t>(rank)] = heartbeat_tick_;
      // The dead incarnation may have swallowed a pending flush request;
      // re-ask the fresh one for every barrier still waiting on it.
      for (auto& [seq, state] : barriers_) {
        if (state.waiting_servers && state.acked_servers.count(rank) == 0) {
          msg::Message flush;
          flush.tag = msg::kServerBarrierEnter;
          flush.header = {seq};
          shared_.fabric->send(shared_.master_rank(), rank,
                               std::move(flush));
        }
      }
      return;
    }
  }
  // Unrecoverable: diagnose instead of hanging. Name the dead rank, when
  // it was last seen, and what every other rank is blocked on.
  std::ostringstream out;
  out << (shared_.is_server(rank) ? "I/O server" : "worker") << " rank "
      << rank << " unresponsive: missed "
      << heartbeat_miss_streak_[static_cast<std::size_t>(rank)]
      << " consecutive heartbeats (last answered tick "
      << last_heartbeat_ack_[static_cast<std::size_t>(rank)] << " of "
      << heartbeat_tick_ << ")";
  bool any_blocked = false;
  for (int r = 1; r < shared_.fabric->ranks(); ++r) {
    const int status = shared_.get_rank_status(r);
    if (r == rank || status == -1) continue;
    out << (any_blocked ? ", " : "; blocked ranks: ") << "rank " << r
        << " " << wait_kind_name(status);
    any_blocked = true;
  }
  throw RuntimeError(out.str());
}

void Master::heartbeat_tick() {
  const int ranks = shared_.fabric->ranks();
  if (last_heartbeat_ack_.empty()) {
    last_heartbeat_ack_.assign(static_cast<std::size_t>(ranks), 0);
    heartbeat_miss_streak_.assign(static_cast<std::size_t>(ranks), 0);
  }
  // Evaluate the round that just elapsed before starting the next one.
  if (heartbeat_tick_ > 0) {
    for (int r = 1; r < ranks; ++r) {
      const std::size_t ur = static_cast<std::size_t>(r);
      if (last_heartbeat_ack_[ur] >= heartbeat_tick_) {
        heartbeat_miss_streak_[ur] = 0;
        continue;
      }
      ++heartbeat_miss_streak_[ur];
      ++stats_.heartbeats_missed;
      if (heartbeat_miss_streak_[ur] >= shared_.config.heartbeat_misses) {
        handle_dead_rank(r);
      }
    }
  }
  ++heartbeat_tick_;
  for (int r = 1; r < ranks; ++r) {
    msg::Message ping;
    ping.tag = msg::kHeartbeatPing;
    ping.header = {heartbeat_tick_};
    shared_.fabric->send(shared_.master_rank(), r, std::move(ping));
  }
}

void Master::broadcast_abort() {
  std::string what = shared_.error();
  if (what.empty()) what = "aborted";
  for (int r = 1; r < shared_.fabric->ranks(); ++r) {
    shared_.fabric->deliver(shared_.master_rank(), r,
                            make_abort_message(what));
  }
}

void Master::run() {
  const int heartbeat_ms = shared_.config.effective_heartbeat_ms();
  // The watchdog runs whenever a heartbeat period is in effect — under
  // fault tolerance (auto) and in spawn mode, where the launch forces a
  // period because real processes can die without injected faults.
  const bool watchdog = heartbeat_ms > 0;
  auto next_beat = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(heartbeat_ms);
  try {
    while (workers_done_ < shared_.num_workers()) {
      shared_.check_abort();
      if (watchdog && std::chrono::steady_clock::now() >= next_beat) {
        heartbeat_tick();
        next_beat = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(heartbeat_ms);
      }
      auto message = shared_.fabric->recv_for(shared_.master_rank(),
                                              watchdog ? 10 : 50);
      if (!message.has_value()) continue;
      switch (message->tag) {
        case msg::kChunkRequest:
          handle_chunk_request(*message);
          break;
        case msg::kChunkStealReply:
          handle_steal_reply(*message);
          break;
        case msg::kBarrierEnter:
          handle_barrier_enter(*message);
          break;
        case msg::kServerBarrierAck:
          handle_server_ack(*message);
          break;
        case msg::kScalarReduce:
          handle_scalar_reduce(*message);
          break;
        case msg::kHeartbeatAck:
          if (message->header.size() > 1) {
            const int rank = static_cast<int>(message->header[1]);
            if (rank >= 0 && rank < shared_.fabric->ranks() &&
                !last_heartbeat_ack_.empty()) {
              std::int64_t& last =
                  last_heartbeat_ack_[static_cast<std::size_t>(rank)];
              last = std::max(last, message->header[0]);
            }
          }
          break;
        case msg::kAbort:
          // A remote (spawned) rank died on an error; adopt it as the
          // run's first error and spread the word before teardown.
          shared_.raise_abort(abort_text(*message));
          break;  // check_abort throws Aborted on the next iteration
        case msg::kResultReport:
          // End-of-run report from a spawned rank; the launch harvests
          // these from the mailbox after run() returns.
          break;
        default:
          throw InternalError("master received unexpected tag " +
                              std::to_string(message->tag));
      }
    }
    // All workers done: stop the I/O servers and release the workers from
    // their post-completion service loops.
    for (int r = 1; r < shared_.fabric->ranks(); ++r) {
      msg::Message shutdown;
      shutdown.tag = msg::kShutdown;
      shared_.fabric->send(shared_.master_rank(), r, std::move(shutdown));
    }
  } catch (const Aborted&) {
    broadcast_abort();
  } catch (const std::exception& error) {
    shared_.raise_abort(error.what());
    broadcast_abort();
  }
}

}  // namespace sia::sip
