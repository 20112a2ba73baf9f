#include "sip/profiler.hpp"

#include <algorithm>
#include <sstream>

#include "common/stats.hpp"

namespace sia::sip {

double ProfileReport::Scheduling::imbalance_percent() const {
  if (worker_iterations.empty()) return 0.0;
  std::int64_t lo = worker_iterations.front();
  std::int64_t hi = worker_iterations.front();
  std::int64_t sum = 0;
  for (const std::int64_t n : worker_iterations) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
    sum += n;
  }
  if (sum <= 0) return 0.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(worker_iterations.size());
  return 100.0 * static_cast<double>(hi - lo) / mean;
}

double ProfileReport::wait_percent() const {
  if (total_busy + total_wait <= 0.0) return 0.0;
  return 100.0 * total_wait / (total_busy + total_wait);
}

std::string ProfileReport::to_string() const {
  std::ostringstream out;
  out << "=== SIP profile ===\n";
  out << "elapsed " << TablePrinter::num(total_elapsed * 1e3, 2)
      << " ms, busy " << TablePrinter::num(total_busy * 1e3, 2)
      << " ms, wait " << TablePrinter::num(total_wait * 1e3, 2) << " ms ("
      << TablePrinter::num(wait_percent(), 1) << "% of work time)\n";
  if (total_wait > 0.0) {
    out << "wait breakdown: block "
        << TablePrinter::num(block_wait * 1e3, 2) << " ms, served "
        << TablePrinter::num(served_wait * 1e3, 2) << " ms, chunk "
        << TablePrinter::num(chunk_wait * 1e3, 2) << " ms, barrier "
        << TablePrinter::num(barrier_wait * 1e3, 2) << " ms, collective "
        << TablePrinter::num(collective_wait * 1e3, 2) << " ms\n";
  }
  if (served.any()) {
    out << "served pipeline: client issued " << served.client_requests_issued
        << " requests (" << served.client_requests_cached
        << " served from worker cache), look-ahead "
        << served.client_lookahead_issued << " issued / "
        << served.client_lookahead_misses << " missed / "
        << served.client_lookahead_promoted << " promoted\n";
    out << "  servers: " << served.server_requests << " demand + "
        << served.server_lookahead_requests << " look-ahead requests, "
        << served.server_cache_hits << " cache hits, "
        << served.server_disk_reads << " disk reads ("
        << served.reads_coalesced << " coalesced), "
        << served.server_disk_writes << " disk writes in "
        << served.write_batches << " batches, " << served.map_flushes
        << " map flushes";
    if (served.computed > 0) {
      out << ", " << served.computed << " blocks computed on demand";
    }
    out << "\n";
  }
  if (robustness.any()) {
    out << "robustness: " << robustness.retries_sent << " retries sent, "
        << robustness.dup_msgs_dropped << " duplicate msgs dropped, "
        << robustness.acks_timed_out << " acks timed out, "
        << robustness.heartbeats_missed << " heartbeats missed, "
        << robustness.server_recoveries << " server recoveries, "
        << robustness.sends_after_stop << " sends after stop\n";
    if (robustness.faults_injected() != 0) {
      out << "  faults injected: " << robustness.faults_dropped
          << " dropped, " << robustness.faults_duplicated << " duplicated, "
          << robustness.faults_delayed << " delayed, "
          << robustness.faults_reordered << " reordered, "
          << robustness.faults_kill_swallowed << " kill-swallowed, "
          << robustness.faults_disk << " disk\n";
    }
  }
  if (screening.any()) {
    out << "screening: threshold " << screening.threshold << ", "
        << screening.blocks_screened << " transfers elided ("
        << TablePrinter::num(
               static_cast<double>(screening.bytes_elided) / (1024.0 * 1024.0),
               2)
        << " MiB), " << screening.kernels_screened << " kernels skipped\n";
    out << "  puts " << screening.puts_screened << " dropped, gets "
        << screening.gets_screened << " norm-only; prepares "
        << screening.prepares_screened << " dropped, requests "
        << screening.requests_screened << " norm-only; "
        << screening.zero_reads << " zero-block reads, "
        << screening.evictions_screened << " victims re-screened\n";
    for (const Screening::ArrayCensus& array : screening.arrays) {
      out << "  array " << array.name << ": " << array.screened << "/"
          << array.total << " blocks screened ("
          << TablePrinter::num(
                 array.total > 0 ? 100.0 * static_cast<double>(array.screened) /
                                       static_cast<double>(array.total)
                                 : 0.0,
                 1)
          << "%)\n";
    }
  }
  if (plan.any()) {
    out << "plan: " << plan.summary << "\n";
    out << "  predicted " << TablePrinter::num(plan.predicted_seconds, 3)
        << " s";
    if (plan.actual_seconds > 0.0) {
      out << ", actual " << TablePrinter::num(plan.actual_seconds, 3)
          << " s (model error "
          << TablePrinter::num(plan.error_percent(), 1) << "%)";
    }
    out << "; " << plan.candidates << " candidates swept, "
        << (plan.calibrated ? "calibrated" : "cold calibration") << "\n";
    if (!plan.pinned.empty()) {
      out << "  pinned by user:";
      for (const std::string& knob : plan.pinned) out << " " << knob;
      out << "\n";
    }
  }
  if (scheduling.any()) {
    out << "scheduling: " << scheduling.chunks_served << " chunks, "
        << scheduling.steal_attempts << " steal attempts, "
        << scheduling.steals_granted << " granted ("
        << scheduling.stolen_iterations << " iterations moved), imbalance "
        << TablePrinter::num(scheduling.imbalance_percent(), 1) << "%\n";
    if (!scheduling.worker_iterations.empty()) {
      out << "  iterations by worker:";
      for (const std::int64_t n : scheduling.worker_iterations) {
        out << " " << n;
      }
      out << "\n";
    }
  }
  if (!pardos.empty()) {
    out << "pardo loops:\n";
    for (const PardoCost& pardo : pardos) {
      out << "  pardo@" << pardo.line << ": " << pardo.iterations
          << " iterations, elapsed "
          << TablePrinter::num(pardo.elapsed * 1e3, 2) << " ms, wait "
          << TablePrinter::num(pardo.wait * 1e3, 2) << " ms\n";
    }
  }
  out << "hottest super instructions:\n";
  const std::size_t limit = std::min<std::size_t>(lines.size(), 10);
  for (std::size_t i = 0; i < limit; ++i) {
    out << "  line " << lines[i].line << " " << lines[i].opcode << ": "
        << lines[i].count << " executions, "
        << TablePrinter::num(lines[i].seconds * 1e3, 2) << " ms\n";
  }
  return out.str();
}

}  // namespace sia::sip
