// Multi-process chaos matrix: the socket fabric with every worker and
// I/O-server rank in its own OS process (`transport=spawn`), driven
// through the same two-outcome contract as the in-process chaos suite —
// a faulted run either completes bit-identical to the fault-free thread
// baseline or aborts with a diagnosis naming the fault. The kill cases
// use real SIGKILL: the scheduled rank raises the signal against its own
// process, so the master's watchdog sees true process death, not a
// cooperative shutdown.
//
// This binary is its own spawn helper: main() routes `--sia-child`
// re-execs into run_spawn_child() before gtest ever initializes, so it
// links GTest::gtest (not gtest_main).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <tuple>
#include <vector>

#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "sip/launch.hpp"
#include "sip/spawn.hpp"

namespace sia::sip {
namespace {

// Same integer-valued distributed-array storm as test_chaos.cpp: puts,
// accumulating puts, and gets between workers, with a checksum that is
// bit-identical under any schedule but shifts by a whole integer if a
// message is lost or double-applied.
std::string dist_storm_source() {
  return R"SIAL(
sial dist_storm
aoindex a = 1, norb
aoindex k = 1, norb

distributed A(a,k)
temp t(a,k)
temp u(a,k)
scalar csum
scalar cnorm2

pardo a, k
  execute fill_coords t(a,k)
  put A(a,k) = t(a,k)
endpardo a, k
sip_barrier

pardo a, k
  execute fill_coords u(a,k)
  put A(a,k) += u(a,k)
endpardo a, k
sip_barrier

csum = 0.0
pardo a, k
  get A(a,k)
  t(a,k) = A(a,k)
  csum += t(a,k) * t(a,k)
endpardo a, k
cnorm2 = 0.0
collective cnorm2 += csum
endsial
)SIAL";
}

SipConfig dist_config(const std::string& transport) {
  SipConfig config;
  config.workers = 2;
  config.io_servers = 1;
  config.default_segment = 4;
  config.retry_timeout_ms = 50;
  config.transport = transport;
  config.constants = {{"norb", 16}};
  return config;
}

SipConfig storm_config(const std::string& transport) {
  chem::register_chem_superinstructions();
  SipConfig config;
  config.workers = 2;
  config.io_servers = 1;
  config.default_segment = 8;
  config.server_cache_bytes = 8 * 8 * 8 * sizeof(double);  // 8 blocks
  config.server_disk_threads = 2;
  config.prefetch_depth = 2;
  config.retry_timeout_ms = 50;
  config.transport = transport;
  config.constants = {{"norb", 64}, {"nsweeps", 1}, {"nshared", 32}};
  return config;
}

// Hard wall-clock deadline: a multi-process run that neither completes
// nor aborts would otherwise hang the suite on orphaned children.
RunResult run_with_deadline(const SipConfig& config,
                            const std::string& source,
                            int deadline_seconds = 180) {
  auto task = std::async(std::launch::async, [&config, &source] {
    Sip sip(config);
    return sip.run_source(source);
  });
  if (task.wait_for(std::chrono::seconds(deadline_seconds)) !=
      std::future_status::ready) {
    std::fprintf(stderr,
                 "spawn run exceeded the %d s deadline (hang) — aborting\n",
                 deadline_seconds);
    std::fflush(stderr);
    std::abort();
  }
  return task.get();  // rethrows the run's error, if any
}

RunResult run_with_plan(SipConfig config, const std::string& source,
                        const std::string& plan) {
  config.fault_plan = FaultPlan::parse(plan);
  return run_with_deadline(config, source);
}

double dist_baseline() {
  static const double value =
      run_with_deadline(dist_config("thread"), dist_storm_source())
          .scalar("cnorm2");
  return value;
}

double storm_baseline() {
  static const double value =
      run_with_deadline(storm_config("thread"), chem::io_storm_source())
          .scalar("snorm2");
  return value;
}

// ---------------------------------------------------------------------
// Fault-free transport parity: loopback (framed socketpair, one process)
// and spawn (real processes) must both reproduce the thread baseline
// bit-identically, and must actually have gone through the serializer.

TEST(SpawnParityTest, LoopbackMatchesThreadBitIdentically) {
  const RunResult result =
      run_with_deadline(dist_config("loopback"), dist_storm_source());
  EXPECT_EQ(result.scalar("cnorm2"), dist_baseline());
  EXPECT_GT(result.traffic.serialized_messages, 0);
  EXPECT_EQ(result.traffic.frames_rejected, 0);
}

TEST(SpawnParityTest, SpawnMatchesThreadBitIdentically) {
  const RunResult result =
      run_with_deadline(dist_config("spawn"), dist_storm_source());
  EXPECT_EQ(result.scalar("cnorm2"), dist_baseline());
  EXPECT_GT(result.traffic.serialized_messages, 0);
  EXPECT_EQ(result.traffic.frames_rejected, 0);
  EXPECT_EQ(result.profile.robustness.retries_sent, 0);
}

TEST(SpawnParityTest, SpawnServedStormMatchesThread) {
  const RunResult result =
      run_with_deadline(storm_config("spawn"), chem::io_storm_source());
  EXPECT_EQ(result.scalar("snorm2"), storm_baseline());
  // The served path (prepare/request) crossed process boundaries.
  EXPECT_GT(result.profile.served.server_requests, 0);
}

// ---------------------------------------------------------------------
// Profile parity: every rank's counters reach the report through the
// same RankReport merge whether the ranks are threads or processes.
// One serial worker, no look-ahead and a synchronous disk service make
// the schedule deterministic, so every count must match exactly; only
// times differ. Fabric traffic is excluded: spawn serializes what
// threads pass by pointer. So is the worker pool's heap-fallback count,
// which follows from that: a thread-mode prepare hands the server the
// worker's pool block itself, keeping the slot busy while the server
// caches it. It is compared against a loopback run, which serializes
// the same way spawn does.

std::string parity_source() {
  return R"SIAL(
sial profile_parity
aoindex a = 1, n
aoindex k = 1, n
sparse distributed D(a,k)
served S(a,k)
temp t(a,k)
temp u(a,k)
scalar lsum
scalar total
pardo a, k
  execute fill_decay t(a,k) 2.0 7
  put D(a,k) = t(a,k)
  prepare S(a,k) = t(a,k)
endpardo a, k
sip_barrier
server_barrier
lsum = 0.0
pardo a, k
  get D(a,k)
  request S(a,k)
  u(a,k) = D(a,k)
  lsum += u(a,k) * u(a,k)
  u(a,k) = S(a,k)
  lsum += u(a,k) * u(a,k)
endpardo a, k
total = 0.0
collective total += lsum
endsial
)SIAL";
}

SipConfig parity_config(const std::string& transport) {
  chem::register_chem_superinstructions();
  SipConfig config;
  config.workers = 1;
  config.io_servers = 1;
  config.prefetch_depth = 0;
  config.server_disk_threads = 0;
  config.default_segment = 4;
  config.sparse_threshold = 1e-6;
  config.transport = transport;
  config.constants = {{"n", 32}};
  return config;
}

using LineKey = std::tuple<int, std::string, std::int64_t>;

std::vector<LineKey> line_counts(const ProfileReport& profile) {
  std::vector<LineKey> out;
  for (const ProfileReport::LineCost& line : profile.lines) {
    out.emplace_back(line.line, line.opcode, line.count);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SpawnParityTest, SpawnProfileMatchesThreadCounts) {
  const RunResult thread =
      run_with_deadline(parity_config("thread"), parity_source());
  const RunResult spawn =
      run_with_deadline(parity_config("spawn"), parity_source());
  EXPECT_EQ(spawn.scalar("total"), thread.scalar("total"));
  const ProfileReport& t = thread.profile;
  const ProfileReport& s = spawn.profile;
  EXPECT_GT(s.total_elapsed, 0.0);
  ASSERT_FALSE(s.lines.empty());
  EXPECT_EQ(line_counts(s), line_counts(t));
  ASSERT_EQ(s.pardos.size(), t.pardos.size());
  for (std::size_t p = 0; p < t.pardos.size(); ++p) {
    EXPECT_EQ(s.pardos[p].iterations, t.pardos[p].iterations) << "pardo " << p;
  }

#define EXPECT_SAME(field) EXPECT_EQ(spawn.field, thread.field) << #field
  EXPECT_SAME(profile.served.client_requests_issued);
  EXPECT_SAME(profile.served.client_requests_cached);
  EXPECT_SAME(profile.served.client_lookahead_issued);
  EXPECT_SAME(profile.served.client_lookahead_misses);
  EXPECT_SAME(profile.served.client_lookahead_promoted);
  EXPECT_SAME(profile.served.server_requests);
  EXPECT_SAME(profile.served.server_lookahead_requests);
  EXPECT_SAME(profile.served.server_cache_hits);
  EXPECT_SAME(profile.served.server_disk_reads);
  EXPECT_SAME(profile.served.server_disk_writes);
  EXPECT_SAME(profile.served.reads_coalesced);
  EXPECT_SAME(profile.served.write_batches);
  EXPECT_SAME(profile.served.map_flushes);
  EXPECT_SAME(profile.served.computed);
  EXPECT_SAME(workers.gets_issued);
  EXPECT_SAME(workers.gets_local);
  EXPECT_SAME(workers.gets_cached);
  EXPECT_SAME(workers.implicit_gets);
  EXPECT_SAME(workers.puts_remote);
  EXPECT_SAME(workers.puts_local);
  EXPECT_SAME(workers.puts_coalesced);
  EXPECT_SAME(workers.prepares_coalesced);
  EXPECT_SAME(workers.coalesce_flushes);
  EXPECT_SAME(workers.cache_hits);
  EXPECT_SAME(workers.cache_misses);
  EXPECT_SAME(workers.cache_evictions);
  EXPECT_SAME(workers.peak_local_doubles);
  EXPECT_SAME(profile.screening.threshold);
  EXPECT_SAME(profile.screening.blocks_screened);
  EXPECT_SAME(profile.screening.bytes_elided);
  EXPECT_SAME(profile.screening.kernels_screened);
  EXPECT_SAME(profile.screening.puts_screened);
  EXPECT_SAME(profile.screening.gets_screened);
  EXPECT_SAME(profile.screening.prepares_screened);
  EXPECT_SAME(profile.screening.requests_screened);
  EXPECT_SAME(profile.screening.zero_reads);
  EXPECT_SAME(profile.screening.evictions_screened);
#undef EXPECT_SAME
  ASSERT_EQ(s.screening.arrays.size(), t.screening.arrays.size());
  for (std::size_t a = 0; a < t.screening.arrays.size(); ++a) {
    EXPECT_EQ(s.screening.arrays[a].name, t.screening.arrays[a].name);
    EXPECT_EQ(s.screening.arrays[a].screened, t.screening.arrays[a].screened);
    EXPECT_EQ(s.screening.arrays[a].total, t.screening.arrays[a].total);
  }
  const RunResult loopback =
      run_with_deadline(parity_config("loopback"), parity_source());
  EXPECT_EQ(spawn.workers.pool_heap_fallbacks,
            loopback.workers.pool_heap_fallbacks);
  // The run exercised what it compares.
  EXPECT_GT(t.served.server_requests, 0);
  EXPECT_GT(thread.workers.puts_local, 0);
  EXPECT_GT(t.screening.puts_screened + t.screening.prepares_screened, 0);
}

// ---------------------------------------------------------------------
// Chaos across real processes: drop, duplication, and delay injected
// identically in every child (pure function of {seed, src, counter}),
// recovered by the reliable layer over real sockets.

TEST(SpawnChaosTest, DropsAreRetransmittedAcrossProcesses) {
  const double baseline = dist_baseline();
  std::int64_t dropped = 0;
  std::int64_t retries = 0;
  for (int seed = 1; seed <= 8; ++seed) {
    const RunResult result =
        run_with_plan(dist_config("spawn"), dist_storm_source(),
                      "drop=0.02,seed=" + std::to_string(seed));
    EXPECT_EQ(result.scalar("cnorm2"), baseline) << "seed " << seed;
    dropped += result.profile.robustness.faults_dropped;
    retries += result.profile.robustness.retries_sent;
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(retries, 0);
}

TEST(SpawnChaosTest, DuplicatesApplyExactlyOnceAcrossProcesses) {
  const double baseline = dist_baseline();
  std::int64_t duplicated = 0;
  for (int seed = 1; seed <= 3; ++seed) {
    const RunResult result =
        run_with_plan(dist_config("spawn"), dist_storm_source(),
                      "dup=0.02,seed=" + std::to_string(seed));
    EXPECT_EQ(result.scalar("cnorm2"), baseline) << "seed " << seed;
    duplicated += result.profile.robustness.faults_duplicated;
  }
  EXPECT_GT(duplicated, 0);
}

TEST(SpawnChaosTest, DelayAndReorderConvergeAcrossProcesses) {
  const double baseline = dist_baseline();
  std::int64_t perturbed = 0;
  for (int seed = 1; seed <= 3; ++seed) {
    const RunResult result = run_with_plan(
        dist_config("spawn"), dist_storm_source(),
        "delay_ms=3,delay_jitter_ms=4,reorder=0.05,seed=" +
            std::to_string(seed));
    EXPECT_EQ(result.scalar("cnorm2"), baseline) << "seed " << seed;
    perturbed += result.profile.robustness.faults_delayed +
                 result.profile.robustness.faults_reordered;
  }
  EXPECT_GT(perturbed, 0);
}

// ---------------------------------------------------------------------
// SIGKILL a worker process: the scheduled rank raises a real SIGKILL
// against itself, the master's heartbeat watchdog notices the silence,
// and the launch aborts with the watchdog's diagnosis — never a hang.

TEST(SpawnKillTest, WorkerSigkillAbortsWithDiagnosis) {
  const auto start = std::chrono::steady_clock::now();
  try {
    run_with_plan(dist_config("spawn"), dist_storm_source(),
                  "kill_rank=1@msg:10,seed=1");
    FAIL() << "spawn run with a SIGKILLed worker completed";
  } catch (const RuntimeError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("worker rank 1 unresponsive"), std::string::npos)
        << what;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(seconds, 60.0);
}

// ---------------------------------------------------------------------
// SIGKILL the (only) I/O-server process: the watchdog respawns it as a
// fresh process (incarnation 1), which rebuilds from the durable files +
// ack journal; worker retransmits repopulate the rest, bit-identically.

TEST(SpawnKillTest, ServerSigkillRecoversBitIdentically) {
  const double baseline = storm_baseline();
  const SipConfig config = storm_config("spawn");
  const int server_rank = config.first_server_rank();  // rank 3
  const RunResult result = run_with_plan(
      config, chem::io_storm_source(),
      "kill_rank=" + std::to_string(server_rank) + "@msg:25,seed=1");
  EXPECT_EQ(result.scalar("snorm2"), baseline);
  EXPECT_EQ(result.profile.robustness.server_recoveries, 1);
}

}  // namespace
}  // namespace sia::sip

// Custom main: a `--sia-child` re-exec is a spawned rank of one of the
// tests above and must never reach gtest.
int main(int argc, char** argv) {
  if (sia::sip::is_spawn_child(argc, argv)) {
    sia::chem::register_chem_superinstructions();
    return sia::sip::run_spawn_child(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
