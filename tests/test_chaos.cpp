// Chaos matrix: deterministic fault plans over real SIAL programs.
//
// Every case runs a full SIP launch under an injected fault family
// (message drop, duplication, delay/reorder, scheduled rank kill, disk
// fault) and demands one of exactly two outcomes: the run completes with
// results identical to the fault-free baseline, or it aborts with a
// diagnostic naming the fault. A hang is never acceptable — each run
// executes under a hard deadline and the process aborts if it is missed.
//
// All decisions derive from {seed, plan}, so any failing seed here
// reproduces exactly under a debugger.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>

#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "sip/launch.hpp"

namespace sia::sip {
namespace {

// Distributed-array storm with integer-valued blocks: puts, accumulating
// puts, and gets between workers — the full worker-to-worker protocol
// surface. fill_coords writes integer elements, so cnorm2 is a sum of
// integer squares: bit-identical under any message schedule or chunk
// assignment, while a lost or double-applied `put +=` shifts it by a
// whole integer. (The chem programs' float workloads can't distinguish
// scheduling noise from protocol corruption at the bit level.)
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

SipConfig dist_config() {
  SipConfig config;
  config.workers = 2;
  config.io_servers = 1;
  config.default_segment = 4;
  config.retry_timeout_ms = 50;
  config.constants = {{"norb", 16}};
  return config;
}

// io_storm shrunk to test size: served-array prepares and reads through
// an undersized server cache (heavy eviction and disk traffic). The
// snorm2 checksum is integer-valued, bit-identical under any order.
SipConfig storm_config() {
  chem::register_chem_superinstructions();
  SipConfig config;
  config.workers = 2;
  config.io_servers = 1;
  config.default_segment = 8;
  config.server_cache_bytes = 8 * 8 * 8 * sizeof(double);  // 8 blocks
  config.server_disk_threads = 2;
  config.prefetch_depth = 2;
  config.retry_timeout_ms = 50;
  config.constants = {{"norb", 64}, {"nsweeps", 1}, {"nshared", 32}};
  return config;
}

// Runs the program under a hard wall-clock deadline. A chaos run that
// neither completes nor aborts is the one outcome the fault-tolerance
// machinery must never allow, so a missed deadline kills the process.
RunResult run_with_deadline(const SipConfig& config,
                            const std::string& source,
                            int deadline_seconds = 120) {
  auto task = std::async(std::launch::async, [&config, &source] {
    Sip sip(config);
    return sip.run_source(source);
  });
  if (task.wait_for(std::chrono::seconds(deadline_seconds)) !=
      std::future_status::ready) {
    std::fprintf(stderr,
                 "chaos run exceeded the %d s deadline (hang) — aborting\n",
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
      run_with_deadline(dist_config(), dist_storm_source())
          .scalar("cnorm2");
  return value;
}

double storm_baseline() {
  static const double value =
      run_with_deadline(storm_config(), chem::io_storm_source())
          .scalar("snorm2");
  return value;
}

// ---------------------------------------------------------------------
// Matrix: random loss / duplication / delay families, 20 seeds each on
// dist_storm, a smaller sweep on io_storm. Completion must be bit-identical.

TEST(ChaosMatrixTest, DroppedMessagesAreRetransmitted) {
  const double baseline = dist_baseline();
  std::int64_t dropped = 0;
  std::int64_t retries = 0;
  for (int seed = 1; seed <= 20; ++seed) {
    const RunResult result =
        run_with_plan(dist_config(), dist_storm_source(),
                      "drop=0.01,seed=" + std::to_string(seed));
    EXPECT_EQ(result.scalar("cnorm2"), baseline) << "seed " << seed;
    dropped += result.profile.robustness.faults_dropped;
    retries += result.profile.robustness.retries_sent;
  }
  // The matrix must actually have exercised the loss path.
  EXPECT_GT(dropped, 0);
  EXPECT_GT(retries, 0);
}

TEST(ChaosMatrixTest, DuplicatedMessagesApplyExactlyOnce) {
  const double baseline = dist_baseline();
  std::int64_t duplicated = 0;
  for (int seed = 1; seed <= 20; ++seed) {
    const RunResult result =
        run_with_plan(dist_config(), dist_storm_source(),
                      "dup=0.02,seed=" + std::to_string(seed));
    // A double-applied `put +=` would shift cnorm2 — bit-equality is the
    // exactly-once assertion.
    EXPECT_EQ(result.scalar("cnorm2"), baseline) << "seed " << seed;
    duplicated += result.profile.robustness.faults_duplicated;
  }
  EXPECT_GT(duplicated, 0);
}

TEST(ChaosMatrixTest, DelayAndReorderConverge) {
  const double baseline = dist_baseline();
  std::int64_t perturbed = 0;
  for (int seed = 1; seed <= 20; ++seed) {
    const RunResult result = run_with_plan(
        dist_config(), dist_storm_source(),
        "delay_ms=3,delay_jitter_ms=4,reorder=0.05,seed=" +
            std::to_string(seed));
    EXPECT_EQ(result.scalar("cnorm2"), baseline) << "seed " << seed;
    perturbed += result.profile.robustness.faults_delayed +
                 result.profile.robustness.faults_reordered;
  }
  EXPECT_GT(perturbed, 0);
}

TEST(ChaosMatrixTest, IoStormSurvivesLossAndDuplication) {
  const double baseline = storm_baseline();
  std::int64_t injected = 0;
  for (int seed = 1; seed <= 6; ++seed) {
    const RunResult result =
        run_with_plan(storm_config(), chem::io_storm_source(),
                      "drop=0.01,dup=0.01,seed=" + std::to_string(seed));
    EXPECT_EQ(result.scalar("snorm2"), baseline) << "seed " << seed;
    injected += result.profile.robustness.faults_injected();
  }
  EXPECT_GT(injected, 0);
}

// ---------------------------------------------------------------------
// I/O-server crash recovery: kill the (only) server at its Nth message.
// The master's watchdog must respawn it, the respawned server rebuilds
// from its durable files + ack journal, client retransmits repopulate the
// rest, and the checksum comes out bit-identical.

TEST(ChaosRecoveryTest, ServerKillRecoversBitIdentically) {
  const double baseline = storm_baseline();
  const SipConfig config = storm_config();
  const int server_rank = config.first_server_rank();  // rank 3
  for (const int at_msg : {10, 25, 40, 60, 80}) {
    const RunResult result = run_with_plan(
        config, chem::io_storm_source(),
        "kill_rank=" + std::to_string(server_rank) +
            "@msg:" + std::to_string(at_msg) + ",seed=1");
    EXPECT_EQ(result.scalar("snorm2"), baseline) << "kill at " << at_msg;
    EXPECT_EQ(result.profile.robustness.server_recoveries, 1)
        << "kill at " << at_msg;
    EXPECT_GT(result.profile.robustness.faults_kill_swallowed, 0)
        << "kill at " << at_msg;
  }
}

// ---------------------------------------------------------------------
// Abort propagation (regression): a worker killed mid-run must bring the
// whole launch down with the watchdog's diagnosis — not a hang, and not a
// generic "aborted" that lost the first error.

TEST(ChaosAbortTest, WorkerKillAbortsWithDiagnosis) {
  const auto start = std::chrono::steady_clock::now();
  try {
    run_with_plan(dist_config(), dist_storm_source(),
                  "kill_rank=1@msg:10,seed=1");
    FAIL() << "run with a dead worker completed";
  } catch (const RuntimeError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("worker rank 1 unresponsive"), std::string::npos)
        << what;
    EXPECT_NE(what.find("missed"), std::string::npos) << what;
  }
  // All ranks exited within a few watchdog intervals (misses * 100 ms
  // plus teardown slack), far under this bound.
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(seconds, 20.0);
}

TEST(ChaosAbortTest, DiskFaultAbortsWithDiagnosis) {
  for (const char* plan : {"disk=eio@op:5,seed=1", "disk=enospc@op:9,seed=1"}) {
    try {
      run_with_plan(storm_config(), chem::io_storm_source(), plan);
      FAIL() << "run with an injected disk fault completed (" << plan << ")";
    } catch (const RuntimeError& error) {
      EXPECT_NE(std::string(error.what()).find("injected disk fault"),
                std::string::npos)
          << plan << ": " << error.what();
    }
  }
}

// ---------------------------------------------------------------------
// SIA_FAULT_PLAN environment pickup.

struct EnvGuard {
  explicit EnvGuard(const char* value) {
    ::setenv("SIA_FAULT_PLAN", value, 1);
  }
  ~EnvGuard() { ::unsetenv("SIA_FAULT_PLAN"); }
};

TEST(FaultPlanEnvTest, PlanFromEnvironmentIsApplied) {
  const double baseline = dist_baseline();
  EnvGuard guard("delay_ms=2,seed=9");
  const RunResult result =
      run_with_deadline(dist_config(), dist_storm_source());
  EXPECT_EQ(result.scalar("cnorm2"), baseline);
  EXPECT_GT(result.profile.robustness.faults_delayed, 0);
}

TEST(FaultPlanEnvTest, MalformedEnvironmentPlanIsRejected) {
  EnvGuard guard("drop=2.0");
  Sip sip(dist_config());
  EXPECT_THROW(sip.run_source(dist_storm_source()), Error);
}

// ---------------------------------------------------------------------
// Reliable protocol without any faults: pure overhead path. Must be
// bit-identical and must not retransmit anything.

TEST(ReliableProtocolTest, FaultFreeRunIsBitIdenticalWithNoRetries) {
  const double baseline = dist_baseline();
  SipConfig config = dist_config();
  config.reliable_protocol = true;
  const RunResult result =
      run_with_deadline(config, dist_storm_source());
  EXPECT_EQ(result.scalar("cnorm2"), baseline);
  EXPECT_EQ(result.profile.robustness.retries_sent, 0);
  EXPECT_EQ(result.profile.robustness.acks_timed_out, 0);
  EXPECT_EQ(result.profile.robustness.faults_injected(), 0);
}

// ---------------------------------------------------------------------
// Screening under chaos: served sparse traffic at a real threshold.
// Phase 1 prepares a tridiagonal block band — the exactly-zero blocks
// outside it travel as norm-only markers. Phase 2 accumulates a wider
// (pentadiagonal) band on top: the contributions outside it are dropped
// at the sender, and the |a-k| = 2 ones land on blocks that only ever
// saw a marker, exercising absent-reads-as-zero accumulate. The blocks
// are integer-valued (fill_coords), so snorm2 is a sum of integer
// squares: bit-identical under any message schedule, while a replayed
// marker, a lost prepare, or a double-applied accumulate shifts it by a
// whole integer. The fault-free screened run is the baseline.

std::string sparse_storm_source() {
  return R"SIAL(
sial sparse_storm
aoindex a = 1, norb
aoindex k = 1, norb

sparse served S(a,k)
temp t(a,k)
temp u(a,k)
scalar lsum
scalar snorm2

pardo a, k
  execute fill_coords t(a,k)
  if a - k > 1
    t(a,k) = 0.0
  endif
  if k - a > 1
    t(a,k) = 0.0
  endif
  prepare S(a,k) = t(a,k)
endpardo a, k
server_barrier

pardo a, k
  execute fill_coords u(a,k)
  if a - k > 2
    u(a,k) = 0.0
  endif
  if k - a > 2
    u(a,k) = 0.0
  endif
  prepare S(a,k) += u(a,k)
endpardo a, k
server_barrier

lsum = 0.0
pardo a, k
  request S(a,k)
  t(a,k) = S(a,k)
  lsum += t(a,k) * t(a,k)
endpardo a, k
snorm2 = 0.0
collective snorm2 += lsum
endsial
)SIAL";
}

SipConfig sparse_storm_config() {
  chem::register_chem_superinstructions();
  SipConfig config;
  config.workers = 2;
  config.io_servers = 1;
  config.default_segment = 8;
  config.retry_timeout_ms = 50;
  config.sparse_threshold = 1e-8;
  config.constants = {{"norb", 64}};
  return config;
}

TEST(ChaosScreeningTest, ScreenedPreparesStayExactlyOnce) {
  const RunResult base =
      run_with_deadline(sparse_storm_config(), sparse_storm_source());
  // The baseline itself must exercise the screened protocol surface.
  ASSERT_GT(base.profile.screening.prepares_screened, 0);
  ASSERT_GT(base.profile.screening.requests_screened, 0);
  const double baseline = base.scalar("snorm2");
  std::int64_t injected = 0;
  std::int64_t screened = 0;
  for (int seed = 1; seed <= 10; ++seed) {
    const RunResult result =
        run_with_plan(sparse_storm_config(), sparse_storm_source(),
                      "drop=0.02,dup=0.02,seed=" + std::to_string(seed));
    EXPECT_EQ(result.scalar("snorm2"), baseline) << "seed " << seed;
    injected += result.profile.robustness.faults_injected();
    screened += result.profile.screening.prepares_screened;
  }
  EXPECT_GT(injected, 0);
  EXPECT_GT(screened, 0);
}

}  // namespace
}  // namespace sia::sip
