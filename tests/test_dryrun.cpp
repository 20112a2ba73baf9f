// Dry-run analysis tests: the master's memory estimate, infeasibility
// reporting, and the pool plan (paper §V-B).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "common/error.hpp"
#include "sial/compiler.hpp"
#include "sip/launch.hpp"
#include "sip/master.hpp"

namespace sia::sip {
namespace {

SipConfig dry_config() {
  SipConfig config;
  config.workers = 4;
  config.io_servers = 1;
  config.default_segment = 4;
  config.prefetch_depth = 2;
  config.worker_memory_bytes = 1 << 20;
  config.constants = {{"n", 32}};
  return config;
}

DryRunReport analyze(const std::string& body,
                     SipConfig config = dry_config()) {
  const sial::ResolvedProgram program(
      sial::compile_sial("sial test\n" + body + "\nendsial\n"), config);
  return dry_run(program);
}

TEST(DryRunTest, StaticArraysCountedFully) {
  const DryRunReport report = analyze(R"(
aoindex mu = 1, n
aoindex nu = 1, n
static s(mu,nu)
)");
  EXPECT_EQ(report.static_bytes, 32u * 32u * sizeof(double));
}

TEST(DryRunTest, DistributedShareScalesWithWorkers) {
  const std::string body = R"(
aoindex mu = 1, n
aoindex nu = 1, n
distributed d(mu,nu)
)";
  SipConfig few = dry_config();
  few.workers = 2;
  SipConfig many = dry_config();
  many.workers = 8;
  const DryRunReport a = analyze(body, few);
  const DryRunReport b = analyze(body, many);
  EXPECT_EQ(a.dist_total_bytes, b.dist_total_bytes);
  EXPECT_EQ(a.dist_share_bytes, 4 * b.dist_share_bytes);
}

TEST(DryRunTest, TempWorkingSetFromPardoBody) {
  const DryRunReport report = analyze(R"(
aoindex mu = 1, n
aoindex nu = 1, n
temp t(mu,nu)
pardo mu, nu
  t(mu,nu) = 1.0
endpardo mu, nu
)");
  // One 4x4 block per iteration: each iteration drops the last one's.
  EXPECT_EQ(report.temp_peak_bytes, 16u * sizeof(double));
}

TEST(DryRunTest, CacheDemandIncludesPrefetchDepth) {
  const std::string body = R"(
aoindex mu = 1, n
aoindex nu = 1, n
distributed d(mu,nu)
temp t(mu,nu)
pardo mu
  do nu
    get d(mu,nu)
    t(mu,nu) = d(mu,nu)
  enddo nu
endpardo mu
)";
  SipConfig shallow = dry_config();
  shallow.prefetch_depth = 0;
  SipConfig deep = dry_config();
  deep.prefetch_depth = 3;
  // A cache larger than the array holds every block a worker may read.
  EXPECT_EQ(analyze(body, shallow).cache_demand_bytes,
            32u * 32u * sizeof(double));
  EXPECT_EQ(analyze(body, deep).cache_demand_bytes,
            32u * 32u * sizeof(double));
  // A smaller one holds its capacity plus the replies in flight: the
  // demand block and prefetch_depth look-aheads per get.
  shallow.constants["n"] = deep.constants["n"] = 1024;
  const std::size_t cache = shallow.worker_cache_doubles() * sizeof(double);
  EXPECT_EQ(analyze(body, shallow).cache_demand_bytes,
            cache + 1u * 16u * sizeof(double));
  EXPECT_EQ(analyze(body, deep).cache_demand_bytes,
            cache + 4u * 16u * sizeof(double));
}

TEST(DryRunTest, LocalWildcardAllocationEstimated) {
  const DryRunReport report = analyze(R"(
aoindex mu = 1, n
aoindex nu = 1, n
local l(mu,nu)
do nu
  allocate l(*,nu)
enddo nu
)");
  // Each trip allocates one full dimension (32 elements) x one segment
  // (4) of the other, and none is freed: all 8 strips are live at the end.
  EXPECT_EQ(report.local_bytes, 32u * 32u * sizeof(double));
}

TEST(DryRunTest, ServedArraysReportedButNotResident) {
  const DryRunReport report = analyze(R"(
aoindex mu = 1, n
aoindex nu = 1, n
served s(mu,nu)
)");
  EXPECT_EQ(report.served_total_bytes, 32u * 32u * sizeof(double));
  EXPECT_EQ(report.dist_share_bytes, 0u);
}

TEST(DryRunTest, FeasibleWhenSmall) {
  const DryRunReport report = analyze(R"(
aoindex mu = 1, n
temp t(mu)
do mu
  t(mu) = 1.0
enddo mu
)");
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.workers_needed, dry_config().workers);
}

TEST(DryRunTest, InfeasibleComputesSufficientWorkers) {
  SipConfig config = dry_config();
  config.worker_memory_bytes = 8192;
  config.constants["n"] = 128;  // 128 KiB of distributed data
  const DryRunReport report = analyze(R"(
aoindex mu = 1, n
aoindex nu = 1, n
distributed d(mu,nu)
)",
                                      config);
  ASSERT_FALSE(report.feasible);
  ASSERT_GT(report.workers_needed, config.workers);
  // The suggested count must actually fit.
  SipConfig enough = config;
  enough.workers = report.workers_needed;
  const DryRunReport retry = analyze(R"(
aoindex mu = 1, n
aoindex nu = 1, n
distributed d(mu,nu)
)",
                                     enough);
  EXPECT_TRUE(retry.feasible);
}

TEST(DryRunTest, HopelessFixedCostsReportZeroWorkers) {
  SipConfig config = dry_config();
  config.worker_memory_bytes = 64;  // smaller than one block
  const std::string body = R"(
aoindex mu = 1, n
aoindex nu = 1, n
static s(mu,nu)
)";
  const DryRunReport report = analyze(body, config);
  EXPECT_FALSE(report.feasible);
  EXPECT_EQ(report.workers_needed, 0);
  // Both diagnostics say that no worker count fits, not "at least 0".
  const std::string fits = "no worker count fits the per-worker fixed part";
  const std::string text = report.to_string();
  EXPECT_NE(text.find(fits), std::string::npos) << text;
  EXPECT_EQ(text.find("at least 0"), std::string::npos) << text;
  Sip sip(config);
  try {
    sip.run_source("sial test\n" + body + "\nendsial\n");
    FAIL() << "expected InfeasibleError";
  } catch (const InfeasibleError& error) {
    const std::string what = error.what();
    EXPECT_EQ(error.workers_needed(), 0);
    EXPECT_NE(what.find(fits), std::string::npos) << what;
    EXPECT_EQ(what.find("at least 0"), std::string::npos) << what;
  }
}

TEST(DryRunTest, SegmentPastTheIndexRangeMatchesTheRange) {
  // At norb 32 segments 32 and 48 both make one 32-element segment per
  // index: blocks are sized by the segments an index has, not by the
  // nominal segment size, so the two give one dry run and one result.
  chem::register_chem_superinstructions();
  const auto run = [](int segment) {
    SipConfig config;
    config.workers = 1;
    config.io_servers = 0;
    config.default_segment = segment;
    config.constants = {{"norb", 32}};
    Sip sip(config);
    return sip.run_source(chem::fock_build_source());
  };
  const RunResult exact = run(32);
  const RunResult past = run(48);
  EXPECT_TRUE(past.dry_run.feasible);
  EXPECT_EQ(past.dry_run.to_string(), exact.dry_run.to_string());
  EXPECT_EQ(past.dry_run.pool_plan, exact.dry_run.pool_plan);
  const auto bits = [](double value) {
    char text[32];
    std::snprintf(text, sizeof text, "%a", value);
    return std::string(text);
  };
  EXPECT_EQ(bits(past.scalar("fnorm")), bits(exact.scalar("fnorm")));
}

TEST(DryRunTest, PoolPlanHasClassesForUsedShapes) {
  const DryRunReport report = analyze(R"(
aoindex mu = 1, n
aoindex nu = 1, n
temp t2(mu,nu)
temp t1(mu)
pardo mu, nu
  t2(mu,nu) = 1.0
endpardo mu, nu
do mu
  t1(mu) = 1.0
enddo mu
)");
  // Classes for 4-element and 16-element blocks: one t2 block per pardo
  // iteration; the sequential loop's eight t1 blocks all stay live.
  EXPECT_EQ(report.pool_plan.size(), 2u);
  EXPECT_EQ(report.pool_plan.at(16), 1u);
  EXPECT_EQ(report.pool_plan.at(4), 8u);
}

std::size_t arena_bytes(const DryRunReport& report) {
  std::size_t bytes = 0;
  for (const auto& [capacity, slots] : report.pool_plan) {
    bytes += capacity * slots * sizeof(double);
  }
  return bytes;
}

TEST(DryRunTest, PoolArenaStaysWithinCachesAndBudget) {
  // Arrays of 128 MiB (4096^2 doubles in 32x32 blocks) against a 64 MiB
  // worker budget, written in full by one pardo.
  SipConfig config = dry_config();
  config.workers = 1;
  config.default_segment = 32;
  config.constants["n"] = 4096;
  config.worker_memory_bytes = 64ull << 20;
  config.server_cache_bytes = 1 << 20;
  const std::string served = R"(
aoindex mu = 1, n
aoindex nu = 1, n
served s(mu,nu)
temp t(mu,nu)
pardo mu, nu
  t(mu,nu) = 1.0
  prepare s(mu,nu) = t(mu,nu)
endpardo mu, nu
server_barrier
)";
  const DryRunReport report = analyze(served, config);
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.served_blocks.at(1024), 128u * 128u);
  // A prepared block stays in the writer's pool only while the server's
  // 1 MiB cache, one write-behind batch per disk thread or the worker's
  // 16 MiB request cache holds it (8 KiB blocks), beside the temp block
  // and one staging slot.
  EXPECT_EQ(report.pool_plan.at(1024), 17u * 128u + 2u * 64u + 2u);
  EXPECT_LE(arena_bytes(report), config.worker_memory_bytes);
  // A socket transport serializes every prepare: none stays.
  SipConfig sockets = config;
  sockets.transport = "loopback";
  EXPECT_EQ(analyze(served, sockets).pool_plan.at(1024), 2u);

  // Any schedule may give one worker every put of a distributed array,
  // twice the budget here: the plan is scaled down to the budget, and
  // the heap fallback serves past it.
  config.workers = 4;
  const DryRunReport dist = analyze(R"(
aoindex mu = 1, n
aoindex nu = 1, n
distributed d(mu,nu)
temp t(mu,nu)
pardo mu, nu
  t(mu,nu) = 1.0
  put d(mu,nu) = t(mu,nu)
endpardo mu, nu
sip_barrier
)",
                                    config);
  EXPECT_TRUE(dist.feasible);
  EXPECT_GT(dist.pool_plan.at(1024), 128u * 128u / 4);
  EXPECT_LE(arena_bytes(dist), config.worker_memory_bytes);
}

TEST(DryRunTest, ReportFormatsHumanReadably) {
  const DryRunReport report = analyze(R"(
aoindex mu = 1, n
distributed d(mu)
)");
  const std::string text = report.to_string();
  EXPECT_NE(text.find("dry run"), std::string::npos);
  EXPECT_NE(text.find("distributed share"), std::string::npos);
  EXPECT_NE(text.find("feasible"), std::string::npos);
  // The planned slots per class: d is never written, so its blocks never
  // occupy this worker's pool.
  EXPECT_NE(text.find("pool class 4 doubles: 0 slots"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace sia::sip
