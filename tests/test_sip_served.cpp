// SIP served-array (disk-backed) tests: prepare/request, accumulate,
// server-side LRU with write-behind, and persistence across SIP runs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "chem/integrals.hpp"
#include "sip/launch.hpp"

namespace sia::sip {
namespace {

SipConfig config_with(int workers, int servers) {
  SipConfig config;
  config.workers = workers;
  config.io_servers = servers;
  config.default_segment = 3;
  config.constants = {{"n", 9}};
  return config;
}

RunResult run(Sip& sip, const std::string& body) {
  return sip.run_source("sial test\n" + body + "\nendsial\n");
}

constexpr const char* kPrepareRequestRoundTrip = R"(
moindex i = 1, n
moindex j = 1, n
served s(i,j)
temp t(i,j)
temp u(i,j)
scalar lsum
scalar total
pardo i, j
  execute fill_coords t(i,j)
  prepare s(i,j) = t(i,j)
endpardo i, j
server_barrier
pardo i, j
  request s(i,j)
  execute fill_coords t(i,j)
  u(i,j) = s(i,j)
  u(i,j) -= t(i,j)
  lsum += u(i,j) * u(i,j)
endpardo i, j
total = 0.0
collective total += lsum
)";

TEST(SipServedTest, PrepareRequestRoundTrip) {
  for (const auto& [workers, servers] :
       std::vector<std::pair<int, int>>{{1, 1}, {3, 1}, {3, 2}, {4, 3}}) {
    Sip sip(config_with(workers, servers));
    const RunResult result = run(sip, kPrepareRequestRoundTrip);
    EXPECT_NEAR(result.scalar("total"), 0.0, 1e-18)
        << workers << " workers, " << servers << " servers";
  }
}

TEST(SipServedTest, PrepareAccumulate) {
  Sip sip(config_with(2, 1));
  const RunResult result = run(sip, R"(
moindex i = 1, n
served s(i)
temp t(i)
temp u(i)
scalar lsum
scalar total
pardo i
  t(i) = 1.5
  prepare s(i) = t(i)
endpardo i
server_barrier
pardo i
  t(i) = 0.5
  prepare s(i) += t(i)
endpardo i
server_barrier
pardo i
  request s(i)
  u(i) = s(i)
  lsum += u(i) * u(i)
endpardo i
total = 0.0
collective total += lsum
)");
  EXPECT_DOUBLE_EQ(result.scalar("total"), 9.0 * 4.0);
}

TEST(SipServedTest, AccumulateIntoNeverPreparedBlockStartsAtZero) {
  // Paper: blocks are allocated only when actually filled; += on a fresh
  // block accumulates onto zero.
  Sip sip(config_with(2, 1));
  const RunResult result = run(sip, R"(
moindex i = 1, n
served s(i)
temp t(i)
temp u(i)
scalar lsum
scalar total
pardo i
  t(i) = 4.0
  prepare s(i) += t(i)
endpardo i
server_barrier
pardo i
  request s(i)
  u(i) = s(i)
  lsum += u(i) * u(i)
endpardo i
total = 0.0
collective total += lsum
)");
  EXPECT_DOUBLE_EQ(result.scalar("total"), 9.0 * 16.0);
}

TEST(SipServedTest, CoalescingMergesRepeatedAccumulatePrepares) {
  // Each pardo task prepares S(i) += t(i) once per k segment; the shadow
  // table merges the repeats into one prepare per block. fill_coords
  // makes element c of t equal to c, so S(c) = 3c exactly (3 k segments)
  // and the sum of squares is 9 * (1 + 4 + ... + 81) = 2565.
  for (const auto& [workers, servers] :
       std::vector<std::pair<int, int>>{{1, 1}, {2, 1}, {3, 2}}) {
    Sip sip(config_with(workers, servers));
    const RunResult result = run(sip, R"(
moindex i = 1, n
moindex k = 1, n
served S(i)
temp t(i)
temp u(i)
scalar lsum
scalar total
pardo i
  do k
    execute fill_coords t(i)
    prepare S(i) += t(i)
  enddo k
endpardo i
server_barrier
pardo i
  request S(i)
  u(i) = S(i)
  lsum += u(i) * u(i)
endpardo i
total = 0.0
collective total += lsum
)");
    EXPECT_GT(result.workers.prepares_coalesced, 0)
        << workers << " workers, " << servers << " servers";
    EXPECT_EQ(result.scalar("total"), 2565.0)
        << workers << " workers, " << servers << " servers";
  }
}

TEST(SipServedTest, TinyServerCacheForcesDiskTraffic) {
  // Server cache fits only one block: prepares must spill to disk via the
  // write-behind path and requests must read back from disk.
  SipConfig config = config_with(2, 1);
  config.server_cache_bytes = 9 * sizeof(double);  // one 3x3 block
  Sip sip(config);
  const RunResult result = run(sip, kPrepareRequestRoundTrip);
  EXPECT_NEAR(result.scalar("total"), 0.0, 1e-18);
}

TEST(SipServedTest, PersistsAcrossRunsInSameScratchDir) {
  // Program 1 prepares; program 2 (a separate SIP run in the same Sip)
  // requests the data back — the paper's mechanism for passing data
  // between SIAL programs.
  Sip sip(config_with(2, 1));
  run(sip, R"(
moindex i = 1, n
served s(i)
temp t(i)
pardo i
  t(i) = 2.5
  prepare s(i) = t(i)
endpardo i
server_barrier
)");
  const RunResult second = run(sip, R"(
moindex i = 1, n
served s(i)
temp u(i)
scalar lsum
scalar total
pardo i
  request s(i)
  u(i) = s(i)
  lsum += u(i) * u(i)
endpardo i
total = 0.0
collective total += lsum
)");
  EXPECT_DOUBLE_EQ(second.scalar("total"), 9.0 * 6.25);
}

TEST(SipServedTest, PipelinedServerSurvivesReopenOfScratchDir) {
  // Crash-consistency of the full pipeline: prepare through the batched
  // write-behind (deferred presence-map flush), tear the whole SIP down,
  // then a second SIP reopens the same scratch directory and must find
  // every block. The tiny cache forces all data through the disk path.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sia_served_reopen_" + std::to_string(::getpid())))
          .string();
  SipConfig config = config_with(2, 1);
  config.scratch_dir = dir;
  config.server_disk_threads = 4;
  config.prefetch_depth = 4;
  config.server_cache_bytes = 9 * sizeof(double);  // one 3x3 block
  {
    Sip sip(config);
    run(sip, R"(
moindex i = 1, n
moindex j = 1, n
served s(i,j)
temp t(i,j)
pardo i, j
  execute fill_coords t(i,j)
  prepare s(i,j) = t(i,j)
endpardo i, j
server_barrier
)");
  }
  {
    Sip sip(config);
    const RunResult second = run(sip, R"(
moindex i = 1, n
moindex j = 1, n
served s(i,j)
temp t(i,j)
temp u(i,j)
scalar lsum
scalar total
pardo i, j
  request s(i,j)
  execute fill_coords t(i,j)
  u(i,j) = s(i,j)
  u(i,j) -= t(i,j)
  lsum += u(i,j) * u(i,j)
endpardo i, j
total = 0.0
collective total += lsum
)");
    EXPECT_NEAR(second.scalar("total"), 0.0, 1e-18);
  }
  std::filesystem::remove_all(dir);
}

TEST(SipServedTest, RequestOfNeverPreparedBlockFails) {
  Sip sip(config_with(2, 1));
  EXPECT_THROW(run(sip, R"(
moindex i = 1, n
served s(i)
temp u(i)
scalar lsum
pardo i
  request s(i)
  u(i) = s(i)
  lsum += u(i) * u(i)
endpardo i
)"),
               RuntimeError);
}

TEST(SipServedTest, ServedWithoutServersFails) {
  Sip sip(config_with(2, 0));
  EXPECT_THROW(run(sip, R"(
moindex i = 1, n
served s(i)
temp t(i)
pardo i
  t(i) = 1.0
  prepare s(i) = t(i)
endpardo i
)"),
               RuntimeError);
}

TEST(SipServedTest, MixedDistributedAndServed) {
  Sip sip(config_with(3, 2));
  const RunResult result = run(sip, R"(
moindex i = 1, n
distributed d(i)
served s(i)
temp t(i)
temp u(i)
temp v(i)
scalar lsum
scalar total
pardo i
  t(i) = 3.0
  put d(i) = t(i)
  prepare s(i) = t(i)
endpardo i
sip_barrier
server_barrier
pardo i
  get d(i)
  request s(i)
  u(i) = d(i)
  v(i) = s(i)
  lsum += u(i) * v(i)
endpardo i
total = 0.0
collective total += lsum
)");
  EXPECT_DOUBLE_EQ(result.scalar("total"), 9.0 * 9.0);
}

TEST(SipServedTest, ComputedServedArrayGeneratesOnDemand) {
  // Paper section V-B: "An I/O server may also perform certain domain
  // specific computations, namely computing blocks of integrals ...
  // computed on demand rather than stored." The V array is never
  // prepared; requests are answered by the server-side generator.
  chem::register_chem_superinstructions();
  SipConfig config = config_with(2, 2);
  config.constants = {{"norb", 8}};
  config.computed_served["V"] = "integral_generator";
  Sip sip(config);
  const RunResult result = run(sip, R"(
aoindex m = 1, norb
aoindex n = 1, norb
aoindex l = 1, norb
aoindex s = 1, norb
served V(m,n,l,s)
temp v(m,n,l,s)
temp w(m,n,l,s)
temp dv(m,n,l,s)
scalar lsum
scalar total
pardo m, n
  do l
    do s
      request V(m,n,l,s)
      execute compute_integrals w(m,n,l,s)
      v(m,n,l,s) = V(m,n,l,s)
      dv(m,n,l,s) = v(m,n,l,s) - w(m,n,l,s)
      lsum += dv(m,n,l,s) * dv(m,n,l,s)
    enddo s
  enddo l
endpardo m, n
total = 0.0
collective total += lsum
)");
  // Server-generated blocks match the worker-side intrinsic exactly.
  EXPECT_NEAR(result.scalar("total"), 0.0, 1e-18);
}

TEST(SipServedTest, PreparedBlocksOverrideComputedGenerator) {
  chem::register_chem_superinstructions();
  SipConfig config = config_with(2, 1);
  config.constants = {{"norb", 8}};
  config.computed_served["V"] = "integral_generator";
  Sip sip(config);
  const RunResult result = run(sip, R"(
aoindex m = 1, norb
aoindex n = 1, norb
aoindex l = 1, norb
aoindex s = 1, norb
served V(m,n,l,s)
temp t(m,n,l,s)
temp v(m,n,l,s)
scalar lsum
scalar total
# Overwrite one corner of the array with a constant.
pardo m, n where m == 1 where n == 1
  do l
    do s
      t(m,n,l,s) = 5.0
      prepare V(m,n,l,s) = t(m,n,l,s)
    enddo s
  enddo l
endpardo m, n
server_barrier
lsum = 0.0
pardo m, n where m == 1 where n == 1
  do l
    do s
      request V(m,n,l,s)
      v(m,n,l,s) = V(m,n,l,s)
      lsum += v(m,n,l,s) * v(m,n,l,s)
    enddo s
  enddo l
endpardo m, n
total = 0.0
collective total += lsum
)");
  // Segment 3 over norb 8: the (m=1,n=1) region is a 3x3 element face
  // times the full 8x8 (l,s) space = 576 elements of value 5.
  EXPECT_DOUBLE_EQ(result.scalar("total"), 576.0 * 25.0);
}

TEST(SipServedTest, UnregisteredGeneratorNameFails) {
  SipConfig config = config_with(2, 1);
  config.computed_served["s"] = "no_such_generator";
  Sip sip(config);
  EXPECT_THROW(run(sip, R"(
moindex i = 1, n
served s(i)
temp u(i)
scalar lsum
pardo i
  request s(i)
  u(i) = s(i)
  lsum += u(i) * u(i)
endpardo i
)"),
               RuntimeError);
}

}  // namespace
}  // namespace sia::sip
