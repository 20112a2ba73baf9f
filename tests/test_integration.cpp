// End-to-end integration tests: every chemistry SIAL program executed on
// the full SIP (master + workers + I/O servers) must reproduce its dense
// single-threaded reference — the repository's version of the paper's
// "two implementations test each other" methodology (§VIII).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "blas/gemm.hpp"
#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "chem/reference.hpp"
#include "sip/launch.hpp"

namespace sia::sip {
namespace {

SipConfig chem_config() {
  chem::register_chem_superinstructions();
  SipConfig config;
  config.workers = 3;
  config.io_servers = 1;
  config.default_segment = 4;
  config.constants = {{"norb", 8}, {"nocc", 4}, {"maxiter", 3}};
  return config;
}

TEST(IntegrationTest, ContractionDemoMatchesReference) {
  Sip sip(chem_config());
  const RunResult result = sip.run_source(chem::contraction_demo_source());
  EXPECT_NEAR(result.scalar("rnorm2"),
              chem::ref_contraction_rnorm2(8, 4, 7.0), 1e-8);
}

TEST(IntegrationTest, Mp2EnergyMatchesReference) {
  Sip sip(chem_config());
  const RunResult result = sip.run_source(chem::mp2_energy_source());
  EXPECT_NEAR(result.scalar("e2"), chem::ref_mp2_energy(8, 4), 1e-12);
}

TEST(IntegrationTest, CcdEnergyAndNormMatchReference) {
  Sip sip(chem_config());
  const RunResult result = sip.run_source(chem::ccd_energy_source());
  double norm2 = 0.0;
  const double energy = chem::ref_ccd_energy(8, 4, 3, &norm2);
  EXPECT_NEAR(result.scalar("energy"), energy, 1e-11);
  EXPECT_NEAR(result.scalar("rnorm2"), norm2, 1e-11);
}

TEST(IntegrationTest, FockBuildMatchesReference) {
  Sip sip(chem_config());
  const RunResult result = sip.run_source(chem::fock_build_source());
  EXPECT_NEAR(result.scalar("fnorm"), chem::ref_fock_norm(8), 1e-10);
}

// A double's exact bits, as C99 hex-float text ("%a").
std::string hex_bits(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%a", value);
  return text;
}

TEST(IntegrationTest, SingleWorkerScalarsArePinned) {
  // With one worker the schedule is fixed, so these scalars reproduce bit
  // for bit in every build: the default flags, -march=native (no silent
  // FMA contraction), and either fill kernel. The pins hold for the SIMD
  // GEMM kernels, which agree byte for byte; the portable kernel rounds
  // its sums differently.
  if (blas::gemm_kernel_name().starts_with("portable")) {
    GTEST_SKIP() << "no SIMD GEMM kernel on this CPU";
  }
  SipConfig config = chem_config();
  config.workers = 1;
  config.io_servers = 0;
  for (const char* kernel : {"portable", "avx512"}) {
    if (!chem::select_fill_kernel(kernel)) continue;
    SCOPED_TRACE(kernel);
    config.default_segment = 16;
    config.constants = {{"norb", 64}, {"nocc", 16}, {"maxiter", 1}};
    const RunResult ccd = Sip(config).run_source(chem::ccd_energy_source());
    EXPECT_EQ(hex_bits(ccd.scalar("energy")), "0x1.2324d1646bcap-2");
    EXPECT_EQ(hex_bits(ccd.scalar("rnorm2")), "0x1.3f3fe856c08f4p-4");
    config.default_segment = 8;
    config.constants = {{"norb", 32}};
    const RunResult fock = Sip(config).run_source(chem::fock_build_source());
    EXPECT_EQ(hex_bits(fock.scalar("fnorm")), "0x1.45388225ea3eap+8");
  }
  ASSERT_TRUE(chem::select_fill_kernel("auto"));
}

TEST(IntegrationTest, ServedMp2MatchesReference) {
  Sip sip(chem_config());
  const RunResult result = sip.run_source(chem::mp2_served_source());
  EXPECT_NEAR(result.scalar("e2"), chem::ref_mp2_energy(8, 4), 1e-12);
  EXPECT_NEAR(result.scalar("tnorm2"), chem::ref_mp2_amp_norm2(8, 4),
              1e-12);
}

TEST(IntegrationTest, CcdRunsBackToBackInOneSip) {
  // Two full programs in one runtime (chained SIAL programs).
  Sip sip(chem_config());
  const RunResult first = sip.run_source(chem::ccd_energy_source());
  const RunResult second = sip.run_source(chem::ccd_energy_source());
  EXPECT_DOUBLE_EQ(first.scalar("energy"), second.scalar("energy"));
}

TEST(IntegrationTest, ProfilerSeesTheHotLoop) {
  Sip sip(chem_config());
  const RunResult result = sip.run_source(chem::ccd_energy_source());
  // The profile identifies the CCD residual pardo as a cost center.
  ASSERT_FALSE(result.profile.pardos.empty());
  ASSERT_FALSE(result.profile.lines.empty());
  EXPECT_GT(result.profile.total_busy, 0.0);
  // The hottest instruction is a computational one, not bookkeeping.
  EXPECT_GT(result.profile.lines.front().seconds, 0.0);
}

TEST(IntegrationTest, TrafficScalesWithCommunication) {
  Sip sip(chem_config());
  const RunResult result = sip.run_source(chem::ccd_energy_source());
  EXPECT_GT(result.traffic.messages_sent, 0);
  EXPECT_GT(result.traffic.payload_doubles_sent, 0);
}

TEST(IntegrationTest, LargerSystemStillMatches) {
  SipConfig config = chem_config();
  config.constants = {{"norb", 12}, {"nocc", 4}, {"maxiter", 2}};
  Sip sip(config);
  const RunResult result = sip.run_source(chem::mp2_energy_source());
  EXPECT_NEAR(result.scalar("e2"), chem::ref_mp2_energy(12, 4), 1e-12);
}

TEST(IntegrationTest, UnevenTailSegmentsStillMatch) {
  // norb = 10 with segment 4: the virtual space has a tail segment of 2.
  SipConfig config = chem_config();
  config.constants = {{"norb", 10}, {"nocc", 4}, {"maxiter", 2}};
  Sip sip(config);
  const RunResult result = sip.run_source(chem::mp2_energy_source());
  EXPECT_NEAR(result.scalar("e2"), chem::ref_mp2_energy(10, 4), 1e-12);
}

TEST(IntegrationTest, TwoSialFormulationsAgree) {
  // The paper's §VIII development practice: "write multiple
  // implementations of the same algorithm and use the two versions as
  // tests of each other". MP2 formulated via the mp2_block_energy super
  // instruction vs. via intrinsic block dot products.
  Sip sip(chem_config());
  const RunResult via_superinstruction =
      sip.run_source(chem::mp2_energy_source());
  const RunResult via_blockdot = sip.run_source(R"(
sial mp2_blockdot
moindex i = 1, nocc
moindex j = 1, nocc
moindex a = nocc+1, norb
moindex b = nocc+1, norb
temp v1(i,a,j,b)
temp v2(i,b,j,a)
temp t(i,a,j,b)
scalar esum
scalar e2
scalar noccs
noccs = nocc
esum = 0.0
pardo i, j
  do a
    do b
      execute compute_integrals v1(i,a,j,b)
      execute compute_integrals v2(i,b,j,a)
      execute cc_update t(i,a,j,b) v1(i,a,j,b) noccs
      esum += 2.0 * t(i,a,j,b) * v1(i,a,j,b) - t(i,a,j,b) * v2(i,b,j,a)
    enddo b
  enddo a
endpardo i, j
e2 = 0.0
collective e2 += esum
endsial
)");
  EXPECT_NEAR(via_superinstruction.scalar("e2"),
              via_blockdot.scalar("e2"), 1e-12);
}

TEST(IntegrationTest, FockViaPutAccumulateAgrees) {
  // Second formulation of the Fock build: instead of assembling each
  // F(mu,nu) block in one task, scatter J/K contributions with put += --
  // the accumulate path that needs no barrier between writers.
  Sip sip(chem_config());
  const RunResult direct = sip.run_source(chem::fock_build_source());
  const RunResult scattered = sip.run_source(R"(
sial fock_scatter
aoindex mu = 1, norb
aoindex nu = 1, norb
aoindex la = 1, norb
aoindex si = 1, norb
distributed F(mu,nu)
temp h(mu,nu)
temp jmat(mu,nu)
temp kmat(mu,nu)
temp v(mu,nu,la,si)
temp vx(mu,la,nu,si)
temp dmat(la,si)
temp t(mu,nu)
scalar fsum
scalar fnorm2
scalar fnorm

# Seed F with the core Hamiltonian.
pardo mu, nu
  execute compute_core_h h(mu,nu)
  put F(mu,nu) = h(mu,nu)
endpardo mu, nu
sip_barrier

# Scatter each (la,si) shell's J and K contributions with accumulates;
# parallelism over the *integral* indices this time.
pardo la, si
  do mu
    do nu
      execute compute_integrals v(mu,nu,la,si)
      execute compute_density dmat(la,si)
      jmat(mu,nu) = v(mu,nu,la,si) * dmat(la,si)
      jmat(mu,nu) *= 2.0
      execute compute_integrals vx(mu,la,nu,si)
      kmat(mu,nu) = vx(mu,la,nu,si) * dmat(la,si)
      jmat(mu,nu) -= kmat(mu,nu)
      put F(mu,nu) += jmat(mu,nu)
    enddo nu
  enddo mu
endpardo la, si
sip_barrier

fsum = 0.0
pardo mu, nu
  get F(mu,nu)
  t(mu,nu) = F(mu,nu)
  fsum += t(mu,nu) * t(mu,nu)
endpardo mu, nu
fnorm2 = 0.0
collective fnorm2 += fsum
fnorm = sqrt(fnorm2)
endsial
)");
  EXPECT_NEAR(scattered.scalar("fnorm"), direct.scalar("fnorm"), 1e-10);
}

}  // namespace
}  // namespace sia::sip
