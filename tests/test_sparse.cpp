// Block-sparsity and norm-screening tests.
//
// Covers the screening engine bottom-up: the per-block cached Frobenius
// norm and the canonical shared zero block, the norm-product kernel
// screens, and randomized end-to-end properties over ranks 1-4 sparse
// arrays: at sparse_threshold = 0 a `sparse` array is bit-identical to
// the dense engine, and at threshold > 0 the checksum error is bounded
// by threshold * (number of screened contributions) — the screening
// contract from DESIGN.md. The served path (norm-marker prepares,
// norm-only request replies, eviction re-screening) is exercised through
// full SIP launches.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "sip/launch.hpp"
#include "sip/superinstr.hpp"

namespace sia::sip {
namespace {

// ---------------------------------------------------------------------
// Norm cache and the canonical zero block.

TEST(BlockNormTest, FreshBlockHasZeroNorm) {
  const int extents[] = {3, 4};
  Block block{BlockShape{extents}};
  EXPECT_EQ(block.norm(), 0.0);
}

TEST(BlockNormTest, NormRecomputedAfterMutableAccess) {
  const int extents[] = {2, 2};
  Block block{BlockShape{extents}};
  block.data()[0] = 3.0;
  block.data()[3] = 4.0;
  EXPECT_DOUBLE_EQ(block.norm(), 5.0);
  // Mutable element access invalidates the cache.
  const int index[] = {0, 0};
  block.at(index) = 0.0;
  EXPECT_DOUBLE_EQ(block.norm(), 4.0);
  // Const access does not.
  const Block& view = block;
  EXPECT_EQ(view.data()[3], 4.0);
  EXPECT_DOUBLE_EQ(block.norm(), 4.0);
}

TEST(BlockNormTest, ZeroBlockIsCanonicalPerShape) {
  const int extents[] = {4, 4};
  const int other[] = {4, 5};
  const BlockPtr a = zero_block(BlockShape{extents});
  const BlockPtr b = zero_block(BlockShape{extents});
  const BlockPtr c = zero_block(BlockShape{other});
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(a->norm(), 0.0);
  for (const double v : a->data()) EXPECT_EQ(v, 0.0);
  // The registry keeps its own reference, so COW guards (use_count > 2
  // with two holders) always treat the shared zero block as immutable.
  EXPECT_GE(a.use_count(), 3);
}

// ---------------------------------------------------------------------
// Kernel-level screening: GEMM / dot / permute skips.

void fill_value(Block& block, double value) {
  for (double& x : block.data()) x = value;
}

TEST(KernelScreenTest, ContractSkipsWhenNormProductBelowThreshold) {
  const int extents[] = {2, 2};
  Block a{BlockShape{extents}}, b{BlockShape{extents}};
  Block dst{BlockShape{extents}};
  fill_value(a, 1e-9);
  fill_value(b, 1.0);
  fill_value(dst, 7.0);
  const int ab[] = {0, 1};
  const int bc[] = {1, 2};
  const int ac[] = {0, 2};
  const std::uint64_t before = kernels_screened_count();
  // ||a|| * ||b|| = 2e-9 * 2 = 4e-9 < 1e-8: assign mode must zero dst.
  block_contract(dst, ac, a, ab, b, bc, /*accumulate=*/false, 1e-8);
  EXPECT_EQ(kernels_screened_count(), before + 1);
  for (const double v : dst.data()) EXPECT_EQ(v, 0.0);
  // Accumulate mode must leave dst untouched.
  fill_value(dst, 7.0);
  block_contract(dst, ac, a, ab, b, bc, /*accumulate=*/true, 1e-8);
  for (const double v : dst.data()) EXPECT_EQ(v, 7.0);
  // Above the threshold the GEMM runs.
  block_contract(dst, ac, a, ab, b, bc, /*accumulate=*/false, 1e-12);
  EXPECT_NE(dst.data()[0], 0.0);
}

TEST(KernelScreenTest, DotSkipsWhenNormProductBelowThreshold) {
  const int extents[] = {3};
  Block a{BlockShape{extents}}, b{BlockShape{extents}};
  fill_value(a, 1e-6);
  fill_value(b, 1e-6);
  const int ids[] = {0};
  EXPECT_EQ(block_dot(a, ids, b, ids, 1e-8), 0.0);
  EXPECT_NE(block_dot(a, ids, b, ids, 0.0), 0.0);
}

TEST(KernelScreenTest, PermuteAccumulateSkipsButAssignCopies) {
  const int extents[] = {2, 3};
  Block src{BlockShape{extents}};
  Block dst{BlockShape{extents}};
  fill_value(src, 1e-10);
  fill_value(dst, 1.0);
  const int ids[] = {0, 1};
  block_copy_permute(dst, ids, src, ids, CopyMode::kAccumulate, 1e-8);
  for (const double v : dst.data()) EXPECT_EQ(v, 1.0);
  // Assign must still define dst even below the threshold.
  block_copy_permute(dst, ids, src, ids, CopyMode::kAssign, 1e-8);
  for (const double v : dst.data()) EXPECT_EQ(v, 1e-10);
}

// ---------------------------------------------------------------------
// Randomized end-to-end properties over ranks 1-4.

SipConfig sparse_config(int workers, int segment, double threshold) {
  chem::register_chem_superinstructions();
  SipConfig config;
  config.workers = workers;
  config.io_servers = 1;
  config.default_segment = segment;
  config.sparse_threshold = threshold;
  config.constants = {{"n", 16}, {"norb", 96}, {"nocc", 16}};
  return config;
}

// put/get round trip over a rank-r banded array: fills D with fill_decay
// blocks, reads every block back, and reduces total = sum_b ||b||^2 one
// block-dot at a time. Every screened block drops a contribution of
// ||b||^2 < threshold^2 from the checksum.
std::string rank_roundtrip_source(int rank, bool sparse, double rate,
                                  int fill_seed) {
  static const char* const kNames[] = {"i", "j", "k", "l"};
  std::string sel = "(";
  std::string decls;
  std::string loop;
  for (int d = 0; d < rank; ++d) {
    decls += std::string("aoindex ") + kNames[d] + " = 1, n\n";
    sel += std::string(d > 0 ? "," : "") + kNames[d];
    loop += std::string(d > 0 ? ", " : "") + kNames[d];
  }
  sel += ")";
  std::string out = "sial rank_roundtrip\n" + decls;
  out += std::string(sparse ? "sparse " : "") + "distributed D" + sel + "\n";
  out += "temp t" + sel + "\ntemp u" + sel + "\n";
  out += "scalar lsum\nscalar total\n";
  out += "pardo " + loop + "\n";
  out += "  execute fill_decay t" + sel + " " + std::to_string(rate) + " " +
         std::to_string(fill_seed) + "\n";
  out += "  put D" + sel + " = t" + sel + "\nendpardo " + loop + "\n";
  out += "sip_barrier\n";
  out += "lsum = 0.0\npardo " + loop + "\n";
  out += "  get D" + sel + "\n  u" + sel + " = D" + sel + "\n";
  out += "  lsum += u" + sel + " * u" + sel + "\nendpardo " + loop + "\n";
  out += "total = 0.0\ncollective total += lsum\nendsial\n";
  return out;
}

TEST(SparsePropertyTest, ThresholdZeroIsBitIdenticalToDense) {
  std::mt19937 rng(20260808);
  for (int rank = 1; rank <= 4; ++rank) {
    for (int draw = 0; draw < 2; ++draw) {
      const double rate =
          std::uniform_real_distribution<double>(1.8, 2.5)(rng);
      const int fill_seed = static_cast<int>(rng() % 1000) + 1;
      // One worker makes the float accumulation order reproducible
      // across the two runs, so equality is exact.
      const std::string dense =
          rank_roundtrip_source(rank, false, rate, fill_seed);
      const std::string sparse =
          rank_roundtrip_source(rank, true, rate, fill_seed);
      Sip dense_sip(sparse_config(1, 4, 0.0));
      Sip sparse_sip(sparse_config(1, 4, 0.0));
      const double want = dense_sip.run_source(dense).scalar("total");
      const RunResult got = sparse_sip.run_source(sparse);
      EXPECT_EQ(got.scalar("total"), want)
          << "rank=" << rank << " draw=" << draw;
      EXPECT_EQ(got.traffic.blocks_screened, 0);
      EXPECT_FALSE(got.profile.screening.any());
    }
  }
}

TEST(SparsePropertyTest, ScreeningErrorIsBoundedByThreshold) {
  std::mt19937 rng(424242);
  const double threshold = 1e-3;
  for (int rank = 1; rank <= 4; ++rank) {
    const double rate = std::uniform_real_distribution<double>(1.8, 2.5)(rng);
    const int fill_seed = static_cast<int>(rng() % 1000) + 1;
    const int workers = 1 + static_cast<int>(rng() % 3);
    const std::string source =
        rank_roundtrip_source(rank, true, rate, fill_seed);
    Sip exact_sip(sparse_config(workers, 4, 0.0));
    Sip screened_sip(sparse_config(workers, 4, threshold));
    const double want = exact_sip.run_source(source).scalar("total");
    const RunResult got = screened_sip.run_source(source);

    std::int64_t blocks = 1;
    for (int d = 0; d < rank; ++d) blocks *= 4;  // n=16, segment 4
    std::int64_t block_elements = 1;
    for (int d = 0; d < rank; ++d) block_elements *= 4;
    // The contract: |delta| <= threshold * (scalar contributions), one
    // block-dot of block_elements terms per block. This workload is
    // tighter still — every dropped dot is Cauchy-Schwarz-bounded by its
    // norm product, which the screen kept below the threshold — so one
    // threshold per *block* also holds; assert both.
    const double delta = std::abs(got.scalar("total") - want);
    EXPECT_LE(delta, threshold * static_cast<double>(blocks * block_elements))
        << "rank=" << rank;
    EXPECT_LE(delta, threshold * static_cast<double>(blocks))
        << "rank=" << rank;
    // The banded fill must actually screen something at this threshold.
    // The census counts D's absent home blocks, whichever worker put
    // them; the fabric's blocks_screened counts only remote transfers
    // elided, and is 0 when the chunk schedule keeps every screened
    // block with its owner.
    EXPECT_GT(got.profile.screening.puts_screened, 0) << "rank=" << rank;
    ASSERT_EQ(got.profile.screening.arrays.size(), 1u) << "rank=" << rank;
    EXPECT_GT(got.profile.screening.arrays[0].screened, 0) << "rank=" << rank;
  }
}

// ---------------------------------------------------------------------
// End-to-end distributed screening: the sparse Fock workload.

TEST(SparseFockTest, ScreenedRunMatchesExactWithinBound) {
  SipConfig exact = sparse_config(2, 16, 0.0);
  SipConfig screened = sparse_config(2, 16, 1e-8);
  Sip exact_sip(exact);
  Sip screened_sip(screened);
  const double want =
      exact_sip.run_source(chem::sparse_fock_source()).scalar("fnorm2");
  const RunResult got = screened_sip.run_source(chem::sparse_fock_source());
  // ||F~||^2 - ||F||^2 is bounded by (||F~|| + ||F||) * threshold * K;
  // 1e-4 is orders of magnitude above that for this size.
  EXPECT_NEAR(got.scalar("fnorm2"), want, 1e-4);
  EXPECT_GT(got.profile.screening.kernels_screened, 0);
  EXPECT_GT(got.profile.screening.puts_screened, 0);
  EXPECT_GT(got.profile.screening.gets_screened, 0);
  EXPECT_GT(got.traffic.bytes_elided, 0);
  ASSERT_EQ(got.profile.screening.arrays.size(), 2u);  // D and G
  for (const auto& census : got.profile.screening.arrays) {
    EXPECT_GT(census.screened, 0) << census.name;
    EXPECT_LT(census.screened, census.total) << census.name;
  }
}

// ---------------------------------------------------------------------
// End-to-end served screening: marker prepares and norm-only replies.

TEST(SparseServedTest, Mp2ServedScreensPreparesAndRequests) {
  SipConfig exact = sparse_config(2, 4, 0.0);
  SipConfig screened = sparse_config(2, 4, 1e-8);
  Sip exact_sip(exact);
  Sip screened_sip(screened);
  const double want =
      exact_sip.run_source(chem::sparse_mp2_source()).scalar("e2");
  const RunResult got = screened_sip.run_source(chem::sparse_mp2_source());
  EXPECT_NEAR(got.scalar("e2"), want, 1e-6);
  EXPECT_GT(got.profile.screening.prepares_screened, 0);
  EXPECT_GT(got.profile.screening.requests_screened, 0);
  EXPECT_GT(got.profile.screening.zero_reads, 0);
}

// A block that decays to exactly zero on the server (t then -t
// accumulated) must not be written to disk when it is flushed or
// evicted: the victim handler re-screens and records a presence-map
// marker instead (satellite: no all-zero payloads on disk).
TEST(SparseServedTest, EvictionReScreensDecayedBlocks) {
  SipConfig config = sparse_config(2, 8, 1e-8);
  // Cache of 4 blocks for a 64-block array: phase-2 accumulates evict
  // their predecessors through the victim handler while still dirty.
  config.server_cache_bytes = 4 * 8 * 8 * sizeof(double);
  Sip sip(config);
  const RunResult result = sip.run_source(R"(
sial evict_rescreen
aoindex a = 1, norb
aoindex k = 1, norb
sparse served S(a,k)
temp t(a,k)
temp u(a,k)
scalar lsum
scalar total
pardo a, k
  execute fill_coords t(a,k)
  prepare S(a,k) = t(a,k)
endpardo a, k
server_barrier
pardo a, k
  execute fill_coords t(a,k)
  u(a,k) = 0.0
  u(a,k) -= t(a,k)
  prepare S(a,k) += u(a,k)
endpardo a, k
server_barrier
lsum = 0.0
pardo a, k
  request S(a,k)
  t(a,k) = S(a,k)
  lsum += t(a,k) * t(a,k)
endpardo a, k
total = 0.0
collective total += lsum
endsial
)");
  // Every block decayed to exact zero, so the checksum is exactly zero
  // and every dirty flush/eviction after phase 2 must have re-screened.
  EXPECT_EQ(result.scalar("total"), 0.0);
  EXPECT_GT(result.profile.screening.evictions_screened, 0);
}

// A program whose every block is screened moves no payload at all: the
// screened put, get reply, prepare and request reply are header-only
// markers. (No collective: its scalar is the only other payload.)
TEST(SparseServedTest, FullyScreenedProgramMovesNoPayload) {
  SipConfig config = sparse_config(3, 4, 1e-8);
  Sip sip(config);
  const RunResult result = sip.run_source(R"(
sial all_screened
aoindex a = 1, n
aoindex k = 1, n
sparse distributed D(a,k)
sparse served S(a,k)
temp t(a,k)
temp u(a,k)
scalar lsum
pardo a, k
  t(a,k) = 0.0
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
endsial
)");
  EXPECT_EQ(result.scalar("lsum"), 0.0);
  const ProfileReport::Screening& screening = result.profile.screening;
  EXPECT_EQ(screening.puts_screened, 16);
  EXPECT_EQ(screening.prepares_screened, 16);
  EXPECT_GT(screening.gets_screened, 0);  // the remote ones
  EXPECT_GT(screening.requests_screened, 0);
  EXPECT_GT(result.traffic.blocks_screened, 0);
  EXPECT_EQ(result.traffic.payload_doubles_sent, 0);
}

}  // namespace
}  // namespace sia::sip
