// Tests for the SIAL mid-end (src/sial/opt/): loop-invariant hoisting to
// kPrefetch, redundant-barrier elimination, dead-store elimination,
// contraction reassociation, static access sets, the source-ranged
// diagnostics the passes emit, and — the load-bearing property — that
// optimized programs produce bit-identical results on the full SIP
// across every chemistry workload.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "common/config.hpp"
#include "sial/compiler.hpp"
#include "sial/diag.hpp"
#include "sial/disasm.hpp"
#include "sial/opt/analysis.hpp"
#include "sial/opt/optimizer.hpp"
#include "sip/launch.hpp"

namespace sia {
namespace {

using sial::CompiledProgram;
using sial::Diag;
using sial::Opcode;
using sial::opt::OptResult;

int count_op(const CompiledProgram& program, Opcode op) {
  int count = 0;
  for (const auto& instr : program.code) {
    if (instr.op == op) ++count;
  }
  return count;
}

int find_op(const CompiledProgram& program, Opcode op, int nth = 0) {
  for (int pc = 0; pc < static_cast<int>(program.code.size()); ++pc) {
    if (program.code[static_cast<std::size_t>(pc)].op == op && nth-- == 0) {
      return pc;
    }
  }
  return -1;
}

int count_diags(const std::vector<Diag>& diags, const char* code) {
  int count = 0;
  for (const Diag& diag : diags) {
    if (diag.code == code) ++count;
  }
  return count;
}

const Diag* find_diag(const std::vector<Diag>& diags, const char* code) {
  for (const Diag& diag : diags) {
    if (diag.code == code) return &diag;
  }
  return nullptr;
}

SipConfig small_config() {
  chem::register_chem_superinstructions();
  SipConfig config;
  config.workers = 3;
  config.io_servers = 1;
  config.default_segment = 4;
  config.constants = {{"n", 8}, {"norb", 8}, {"nocc", 4}, {"maxiter", 2}};
  return config;
}

// ---------------------------------------------------------------------
// Satellite: source ranges survive lexer -> parser -> bytecode.

TEST(OptRangesTest, InstructionsCarryColumnAccurateRanges) {
  const CompiledProgram program = sial::compile_sial(
      "sial ranges\n"
      "aoindex a = 1, n\n"
      "aoindex k = 1, n\n"
      "distributed D(a,k)\n"
      "do a\n"
      "  do k\n"
      "    get D(a,k)\n"
      "  enddo k\n"
      "enddo a\n"
      "endsial\n");
  const int get_pc = find_op(program, Opcode::kGet);
  ASSERT_GE(get_pc, 0);
  const sial::SrcRange& range =
      program.code[static_cast<std::size_t>(get_pc)].range;
  EXPECT_EQ(range.line, 7);
  EXPECT_EQ(range.col, 5);  // "get" starts at column 5
  EXPECT_GT(range.end_col, range.col);
  EXPECT_FALSE(program.source.empty());
}

// ---------------------------------------------------------------------
// Pass 1: loop-invariant hoisting.

const char* const kHoistSource = R"(
sial hoist_demo
aoindex a = 1, n
aoindex b = 1, n
aoindex k = 1, n
distributed D(a,b)
temp t(a,b)
temp u(a,b)
scalar s
scalar total
pardo a, b
  execute random_block t(a,b) 3
  put D(a,b) = t(a,b)
endpardo a, b
sip_barrier
s = 0.0
pardo a, b
  do k
    get D(a,b)
    u(a,b) = D(a,b)
    s += u(a,b) * u(a,b)
  enddo k
endpardo a, b
total = 0.0
collective total += s
endsial
)";

TEST(HoistTest, LoopInvariantGetBecomesPrefetch) {
  const CompiledProgram raw = sial::compile_sial(kHoistSource);
  EXPECT_EQ(count_op(raw, Opcode::kPrefetch), 0);
  ASSERT_EQ(count_op(raw, Opcode::kGet), 1);

  const OptResult opt = sial::opt::optimize(raw, 1);
  // The get's block id uses only the pardo's indices, so it is invariant
  // in k: hoisted to one prefetch, the body get nop'd.
  EXPECT_EQ(count_op(opt.program, Opcode::kPrefetch), 1);
  EXPECT_EQ(count_op(opt.program, Opcode::kGet), 0);

  // Placed immediately before the do loop, with the loop's index as the
  // zero-trip guard.
  const int prefetch_pc = find_op(opt.program, Opcode::kPrefetch);
  const int do_pc = find_op(opt.program, Opcode::kDoStart);
  ASSERT_GE(prefetch_pc, 0);
  EXPECT_EQ(do_pc, prefetch_pc + 1);
  const auto& prefetch =
      opt.program.code[static_cast<std::size_t>(prefetch_pc)];
  EXPECT_EQ(prefetch.a0, opt.program.index_id("k"));
  EXPECT_EQ(prefetch.a1, -1);

  // Loop bookkeeping still paired after the pc shift.
  const auto& do_start = opt.program.code[static_cast<std::size_t>(do_pc)];
  EXPECT_EQ(opt.program.code[static_cast<std::size_t>(do_start.a1)].op,
            Opcode::kDoEnd);
  EXPECT_EQ(opt.program.code[static_cast<std::size_t>(do_start.a1)].a0,
            do_pc);

  ASSERT_EQ(count_diags(opt.diagnostics, sial::kDiagLoopInvariantGet), 1);
  const Diag* diag =
      find_diag(opt.diagnostics, sial::kDiagLoopInvariantGet);
  EXPECT_NE(diag->message.find("this get is loop-invariant (hoisted)"),
            std::string::npos);
  ASSERT_EQ(diag->notes.size(), 1u);
  EXPECT_NE(diag->notes[0].message.find("before this loop"),
            std::string::npos);

  const std::string listing = sial::disassemble_annotated(opt.program);
  EXPECT_NE(listing.find("prefetch"), std::string::npos);
  EXPECT_NE(listing.find("hoisted: loop-invariant D(a,b)"),
            std::string::npos);
}

TEST(HoistTest, LoopVaryingAndPutConflictingGetsStay) {
  // comm_storm's sweep gets use the do index k: nothing to hoist.
  const OptResult opt =
      sial::opt::optimize(sial::compile_sial(chem::comm_storm_source()), 2);
  EXPECT_EQ(count_op(opt.program, Opcode::kPrefetch), 0);
  EXPECT_EQ(count_diags(opt.diagnostics, sial::kDiagLoopInvariantGet), 0);
}

TEST(HoistTest, HoistedRunMatchesUnoptimizedBitForBit) {
  SipConfig base = small_config();
  base.opt_level = 0;
  sip::Sip sip0(base);
  const sip::RunResult r0 = sip0.run_source(kHoistSource);

  for (int level : {1, 2}) {
    SipConfig config = small_config();
    config.opt_level = level;
    sip::Sip sip(config);
    const sip::RunResult r = sip.run_source(kHoistSource);
    EXPECT_EQ(r.scalar("total"), r0.scalar("total")) << "level=" << level;
  }
}

// ---------------------------------------------------------------------
// Pass 2: redundant barrier elimination.

TEST(BarrierTest, BackToBackBarrierEliminated) {
  const OptResult opt = sial::opt::optimize(sial::compile_sial(R"(
sial barriers
aoindex a = 1, n
aoindex b = 1, n
distributed D(a,b)
temp t(a,b)
temp u(a,b)
scalar s
scalar total
pardo a, b
  execute random_block t(a,b) 1
  put D(a,b) = t(a,b)
endpardo a, b
sip_barrier
sip_barrier
s = 0.0
pardo a, b
  get D(a,b)
  u(a,b) = D(a,b)
  s += u(a,b) * u(a,b)
endpardo a, b
total = 0.0
collective total += s
endsial
)"),
                                             1);
  // One of the pair is redundant; the separating one must survive.
  EXPECT_EQ(count_op(opt.program, Opcode::kSipBarrier), 1);
  ASSERT_EQ(count_diags(opt.diagnostics, sial::kDiagRedundantBarrier), 1);
  const Diag* diag =
      find_diag(opt.diagnostics, sial::kDiagRedundantBarrier);
  EXPECT_NE(diag->message.find("this barrier is redundant"),
            std::string::npos);
  ASSERT_EQ(diag->notes.size(), 1u);
  EXPECT_NE(diag->notes[0].message.find("no conflicting access separates"),
            std::string::npos);
}

TEST(BarrierTest, WrongClassBarrierEliminatedRightClassKept) {
  // Only distributed traffic crosses this point, so a server barrier
  // there separates nothing; the sip barrier carries the dependence.
  const OptResult opt = sial::opt::optimize(sial::compile_sial(R"(
sial classes
aoindex a = 1, n
aoindex b = 1, n
distributed D(a,b)
temp t(a,b)
temp u(a,b)
scalar s
pardo a, b
  execute random_block t(a,b) 1
  put D(a,b) = t(a,b)
endpardo a, b
server_barrier
sip_barrier
pardo a, b
  get D(a,b)
  u(a,b) = D(a,b)
  s += u(a,b) * u(a,b)
endpardo a, b
endsial
)"),
                                             1);
  EXPECT_EQ(count_op(opt.program, Opcode::kServerBarrier), 0);
  EXPECT_EQ(count_op(opt.program, Opcode::kSipBarrier), 1);
}

TEST(BarrierTest, NeededBarriersNeverEliminated) {
  // Every barrier in the shipped chemistry programs separates a write
  // phase from a read phase: the pass must keep all of them.
  for (const std::string& source :
       {chem::contraction_demo_source(), chem::ccd_energy_source(),
        chem::comm_storm_source(), chem::mp2_served_source(),
        chem::sparse_fock_source()}) {
    const CompiledProgram raw = sial::compile_sial(source);
    const OptResult opt = sial::opt::optimize(raw, 2);
    EXPECT_EQ(count_op(opt.program, Opcode::kSipBarrier),
              count_op(raw, Opcode::kSipBarrier))
        << opt.program.name;
    EXPECT_EQ(count_op(opt.program, Opcode::kServerBarrier),
              count_op(raw, Opcode::kServerBarrier))
        << opt.program.name;
  }
}

TEST(BarrierTest, ChaosRunAtO2StaysExactlyOnce) {
  // Fault injection under the optimizer: elimination must not have
  // removed a barrier the ack/retry protocol depends on. Compared to
  // tight rounding rather than bit-for-bit: with 3 workers the put +=
  // accumulate order at the owner is timing-dependent even fault-free
  // (see BitIdentityTest), while a lost or double-applied accumulate
  // would move cnorm2 at percent level — far outside the tolerance.
  SipConfig config = small_config();
  config.constants["norb"] = 16;
  config.opt_level = 2;
  sip::Sip clean_sip(config);
  const double baseline =
      clean_sip.run_source(chem::comm_storm_source()).scalar("cnorm2");
  for (int seed : {1, 7}) {
    SipConfig chaotic = config;
    chaotic.retry_timeout_ms = 50;
    chaotic.fault_plan =
        FaultPlan::parse("drop=0.01,dup=0.01,seed=" + std::to_string(seed));
    sip::Sip sip(chaotic);
    EXPECT_NEAR(sip.run_source(chem::comm_storm_source()).scalar("cnorm2"),
                baseline, 1e-10 * std::abs(baseline))
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Pass 3: dead-store elimination.

TEST(DeadStoreTest, OverwrittenTempStoreEliminated) {
  const OptResult opt = sial::opt::optimize(sial::compile_sial(R"(
sial dse
aoindex a = 1, n
aoindex b = 1, n
temp t(a,b)
temp w(a,b)
temp u(a,b)
scalar s
s = 0.0
pardo a, b
  execute random_block t(a,b) 5
  execute random_block w(a,b) 6
  u(a,b) = t(a,b)
  u(a,b) = w(a,b)
  s += u(a,b) * u(a,b)
endpardo a, b
endsial
)"),
                                             1);
  // The first copy into u is overwritten unread; the second is consumed.
  EXPECT_EQ(count_op(opt.program, Opcode::kBlockCopy), 1);
  ASSERT_EQ(count_diags(opt.diagnostics, sial::kDiagDeadStore), 1);
  const Diag* diag = find_diag(opt.diagnostics, sial::kDiagDeadStore);
  EXPECT_NE(diag->message.find("dead store"), std::string::npos);
  ASSERT_EQ(diag->notes.size(), 1u);
}

TEST(DeadStoreTest, ReadBetweenStoresBlocksElimination) {
  const OptResult opt = sial::opt::optimize(sial::compile_sial(R"(
sial dse_neg
aoindex a = 1, n
aoindex b = 1, n
temp t(a,b)
temp w(a,b)
temp u(a,b)
scalar s
s = 0.0
pardo a, b
  execute random_block t(a,b) 5
  execute random_block w(a,b) 6
  u(a,b) = t(a,b)
  s += u(a,b) * u(a,b)
  u(a,b) = w(a,b)
  s += u(a,b) * u(a,b)
endpardo a, b
endsial
)"),
                                             1);
  EXPECT_EQ(count_op(opt.program, Opcode::kBlockCopy), 2);
  EXPECT_EQ(count_diags(opt.diagnostics, sial::kDiagDeadStore), 0);
}

// ---------------------------------------------------------------------
// Pass 4 (-O2): contraction reassociation.

const char* const kReassocSource = R"(
sial reassoc
moindex i = 1, 32
moindex j = 1, 4
moindex k = 1, 4
moindex l = 1, 4
temp A(i,j)
temp B(j,k)
temp C(k,l)
temp t1(i,k)
temp d(i,l)
scalar s
scalar total
s = 0.0
pardo i, l
  do j
    do k
      execute random_block A(i,j) 1
      execute random_block B(j,k) 2
      execute random_block C(k,l) 3
      t1(i,k) = A(i,j) * B(j,k)
      d(i,l) = t1(i,k) * C(k,l)
      s += d(i,l) * d(i,l)
    enddo k
  enddo j
endpardo i, l
total = 0.0
collective total += s
endsial
)";

TEST(ReassocTest, CheaperOrderRewritesThroughFreshIntermediate) {
  const OptResult opt =
      sial::opt::optimize(sial::compile_sial(kReassocSource), 2);
  ASSERT_EQ(count_diags(opt.diagnostics, sial::kDiagReassociated), 1);
  const Diag* diag = find_diag(opt.diagnostics, sial::kDiagReassociated);
  // (A*B)*C contracts the big index i twice; B*C first touches it once.
  EXPECT_NE(diag->message.find("B(j,k) * C(k,l) is computed first"),
            std::string::npos);
  EXPECT_NE(opt.program.array_id("@reassoc0"), -1);

  // def now computes t2(j,l) = B*C and use consumes A * t2.
  const int def_pc = find_op(opt.program, Opcode::kBlockBinary, 0);
  const int use_pc = find_op(opt.program, Opcode::kBlockBinary, 1);
  ASSERT_GE(def_pc, 0);
  const auto& def = opt.program.code[static_cast<std::size_t>(def_pc)];
  const auto& use = opt.program.code[static_cast<std::size_t>(use_pc)];
  EXPECT_EQ(def.blocks[0].array_id, opt.program.array_id("@reassoc0"));
  EXPECT_EQ(def.blocks[1].array_id, opt.program.array_id("B"));
  EXPECT_EQ(def.blocks[2].array_id, opt.program.array_id("C"));
  EXPECT_EQ(use.blocks[0].array_id, opt.program.array_id("d"));
  EXPECT_EQ(use.blocks[1].array_id, opt.program.array_id("A"));
  EXPECT_EQ(use.blocks[2].array_id, opt.program.array_id("@reassoc0"));
}

TEST(ReassocTest, OnlyFiresAtO2) {
  const OptResult opt =
      sial::opt::optimize(sial::compile_sial(kReassocSource), 1);
  EXPECT_EQ(count_diags(opt.diagnostics, sial::kDiagReassociated), 0);
  EXPECT_EQ(opt.program.array_id("@reassoc0"), -1);
}

TEST(ReassocTest, ReassociatedRunMatchesToRounding) {
  // Reassociation changes the floating-point summation order, so the
  // contract is near-equality, not bit-equality.
  SipConfig base = small_config();
  base.opt_level = 0;
  sip::Sip sip0(base);
  const double expected = sip0.run_source(kReassocSource).scalar("total");

  SipConfig config = small_config();
  config.opt_level = 2;
  sip::Sip sip2(config);
  const double got = sip2.run_source(kReassocSource).scalar("total");
  EXPECT_NEAR(got, expected, 1e-9 * (1.0 + std::abs(expected)));
}

TEST(ReassocTest, NeverFiresOnShippedChemistryPrograms) {
  // The bit-identity matrix below depends on this: -O2 equals -O0
  // exactly because no chemistry program matches the rewrite pattern.
  for (const std::string& source :
       {chem::contraction_demo_source(), chem::mp2_energy_source(),
        chem::ccd_energy_source(), chem::fock_build_source(),
        chem::comm_storm_source(), chem::mp2_served_source(),
        chem::sparse_fock_source(), chem::sparse_mp2_source()}) {
    const OptResult opt =
        sial::opt::optimize(sial::compile_sial(source), 2);
    EXPECT_EQ(count_diags(opt.diagnostics, sial::kDiagReassociated), 0)
        << opt.program.name;
  }
}

// ---------------------------------------------------------------------
// Static access sets.

TEST(AccessSetTest, ContractionReadsOperandsAndOverwritesTemp) {
  const CompiledProgram program =
      sial::compile_sial(chem::comm_storm_source());
  // The sweep's `tmp(a,b) = A(a,k) * A(b,k)` reads both gets' blocks and
  // fully overwrites a never-sliced temp.
  const int pc = find_op(program, Opcode::kBlockBinary);
  ASSERT_GE(pc, 0);
  const auto access = sial::opt::instruction_accesses(
      program, program.code[static_cast<std::size_t>(pc)]);
  ASSERT_EQ(access.size(), 3u);
  EXPECT_FALSE(access[0].write);
  EXPECT_FALSE(access[1].write);
  EXPECT_TRUE(access[2].write);
  EXPECT_TRUE(access[2].full_overwrite);
}

// ---------------------------------------------------------------------
// Diagnostics rendering.

TEST(DiagRenderTest, CaretSnippetsWithNotes) {
  const std::string source = kHoistSource;
  const OptResult opt =
      sial::opt::optimize(sial::compile_sial(source), 1);
  const std::string out =
      sial::render_diags(opt.diagnostics, source, "hoist.sial");
  EXPECT_NE(out.find("hoist.sial:"), std::string::npos);
  EXPECT_NE(
      out.find("warning: this get is loop-invariant (hoisted) [W003]"),
      std::string::npos);
  EXPECT_NE(out.find("get D(a,b)"), std::string::npos);
  EXPECT_NE(out.find("^~~"), std::string::npos);
  EXPECT_NE(out.find("note: hoisted to a prefetch before this loop"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// The opt-vs-noopt bit-identity matrix over the chemistry programs.

TEST(BitIdentityTest, AllLevelsMatchO0) {
  // Compared on each program's published (post-collective) result
  // scalars: worker-0 partial sums like csum/esum legitimately vary with
  // dynamic chunk assignment even without the optimizer. comm_storm's
  // cnorm2 further depends on the arrival order of concurrent put +=
  // accumulates at the block owner, which varies run to run even at -O0
  // with a fixed config, so it is compared to tight rounding instead of
  // bit for bit.
  struct Case {
    std::string source;
    std::vector<std::string> outputs;
    bool exact;
  };
  const Case programs[] = {
      {chem::ccd_energy_source(), {"energy", "rnorm2"}, true},
      {chem::comm_storm_source(), {"cnorm2"}, false},
      {chem::mp2_served_source(), {"e2", "tnorm2"}, true},
      {chem::sparse_fock_source(), {"fnorm2"}, true},
  };
  for (const auto& [source, outputs, exact] : programs) {
    SipConfig base = small_config();
    base.opt_level = 0;
    sip::Sip sip0(base);
    const sip::RunResult baseline = sip0.run_source(source);

    for (int level : {1, 2}) {
      SipConfig config = small_config();
      config.opt_level = level;
      sip::Sip sip(config);
      const sip::RunResult got = sip.run_source(source);
      for (const std::string& scalar : outputs) {
        const double want = baseline.scalar(scalar);
        if (exact) {
          EXPECT_EQ(got.scalar(scalar), want) << scalar << " -O" << level;
        } else {
          EXPECT_NEAR(got.scalar(scalar), want, 1e-10 * std::abs(want))
              << scalar << " -O" << level;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sia
