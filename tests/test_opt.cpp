// Tests for the SIAL mid-end (src/sial/opt/): redundant-barrier
// elimination, static access sets, the source-ranged diagnostics the
// pass emits, and — the load-bearing property — that optimized programs
// produce bit-identical results on the full SIP across every chemistry
// workload.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
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
// Redundant barrier elimination.

// A defensive back-to-back pair: only the first barrier separates the
// put phase from the get phase.
const char* const kBarrierSource = R"(
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
)";

TEST(BarrierTest, BackToBackBarrierEliminated) {
  const OptResult opt =
      sial::opt::optimize(sial::compile_sial(kBarrierSource), 1);
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
  // Every barrier in these shipped chemistry programs separates a write
  // phase from a read phase: the pass must keep all of them.
  for (const std::string& source :
       {chem::contraction_demo_source(), chem::ccd_energy_source(),
        chem::comm_storm_source(), chem::mp2_served_source(),
        chem::sparse_fock_source()}) {
    const CompiledProgram raw = sial::compile_sial(source);
    const OptResult opt = sial::opt::optimize(raw, 1);
    EXPECT_EQ(count_op(opt.program, Opcode::kSipBarrier),
              count_op(raw, Opcode::kSipBarrier))
        << opt.program.name;
    EXPECT_EQ(count_op(opt.program, Opcode::kServerBarrier),
              count_op(raw, Opcode::kServerBarrier))
        << opt.program.name;
  }
}

TEST(BarrierTest, IoStormDropsTwoSweepBarriersAndKeepsThePrepareOne) {
  // io_storm's prepare phase is the only served write, so the
  // server_barrier right after it is the one that orders the program;
  // the barriers closing each read sweep and the shared-read phase only
  // separate reads from reads.
  const CompiledProgram raw = sial::compile_sial(chem::io_storm_source());
  const OptResult opt = sial::opt::optimize(raw, 1);
  EXPECT_EQ(count_diags(opt.diagnostics, sial::kDiagRedundantBarrier), 2);
  EXPECT_EQ(count_op(opt.program, Opcode::kServerBarrier),
            count_op(raw, Opcode::kServerBarrier) - 2);
  const int prepare_end = find_op(opt.program, Opcode::kPardoEnd);
  ASSERT_GE(prepare_end, 0);
  EXPECT_EQ(opt.program.code[static_cast<std::size_t>(prepare_end) + 1].op,
            Opcode::kServerBarrier);
  EXPECT_NE(sial::disassemble_annotated(opt.program)
                .find("nop  ; eliminated: redundant server_barrier"),
            std::string::npos);

  // The elements are 100·a + k, so snorm2 is an exact integer:
  // nsweeps·Σ_{a,k} (100a+k)² + workers·Σ_{r≤nshared,k} (100r+k)².
  constexpr std::int64_t kWorkers = 2, kNorb = 32, kSweeps = 2, kShared = 16;
  std::int64_t expected = 0;
  for (std::int64_t a = 1; a <= kNorb; ++a) {
    for (std::int64_t k = 1; k <= kNorb; ++k) {
      const std::int64_t square = (100 * a + k) * (100 * a + k);
      expected += kSweeps * square + (a <= kShared ? kWorkers * square : 0);
    }
  }
  for (int level : {0, 1}) {
    SipConfig config = small_config();
    config.workers = kWorkers;
    config.default_segment = 8;
    config.constants = {{"norb", kNorb}, {"nsweeps", kSweeps},
                        {"nshared", kShared}};
    config.opt_level = level;
    sip::Sip sip(config);
    EXPECT_EQ(sip.run_source(chem::io_storm_source()).scalar("snorm2"),
              static_cast<double>(expected))
        << "-O" << level;
  }
}

TEST(BarrierTest, ChaosRunAtO1StaysExactlyOnce) {
  // Fault injection under the optimizer: elimination must not have
  // removed a barrier the ack/retry protocol depends on. Compared to
  // tight rounding rather than bit-for-bit: with 3 workers the put +=
  // accumulate order at the owner is timing-dependent even fault-free
  // (see BitIdentityTest), while a lost or double-applied accumulate
  // would move cnorm2 at percent level — far outside the tolerance.
  SipConfig config = small_config();
  config.constants["norb"] = 16;
  config.opt_level = 1;
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
// Static access sets.

TEST(AccessSetTest, ContractionReadsOperandsAndWritesTemp) {
  const CompiledProgram program =
      sial::compile_sial(chem::comm_storm_source());
  // The sweep's `tmp(a,b) = A(a,k) * A(b,k)` reads both gets' blocks and
  // writes the temp.
  const int pc = find_op(program, Opcode::kBlockBinary);
  ASSERT_GE(pc, 0);
  const auto access = sial::opt::instruction_accesses(
      program.code[static_cast<std::size_t>(pc)]);
  ASSERT_EQ(access.size(), 3u);
  EXPECT_FALSE(access[0].write);
  EXPECT_FALSE(access[1].write);
  EXPECT_TRUE(access[2].write);
  EXPECT_EQ(access[2].operand.array_id, program.array_id("tmp"));
}

// ---------------------------------------------------------------------
// Diagnostics rendering.

TEST(DiagRenderTest, CaretSnippetsWithNotes) {
  const std::string source = kBarrierSource;
  const OptResult opt =
      sial::opt::optimize(sial::compile_sial(source), 1);
  const std::string out =
      sial::render_diags(opt.diagnostics, source, "barriers.sial");
  EXPECT_NE(out.find("barriers.sial:"), std::string::npos);
  EXPECT_NE(out.find("warning: this barrier is redundant [W001]"),
            std::string::npos);
  EXPECT_NE(out.find("sip_barrier"), std::string::npos);
  EXPECT_NE(out.find("^~~"), std::string::npos);
  EXPECT_NE(
      out.find("note: no conflicting access separates it from this barrier"),
      std::string::npos);
}

// ---------------------------------------------------------------------
// The opt-vs-noopt bit-identity matrix over the chemistry programs.

// Application-style sweep written the way production SIAL often is:
// doubled "just in case" barriers and a wrong-class server_barrier
// around a pardo that re-reads a loop-invariant block every do
// iteration. Only the first sip_barrier orders anything.
const char* const kDefensiveSource = R"(
sial opt_defensive
aoindex a = 1, norb
aoindex b = 1, norb
index it = 1, niter

distributed A(a,b)
temp t(a,b)
temp w(a,b)
scalar s
scalar fnorm2

pardo a, b
  execute random_block t(a,b) 5
  put A(a,b) = t(a,b)
endpardo a, b
sip_barrier
sip_barrier

s = 0.0
pardo a, b
  do it
    get A(a,b)
    w(a,b) = A(a,b)
    s += w(a,b) * w(a,b)
  enddo it
endpardo a, b
sip_barrier
sip_barrier
server_barrier
fnorm2 = 0.0
collective fnorm2 += s
endsial
)";

std::int64_t barriers_executed(const sip::RunResult& result) {
  std::int64_t total = 0;
  for (const auto& line : result.profile.lines) {
    if (line.opcode == "sip_barrier" || line.opcode == "server_barrier") {
      total += line.count;
    }
  }
  return total;
}

TEST(BitIdentityTest, AllLevelsMatchO0) {
  // Compared on each program's published (post-collective) result
  // scalars: worker-0 partial sums like csum/esum legitimately vary with
  // dynamic chunk assignment even without the optimizer. comm_storm's
  // cnorm2 further depends on the arrival order of concurrent put +=
  // accumulates at the block owner, which varies run to run even at -O0
  // with a fixed config, so it is compared to tight rounding instead of
  // bit for bit. opt_defensive runs on one worker, where the pardo
  // schedule and so every sum is deterministic, and is the program
  // whose barrier count -O1 must cut.
  struct Case {
    std::string source;
    std::vector<std::string> outputs;
    bool exact;
    int workers;
    bool drops_barriers;
  };
  const Case programs[] = {
      {chem::ccd_energy_source(), {"energy", "rnorm2"}, true, 3, false},
      {chem::comm_storm_source(), {"cnorm2"}, false, 3, false},
      {chem::mp2_served_source(), {"e2", "tnorm2"}, true, 3, false},
      {chem::sparse_fock_source(), {"fnorm2"}, true, 3, false},
      {kDefensiveSource, {"fnorm2"}, true, 1, true},
  };
  for (const auto& [source, outputs, exact, workers, drops_barriers] :
       programs) {
    SipConfig base = small_config();
    base.workers = workers;
    base.constants["niter"] = 3;
    base.opt_level = 0;
    sip::Sip sip0(base);
    const sip::RunResult baseline = sip0.run_source(source);

    SipConfig config = base;
    config.opt_level = 1;
    sip::Sip sip(config);
    const sip::RunResult got = sip.run_source(source);
    for (const std::string& scalar : outputs) {
      const double want = baseline.scalar(scalar);
      if (exact) {
        EXPECT_EQ(got.scalar(scalar), want) << scalar;
      } else {
        EXPECT_NEAR(got.scalar(scalar), want, 1e-10 * std::abs(want))
            << scalar;
      }
    }
    if (drops_barriers) {
      EXPECT_LT(barriers_executed(got), barriers_executed(baseline));
    } else {
      EXPECT_EQ(barriers_executed(got), barriers_executed(baseline));
    }
  }
}

}  // namespace
}  // namespace sia
