// Tests for the SIAL performance-model derivation (paper §VIII's planned
// "support for performance modeling").
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "chem/programs.hpp"
#include "sial/compiler.hpp"
#include "sim/des.hpp"
#include "sim/machine.hpp"
#include "sim/program_model.hpp"
#include "sim/sip_model.hpp"
#include "sip/master.hpp"

#ifndef SIA_PROGRAMS_DIR
#define SIA_PROGRAMS_DIR "programs"
#endif

namespace sia::sim {
namespace {

sial::ResolvedProgram resolve(const std::string& source, int segment = 4,
                              long norb = 16, long nocc = 8) {
  SipConfig config;
  config.default_segment = segment;
  config.constants = {{"norb", norb}, {"nocc", nocc}, {"maxiter", 3},
                      {"n", norb}};
  return sial::ResolvedProgram(sial::compile_sial(source), config);
}

TEST(ProgramModelTest, OnePhasePerTopLevelPardo) {
  const auto program = resolve(chem::contraction_demo_source());
  const WorkloadModel model = model_program(program);
  // Fill pardo, contraction pardo, checksum pardo.
  ASSERT_EQ(model.phases.size(), 3u);
  for (const PhaseModel& phase : model.phases) {
    EXPECT_GT(phase.tasks, 0);
    EXPECT_GT(phase.flops_per_task, 0.0);
  }
}

TEST(ProgramModelTest, TaskCountsMatchFilteredSpaces) {
  const auto program = resolve(R"(
sial p
moindex i = 1, nocc
moindex j = 1, nocc
temp t(i,j)
pardo i, j where i < j
  t(i,j) = 1.0
endpardo i, j
endsial
)");
  const WorkloadModel model = model_program(program);
  ASSERT_EQ(model.phases.size(), 1u);
  // nocc=8, segment 4 -> 2 segments per index; i<j leaves 1 pair.
  EXPECT_EQ(model.phases[0].tasks, 1);
}

TEST(ProgramModelTest, ContractionFlopsCounted) {
  const auto program = resolve(R"(
sial p
moindex i = 1, nocc
moindex j = 1, nocc
moindex k = 1, nocc
temp a(i,k)
temp b(k,j)
temp c(i,j)
pardo i, j
  do k
    c(i,j) += a(i,k) * b(k,j)
  enddo k
endpardo i, j
endsial
)");
  const WorkloadModel model = model_program(program);
  ASSERT_EQ(model.phases.size(), 1u);
  // Per iteration: 2 do-k trips x (2 * 4*4 dst * 4 common) = 512 flops.
  EXPECT_DOUBLE_EQ(model.phases[0].flops_per_task, 2.0 * 2.0 * 16.0 * 4.0);
}

TEST(ProgramModelTest, FetchVolumeFromGets) {
  const auto program = resolve(R"(
sial p
moindex i = 1, nocc
moindex j = 1, nocc
distributed d(i,j)
temp t(i,j)
pardo i
  do j
    get d(i,j)
    t(i,j) = d(i,j)
  enddo j
endpardo i
endsial
)");
  const WorkloadModel model = model_program(program);
  ASSERT_EQ(model.phases.size(), 1u);
  EXPECT_EQ(model.phases[0].fetches_per_task, 2);  // 2 do-j trips
  EXPECT_DOUBLE_EQ(model.phases[0].bytes_per_fetch, 16.0 * 8.0);
}

TEST(ProgramModelTest, OuterDoBecomesSweeps) {
  const auto program = resolve(R"(
sial p
index iter = 1, maxiter
moindex i = 1, nocc
temp t(i)
do iter
  pardo i
    t(i) = 1.0
  endpardo i
enddo iter
endsial
)");
  const WorkloadModel model = model_program(program);
  ASSERT_EQ(model.phases.size(), 1u);
  EXPECT_EQ(model.phases[0].sweeps, 3);  // maxiter
}

TEST(ProgramModelTest, SequentialWorkBecomesSerialPhase) {
  const auto program = resolve(R"(
sial p
moindex i = 1, nocc
temp t(i)
do i
  t(i) = 1.0
enddo i
endsial
)");
  const WorkloadModel model = model_program(program);
  ASSERT_EQ(model.phases.size(), 1u);
  EXPECT_EQ(model.phases[0].name, "sequential");
  EXPECT_EQ(model.phases[0].tasks, 1);
}

TEST(ProgramModelTest, ProcBodiesAreInlined) {
  const auto program = resolve(R"(
sial p
moindex i = 1, nocc
moindex j = 1, nocc
moindex k = 1, nocc
temp a(i,k)
temp b(k,j)
temp c(i,j)
proc work
  do j
    do k
      c(i,j) += a(i,k) * b(k,j)
    enddo k
  enddo j
endproc
pardo i
  call work
endpardo i
endsial
)");
  const WorkloadModel model = model_program(program);
  ASSERT_GE(model.phases.size(), 1u);
  EXPECT_GT(model.phases[0].flops_per_task, 0.0);
}

TEST(ProgramModelTest, CcdModelProjectsSensibly) {
  // A system large enough that compute dominates the per-phase overheads.
  const auto program = resolve(chem::ccd_energy_source(), 4, 48, 16);
  const WorkloadModel model = model_program(program);
  EXPECT_GT(model.total_flops(), 1e9);
  // Projected times shrink with more cores while tasks outnumber them.
  const MachineModel machine = cray_xt5();
  const double t4 = simulate_workload(machine, model, 4, SimOptions{}).seconds;
  const double t64 = simulate_workload(machine, model, 64, SimOptions{}).seconds;
  EXPECT_LT(t64, t4);
}

TEST(ProgramModelTest, MemoryFootprintsFilled) {
  const auto program = resolve(chem::ccd_energy_source(), 4, 24, 8);
  const WorkloadModel model = model_program(program);
  EXPECT_GT(model.sia_resident_total, 0.0);   // distributed T, Tnew
  EXPECT_GT(model.sia_fixed_per_core, 0.0);   // temp pools
}

TEST(ProgramModelTest, ClassLoadsCountEachInstruction) {
  // Per iteration: 2 do-k trips, each an integral fill, a contraction and
  // a get; then one put. (Chunk requests are the schedule's to count.)
  const auto program = resolve(R"(
sial p
moindex i = 1, nocc
moindex j = 1, nocc
moindex k = 1, nocc
distributed d(k,j)
distributed c(i,j)
temp t(i,k)
temp p(i,j)
pardo i, j
  do k
    execute compute_integrals t(i,k)
    get d(k,j)
    p(i,j) = t(i,k) * d(k,j)
  enddo k
  put c(i,j) = p(i,j)
endpardo i, j
endsial
)");
  const WorkloadModel model = model_program(program);
  ASSERT_EQ(model.phases.size(), 1u);
  const Load& load = model.phases[0].load_per_task;
  const auto at = [&load](CostClass cls) {
    return load[static_cast<std::size_t>(cls)];
  };
  EXPECT_DOUBLE_EQ(at(CostClass::kExecute).count, 2.0);
  EXPECT_DOUBLE_EQ(at(CostClass::kExecute).units, 2.0 * 16.0);  // 4x4
  EXPECT_DOUBLE_EQ(at(CostClass::kContract).count, 2.0);
  EXPECT_DOUBLE_EQ(at(CostClass::kContract).units,
                   2.0 * (2.0 * 16.0 * 4.0));  // flops
  EXPECT_DOUBLE_EQ(at(CostClass::kTransfer).count, 3.0);
  EXPECT_DOUBLE_EQ(at(CostClass::kTransfer).units, 3.0 * 16.0 * 8.0);
  EXPECT_DOUBLE_EQ(at(CostClass::kChunk).count, 0.0);
  EXPECT_DOUBLE_EQ(at(CostClass::kSync).count, 0.0);
  // The fit reads the same units per pc that the model sums.
  double execute_units = 0.0;
  for (const sial::Instruction& instr : program.code().code) {
    const auto one = instruction_load(program, instr);
    if (one && one->cls == CostClass::kExecute) execute_units += one->units;
  }
  EXPECT_DOUBLE_EQ(execute_units, 16.0);
}

TEST(ProgramModelTest, BarriersAreSequentialLoad) {
  const auto program = resolve(R"(
sial p
moindex i = 1, nocc
distributed d(i)
temp t(i)
scalar s
pardo i
  t(i) = 1.0
  put d(i) = t(i)
endpardo i
sip_barrier
collective s += s
endsial
)");
  const WorkloadModel model = model_program(program);
  ASSERT_EQ(model.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(
      model.sequential_load[static_cast<std::size_t>(CostClass::kSync)].count,
      2.0);
}

// The dry run and the simulator read one walk: for every shipped program
// and any per-worker budget, the dry run finds that no worker count fits
// exactly when the simulator reports the pools exceed memory.
TEST(ProgramModelTest, DryRunAndSimulatorAgreeOnHopelessBudgets) {
  std::vector<std::string> sources = {
      chem::contraction_demo_source(), chem::mp2_energy_source(),
      chem::ccd_energy_source(),       chem::fock_build_source(),
      chem::comm_storm_source(),       chem::io_storm_source(),
      chem::mp2_served_source(),       chem::sparse_fock_source(),
      chem::sparse_mp2_source()};
  for (const char* file : {"mp2.sial", "paper_fragment.sial",
                           "quickstart.sial", "subindex_demo.sial"}) {
    std::ifstream in(std::string(SIA_PROGRAMS_DIR) + "/" + file);
    ASSERT_TRUE(in.good()) << file;
    std::ostringstream text;
    text << in.rdbuf();
    sources.push_back(text.str());
  }
  ASSERT_EQ(sources.size(), 13u);
  const MachineModel machine = cray_xt5();
  int hopeless = 0, fitting = 0;
  for (const std::string& source : sources) {
    const sial::CompiledProgram code = sial::compile_sial(source);
    for (const int workers : {1, 3}) {
      for (int shift = 10; shift <= 26; ++shift) {
        SipConfig config;
        config.workers = workers;
        config.default_segment = 4;
        config.worker_memory_bytes = std::size_t{1} << shift;
        config.constants = {{"norb", 16}, {"nocc", 8},    {"maxiter", 2},
                            {"n", 16},    {"nsweeps", 2}, {"nshared", 8}};
        const sial::ResolvedProgram program(code, config);
        const sip::DryRunReport dry = sip::dry_run(program);
        const SiaOutcome outcome = simulate_sia(
            machine, model_program(program), workers, SimOptions{},
            static_cast<double>(config.worker_memory_bytes));
        const bool exceeds = !outcome.completed &&
                             outcome.reason ==
                                 "per-worker block pools exceed memory";
        EXPECT_EQ(dry.workers_needed == 0, exceeds)
            << code.name << " workers=" << workers << " budget=2^" << shift
            << " fixed=" << dry.fixed_bytes();
        ++(exceeds ? hopeless : fitting);
      }
    }
  }
  EXPECT_GT(hopeless, 0);
  EXPECT_GT(fitting, 0);
}

}  // namespace
}  // namespace sia::sim
