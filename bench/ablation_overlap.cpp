// Ablation: communication/computation overlap (the SIA's central
// performance mechanism, paper §III and §V-A).
//
// Two views:
//   1. the cluster-scale simulator with the overlap pipeline on vs off
//      (off = blocking gets, the style GA programs get by default);
//   2. the real threaded runtime, where prefetch depth controls how much
//      of the fetch latency is hidden; the result is identical either
//      way, only the wait profile moves.
#include <cstdio>
#include <iostream>

#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "chem/system.hpp"
#include "common/stats.hpp"
#include "sim/des.hpp"
#include "sim/machine.hpp"
#include "sim/report.hpp"
#include "sim/workload.hpp"
#include "sip/launch.hpp"

int main() {
  using namespace sia;
  std::printf("=== Ablation: overlap of communication and computation "
              "===\n");

  const sim::MachineModel machine = sim::cray_xt5();
  // A small segment makes each inner step's transfer comparable to its
  // compute, which is where overlap pays (larger segments hide transfers
  // even without prefetch; see ablation_segment_size).
  const sim::WorkloadModel workload =
      sim::ccsd_iteration(chem::rdx(), 6);

  TablePrinter table(std::cout,
                     {"procs", "overlap[s]", "blocking[s]", "speedup"},
                     {6, 11, 12, 8});
  table.print_header();
  for (const long p : {512, 1024, 2048, 4096}) {
    sim::SimOptions on;
    sim::SimOptions off;
    off.overlap = false;
    const double t_on =
        sim::simulate_workload(machine, workload, p, on).seconds;
    const double t_off =
        sim::simulate_workload(machine, workload, p, off).seconds;
    table.print_row({std::to_string(p), sim::fmt(t_on, 1),
                     sim::fmt(t_off, 1), sim::fmt(t_off / t_on, 2)});
  }

  std::printf("\n--- real-runtime check (single host core: workers are\n"
              "    time-sliced, so absolute wait%% is dominated by the\n"
              "    interleaving; the invariant is the unchanged result) ---\n");
  chem::register_chem_superinstructions();
  for (const int depth : {0, 2, 4}) {
    SipConfig config;
    config.workers = 4;
    config.io_servers = 0;
    config.default_segment = 4;
    config.prefetch_depth = depth;
    config.constants = {{"norb", 12}, {"nocc", 4}, {"maxiter", 2}};
    sip::Sip sip(config);
    const sip::RunResult result =
        sip.run_source(chem::ccd_energy_source());
    std::printf("prefetch depth %d: wait %.2f%% of work time, "
                "energy %.10f\n",
                depth, result.profile.wait_percent(),
                result.scalar("energy"));
  }
  return 0;
}
