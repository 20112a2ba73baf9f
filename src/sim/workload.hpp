// Workload models: the paper's computations as task-graph parameters.
//
// Each benchmark computation is reduced to the quantities that govern its
// parallel behaviour under the SIP: how many pardo iterations (tasks) the
// dominant phases have, how many flops each performs, and how many bytes
// each must fetch and store. The counts follow the method cost structure
// the paper quotes in §II (MP2 ~ n^5, CCSD ~ n^6, CCSD(T) ~ n^7) applied
// block-wise with a given segment size.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "chem/system.hpp"

namespace sia::sim {

// The opcode classes the planner's cost table prices. An instruction
// costs a fixed time plus a time per unit of its size; each class names
// its unit below. Control flow and scalar instructions are not priced.
enum class CostClass : int {
  kContract = 0,  // block contraction; unit: flop
  kExecute,       // superinstruction; unit: element of its first block
  kElementwise,   // element-wise op, copy, dot; unit: element
  kChunk,         // pardo chunk request (grant round trip); fixed, per
                  // request of the guided schedule
  kSync,          // barrier, collective; fixed
  kTransfer,      // get, put, request, prepare; unit: byte
};
inline constexpr std::size_t kCostClassCount = 6;
inline constexpr std::array<const char*, kCostClassCount> kCostClassNames = {
    "contract", "execute", "elementwise", "chunk", "sync", "transfer"};

// Instructions executed and units processed, per cost class.
struct ClassLoad {
  double count = 0.0;
  double units = 0.0;
};
using Load = std::array<ClassLoad, kCostClassCount>;

// One pardo phase of a computation.
struct PhaseModel {
  std::string name;
  std::int64_t tasks = 0;        // filtered pardo iterations
  double flops_per_task = 0.0;
  // Per-class instruction load of one iteration (model_program fills it;
  // the hand-built workloads leave it empty).
  Load load_per_task{};
  std::int64_t fetches_per_task = 0;  // remote block fetches per iteration
  double bytes_per_fetch = 0.0;
  std::int64_t puts_per_task = 0;
  double bytes_per_put = 0.0;
  int sweeps = 1;                // repetitions (e.g. CC iterations)
};

struct WorkloadModel {
  std::string name;
  std::vector<PhaseModel> phases;
  // Per-class load of the sequential (non-pardo) code, which every worker
  // runs; the "sequential" phase carries only its flops and fetches.
  Load sequential_load{};

  // Memory footprints for the feasibility models (bytes).
  double sia_resident_total = 0.0;  // distributed arrays (shared across P)
  double sia_fixed_per_core = 0.0;  // blocks, cache, statics per worker
  double ga_resident_total = 0.0;   // GA-style rigid allocation, total
  double ga_fixed_per_core = 0.0;   // GA-style per-core buffers/replicas

  double total_flops() const;
};

// One CCSD iteration (doubles residual; ladder + ring structure).
WorkloadModel ccsd_iteration(const chem::MolecularSystem& system,
                             int segment);

// Full CCSD energy: `iterations` CCSD sweeps (Fig. 2 reports per-iteration
// time; Figs. 3-4 report full runs).
WorkloadModel ccsd_energy(const chem::MolecularSystem& system, int segment,
                          int iterations);

// CCSD(T): CCSD followed by the perturbative-triples phase (n^7).
WorkloadModel ccsd_t(const chem::MolecularSystem& system, int segment,
                     int iterations);

// Fock-matrix build over shell-quartet blocks (Fig. 6).
WorkloadModel fock_build(const chem::MolecularSystem& system, int segment);

// UHF MP2 gradient (Fig. 7): integral transform + amplitude assembly.
WorkloadModel mp2_gradient(const chem::MolecularSystem& system, int segment);

}  // namespace sia::sim
