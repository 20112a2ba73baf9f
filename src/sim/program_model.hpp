// Performance modeling of SIAL programs (the paper's §VIII: "We have
// identified opportunities to ... provide useful tool support for SIAL
// programmers. These include ... providing support for performance
// modeling").
//
// model_program is the one abstract execution of a resolved SIAL program:
// a single structured walk of its bytecode. It derives the simulator
// workload: one PhaseModel per top-level pardo, with task counts taken
// from the actual (where-filtered) iteration spaces, per-iteration flop
// counts and per-class instruction loads from the body (times the trip
// counts of enclosing sequential do loops), and fetch/put volumes from the
// get/put/request/prepare statements. Feeding the result to
// simulate_workload projects how the program would scale on a modeled
// cluster — before burning allocation hours. The same walk fills the
// workload's WorkerMemory, which is the paper's dry run (§V-B): the
// master's report and its per-class pool plan read it (sip::dry_run).
#pragma once

#include <optional>

#include "sial/program.hpp"
#include "sim/workload.hpp"

namespace sia::sim {

// The cost class of one instruction and its units per execution (at each
// index's largest segment). Empty for instructions the cost table does
// not price. The planner's post-run fit reads it to turn per-pc profiles
// into per-class samples, so the model and the fit agree on every unit.
struct InstructionLoad {
  CostClass cls;
  double units = 0.0;
};
std::optional<InstructionLoad> instruction_load(
    const sial::ResolvedProgram& program, const sial::Instruction& instr);

// Derives the workload and one worker's memory. Phases appear in program
// order; pardos nested in sequential do loops get the loop trip count as
// `sweeps`. Sequential (non-pardo) block work is folded into a trailing
// single-task phase if present.
WorkloadModel model_program(const sial::ResolvedProgram& program);

}  // namespace sia::sim
