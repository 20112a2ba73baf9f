// Static analyses over SIAL bytecode for the barrier-elimination pass
// (src/sial/opt/optimizer.cpp): control-flow successors and symbolic
// per-instruction read/write sets.
//
// Everything here is conservative: analyses may say "maybe written" but
// must never claim a fact the runtime could contradict.
#pragma once

#include <vector>

#include "sial/bytecode.hpp"

namespace sia::sial::opt {

// ---------------------------------------------------------------------
// Control flow.

// Successor pcs of the instruction at pc. kCall is treated as falling
// through (the callee is analyzed separately and the pass treats kCall as
// a clobber); kReturn/kHalt have no successors.
std::vector<int> successors(const CompiledProgram& program, int pc);

// ---------------------------------------------------------------------
// Access sets.

// One symbolic element of an instruction's read/write set: the block the
// instruction touches, expressed over index *variables* (the same
// operand form the bytecode itself uses).
struct Access {
  BlockOperand operand;
  bool write = false;
};

// Symbolic read/write set of a single instruction, reads before writes.
// Mirrors the interpreter's data accesses: block operands of compute
// ops, fetch targets, put/prepare destinations (write-only, even when
// accumulating: the local shadow never reads the remote block), kExecute
// eargs (read and write each), and whole-array ops (create/delete/
// checkpoint/restore) as rank-0 writes.
std::vector<Access> instruction_accesses(const Instruction& instr);

}  // namespace sia::sial::opt
