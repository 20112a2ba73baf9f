// Static analyses over SIAL bytecode shared by the optimizer passes
// (src/sial/opt/optimizer.cpp): region (loop) structure, control-flow
// successors, symbolic per-instruction read/write sets, and a nominal
// cost model for compile-time flop estimates.
//
// Everything here is conservative: analyses may say "don't know" (maybe
// sliced, maybe written) but must never claim a fact the runtime could
// contradict.
#pragma once

#include <vector>

#include "sial/bytecode.hpp"

namespace sia::sial::opt {

// ---------------------------------------------------------------------
// Region (loop) tree.

// One do/pardo nest in the instruction stream: [start_pc, end_pc] spans
// the kDoStart/kPardoStart through its matching end instruction.
struct Region {
  int start_pc = -1;
  int end_pc = -1;
  bool is_pardo = false;
  int pardo_id = -1;            // pardos table id (is_pardo only)
  int index_id = -1;            // loop index (do only)
  int super_id = -1;            // `do ii in i` super index (do only)
  std::vector<int> index_ids;   // every index this region binds
  int parent = -1;              // enclosing region, -1 at top level
};

// All regions in pre-order (outer before inner).
std::vector<Region> find_regions(const CompiledProgram& program);

// Index of the innermost region whose *body* contains pc
// (start_pc < pc < end_pc); -1 when pc is at top level.
int innermost_region(const std::vector<Region>& regions, int pc);

// ---------------------------------------------------------------------
// Control flow.

// Successor pcs of the instruction at pc. kCall is treated as falling
// through (the callee is analyzed separately and passes treat kCall as
// a clobber); kReturn/kHalt have no successors.
std::vector<int> successors(const CompiledProgram& program, int pc);

// ---------------------------------------------------------------------
// Operand shape facts.

// Static mirror of ResolvedProgram::resolve_operand's slicing rule: a
// dimension addressed by a kSub index whose declared dimension is not
// kSub selects a slice of the stored block. Wildcard dimensions are
// conservatively "maybe sliced" too (they never reach resolve_operand,
// but no pass should treat them as full blocks).
bool maybe_sliced(const CompiledProgram& program, const BlockOperand& operand);

// One symbolic element of an instruction's read/write set: the block the
// instruction touches, expressed over index *variables* (the same
// operand form the bytecode itself uses).
struct Access {
  BlockOperand operand;
  bool write = false;
  // Write-only full overwrite of an unsliced block (assign mode): the
  // previous contents are dead.
  bool full_overwrite = false;
};

// Symbolic read/write set of a single instruction, reads before writes.
// Mirrors the interpreter's data accesses: block operands of compute
// ops, fetch targets, put/prepare destinations (write-only, even when
// accumulating: the local shadow never reads the remote block), kExecute
// eargs (read and write each), and whole-array ops (create/delete/
// checkpoint/restore) as rank-0 writes.
std::vector<Access> instruction_accesses(const CompiledProgram& program,
                                         const Instruction& instr);

// ---------------------------------------------------------------------
// Nominal cost model.

// Value bound to every symbolic constant when sizing index extents at
// compile time. The *relative* cost of two contraction orders is what
// matters; 32 keeps products comfortably inside long.
inline constexpr long kNominalConstant = 32;

// Evaluates a symbolic integer expression under the nominal binding.
long nominal_eval(const IntExpr& expr);

// Nominal element extent of an index (>= 1). Subindices inherit the
// extent of their super index.
long nominal_extent(const CompiledProgram& program, int index_id);

}  // namespace sia::sial::opt
