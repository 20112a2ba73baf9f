// SIA bytecode.
//
// "A SIAL program is compiled into super instruction byte code which is
// executed by the SIP. The byte code includes a table of instructions to
// be executed along with operand addresses given as entries in data
// descriptor tables." (paper §V-A). CompiledProgram is that artifact: an
// instruction table plus index/array/scalar/pardo/proc descriptor tables.
// Symbolic constants remain symbolic here; they are replaced with concrete
// values during initialization (program.hpp).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "blas/permute.hpp"
#include "sial/ast.hpp"

namespace sia::sial {

enum class Opcode {
  kHalt,
  kNop,

  // Control flow. Jump targets are absolute instruction indices.
  kPardoStart,   // a0 = pardo table id, a1 = pc of matching kPardoEnd
  kPardoEnd,     // a0 = pc of matching kPardoStart, a1 = pardo table id
  kDoStart,      // a0 = index id, a1 = pc of matching kDoEnd,
                 // a2 = super index id for `do ii in i` (else -1)
  kDoEnd,        // a0 = pc of matching kDoStart
  kJump,         // a0 = target pc
  kJumpIfFalse,  // a0 = target pc; pops condition from the scalar stack
  kCall,         // a0 = proc table id
  kReturn,
  kExitLoop,     // a0 = pc of the innermost enclosing kDoEnd

  // Scalar expression stack machine.
  kPushNumber,  // f0
  kPushScalar,  // a0 = scalar slot
  kPushIndex,   // a0 = index id; pushes the current segment value
  kPushConst,   // a0 = constant table id; value bound at initialization
  kNeg, kAdd, kSub, kMul, kDiv,
  kSqrt, kAbs, kExpFn,
  kCompare,      // a0 = CmpOp as int; pops rhs, lhs; pushes 0/1
  kStoreScalar,  // a0 = scalar slot, a1 = AssignStmt::Op as int; pops value
  kBlockDot,     // blocks[0] . blocks[1] full contraction; pushes scalar

  // Output.
  kPrintTop,     // pops and prints the top of the scalar stack
  kPrintString,  // a0 = string table id

  // Block operations (the intrinsic computational super instructions).
  kBlockScalarOp,   // blocks[0] op= scalar; a0 = AssignStmt::Op; pops value
  kBlockCopy,       // blocks[0] = blocks[1]; a0 = Op (=, +=, -=)
  kBlockBinary,     // blocks[0] = blocks[1] <op> blocks[2];
                    // a0 = Op (=, +=), a1 = BinOp (* contraction, + -)
  kBlockScaledCopy, // blocks[0] op= <popped scalar> * blocks[1]; a0 = Op

  // Memory and communication.
  kGet,        // blocks[0]: distributed array block (async fetch)
  kRequest,    // blocks[0]: served array block (async fetch)
  kPut,        // blocks[0] <- blocks[1]; a0 = accumulate (0/1)
  kPrepare,    // blocks[0] <- blocks[1]; a0 = accumulate (0/1)
  kAllocate,   // blocks[0]: local array region (wildcard index id = -1)
  kDeallocate, // blocks[0]
  kCreate,     // a0 = array id (distributed)
  kDeleteArr,  // a0 = array id (distributed)
  kExecute,    // a0 = super instruction table id; uses `eargs`
  kSipBarrier,
  kServerBarrier,
  kCollective,  // a0 = dst scalar slot, a1 = src scalar slot
  kCheckpoint,  // a0 = array id, a1 = string table id (file key)
  kRestoreArr,  // a0 = array id, a1 = string table id
};

const char* opcode_name(Opcode op);

// A block operand: array id plus the index *variable* ids selecting the
// block. Index identity is variable identity — the contraction planner
// matches operand dimensions by index id. A wildcard dimension
// (allocate/deallocate) has index id kWildcardIndex.
inline constexpr int kWildcardIndex = -1;

struct BlockOperand {
  int array_id = -1;
  int rank = 0;
  std::array<int, blas::kMaxRank> index_ids{};

  std::string to_string() const;  // debug form, ids only
};

// Argument of a kExecute instruction.
struct ExecOperand {
  enum class Kind { kBlock, kScalar, kString, kNumber };
  Kind kind = Kind::kScalar;
  BlockOperand block;
  int slot = -1;        // scalar slot / string table id
  double number = 0.0;
};

struct Instruction {
  Opcode op = Opcode::kNop;
  int line = 0;
  SrcRange range;  // source span of the originating statement
  int a0 = -1, a1 = -1, a2 = -1;
  double f0 = 0.0;
  std::vector<BlockOperand> blocks;
  std::vector<ExecOperand> eargs;
};

// ---------------------------------------------------------------------
// Descriptor tables.

struct IndexInfo {
  std::string name;
  IndexType type = IndexType::kSimple;
  IntExpr low, high;   // element bounds (symbolic until init)
  int super_id = -1;   // kSub only
};

struct ArrayInfo {
  std::string name;
  ArrayKind kind = ArrayKind::kTemp;
  bool sparse = false;  // screenable under the runtime sparse threshold
  std::vector<int> index_ids;  // declared index per dimension
  int rank() const { return static_cast<int>(index_ids.size()); }
};

struct ScalarInfo {
  std::string name;
};

struct WhereOp {
  int lhs_index_id = -1;
  CmpOp op = CmpOp::kLt;
  bool rhs_is_index = false;
  int rhs_index_id = -1;
  IntExpr rhs_const;  // when !rhs_is_index (symbolic until init)
};

struct PardoInfo {
  std::vector<int> index_ids;
  std::vector<WhereOp> wheres;
  // `pardo ii in i`: index_ids = {ii}, sub_of = i's id; wheres empty.
  int sub_of = -1;
  int start_pc = -1;
  int end_pc = -1;
};

struct ProcInfo {
  std::string name;
  int entry_pc = -1;
};

struct CompiledProgram {
  std::string name;
  std::vector<IndexInfo> indices;
  std::vector<ArrayInfo> arrays;
  std::vector<ScalarInfo> scalars;
  std::vector<std::string> strings;
  std::vector<std::string> superinstructions;  // names used by kExecute
  std::vector<std::string> constants;          // symbolic constant names
  std::vector<PardoInfo> pardos;
  std::vector<ProcInfo> procs;
  std::vector<Instruction> code;

  // The SIAL text this program was compiled from (diagnostic snippets).
  std::string source;
  // Mid-end bookkeeping: opt_level_applied records the level that ran;
  // each opt_note tags a pc with what the pass did there (an
  // "eliminated: ..." marker on a kNop) for annotated disassembly.
  int opt_level_applied = 0;
  std::vector<std::pair<int, std::string>> opt_notes;

  // Name lookups; -1 if absent.
  int index_id(const std::string& name) const;
  int array_id(const std::string& name) const;
  int scalar_id(const std::string& name) const;
};

}  // namespace sia::sial
