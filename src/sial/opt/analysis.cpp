#include "sial/opt/analysis.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sia::sial::opt {

namespace {

constexpr int kModeAssign = static_cast<int>(AssignStmt::Op::kAssign);

Access read_of(const BlockOperand& operand) {
  Access access;
  access.operand = operand;
  access.write = false;
  return access;
}

Access write_of(const CompiledProgram& program, const BlockOperand& operand,
                bool full) {
  Access access;
  access.operand = operand;
  access.write = true;
  access.full_overwrite = full && !maybe_sliced(program, operand);
  return access;
}

Access whole_array_write(int array_id) {
  Access access;
  access.operand.array_id = array_id;
  access.operand.rank = 0;
  access.write = true;
  return access;
}

}  // namespace

// ---------------------------------------------------------------------
// Regions.

std::vector<Region> find_regions(const CompiledProgram& program) {
  std::vector<Region> regions;
  std::vector<int> stack;  // open region indices
  for (int pc = 0; pc < static_cast<int>(program.code.size()); ++pc) {
    const Instruction& instr = program.code[static_cast<std::size_t>(pc)];
    switch (instr.op) {
      case Opcode::kDoStart: {
        Region region;
        region.start_pc = pc;
        region.end_pc = instr.a1;
        region.index_id = instr.a0;
        region.super_id = instr.a2;
        region.index_ids.push_back(instr.a0);
        region.parent = stack.empty() ? -1 : stack.back();
        stack.push_back(static_cast<int>(regions.size()));
        regions.push_back(std::move(region));
        break;
      }
      case Opcode::kPardoStart: {
        Region region;
        region.start_pc = pc;
        region.end_pc = instr.a1;
        region.is_pardo = true;
        region.pardo_id = instr.a0;
        region.index_ids =
            program.pardos[static_cast<std::size_t>(instr.a0)].index_ids;
        region.parent = stack.empty() ? -1 : stack.back();
        stack.push_back(static_cast<int>(regions.size()));
        regions.push_back(std::move(region));
        break;
      }
      case Opcode::kDoEnd:
      case Opcode::kPardoEnd:
        SIA_CHECK(!stack.empty(), "unmatched loop end at pc " +
                                      std::to_string(pc));
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  SIA_CHECK(stack.empty(), "unclosed loop region");
  return regions;
}

int innermost_region(const std::vector<Region>& regions, int pc) {
  int best = -1;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    const Region& region = regions[r];
    if (region.start_pc < pc && pc < region.end_pc &&
        (best < 0 ||
         region.start_pc > regions[static_cast<std::size_t>(best)].start_pc)) {
      best = static_cast<int>(r);
    }
  }
  return best;
}

// ---------------------------------------------------------------------
// Control flow.

std::vector<int> successors(const CompiledProgram& program, int pc) {
  const Instruction& instr = program.code[static_cast<std::size_t>(pc)];
  switch (instr.op) {
    case Opcode::kJump:
    case Opcode::kExitLoop:
      return {instr.a0};
    case Opcode::kJumpIfFalse:
      return {pc + 1, instr.a0};
    case Opcode::kDoStart:
    case Opcode::kPardoStart:
      // Body, or straight past the end when the loop runs zero times.
      return {pc + 1, instr.a1 + 1};
    case Opcode::kDoEnd:
    case Opcode::kPardoEnd:
      // Back to the body for the next iteration, or fall out.
      return {instr.a0 + 1, pc + 1};
    case Opcode::kReturn:
    case Opcode::kHalt:
      return {};
    default:
      return {pc + 1};
  }
}

// ---------------------------------------------------------------------
// Operand shape facts.

bool maybe_sliced(const CompiledProgram& program,
                  const BlockOperand& operand) {
  const ArrayInfo& array =
      program.arrays[static_cast<std::size_t>(operand.array_id)];
  for (int d = 0; d < operand.rank; ++d) {
    const std::size_t ud = static_cast<std::size_t>(d);
    const int ref_id = operand.index_ids[ud];
    if (ref_id == kWildcardIndex) return true;
    const IndexType ref = program.indices[static_cast<std::size_t>(ref_id)].type;
    const IndexType decl =
        program.indices[static_cast<std::size_t>(array.index_ids[ud])].type;
    if (ref == IndexType::kSub && decl != IndexType::kSub) return true;
  }
  return false;
}

std::vector<Access> instruction_accesses(const CompiledProgram& program,
                                         const Instruction& instr) {
  std::vector<Access> access;
  switch (instr.op) {
    case Opcode::kBlockScalarOp: {
      // blocks[0] op= scalar.
      if (instr.a0 != kModeAssign) access.push_back(read_of(instr.blocks[0]));
      access.push_back(
          write_of(program, instr.blocks[0], instr.a0 == kModeAssign));
      break;
    }
    case Opcode::kBlockCopy:
    case Opcode::kBlockScaledCopy: {
      access.push_back(read_of(instr.blocks[1]));
      if (instr.a0 != kModeAssign) access.push_back(read_of(instr.blocks[0]));
      access.push_back(
          write_of(program, instr.blocks[0], instr.a0 == kModeAssign));
      break;
    }
    case Opcode::kBlockBinary: {
      access.push_back(read_of(instr.blocks[1]));
      access.push_back(read_of(instr.blocks[2]));
      if (instr.a0 != kModeAssign) access.push_back(read_of(instr.blocks[0]));
      access.push_back(
          write_of(program, instr.blocks[0], instr.a0 == kModeAssign));
      break;
    }
    case Opcode::kBlockDot:
      access.push_back(read_of(instr.blocks[0]));
      access.push_back(read_of(instr.blocks[1]));
      break;
    case Opcode::kGet:
    case Opcode::kRequest:
    case Opcode::kPrefetch:
      access.push_back(read_of(instr.blocks[0]));
      break;
    case Opcode::kPut:
    case Opcode::kPrepare:
      // Write-only destination, even when accumulating: the local
      // shadow accumulates without reading the remote block.
      access.push_back(read_of(instr.blocks[1]));
      access.push_back(
          write_of(program, instr.blocks[0], instr.a0 == 0));
      break;
    case Opcode::kAllocate:
    case Opcode::kDeallocate:
      access.push_back(write_of(program, instr.blocks[0], false));
      break;
    case Opcode::kExecute:
      for (const ExecOperand& earg : instr.eargs) {
        if (earg.kind == ExecOperand::Kind::kBlock) {
          access.push_back(read_of(earg.block));
        }
      }
      for (const ExecOperand& earg : instr.eargs) {
        if (earg.kind == ExecOperand::Kind::kBlock) {
          access.push_back(write_of(program, earg.block, false));
        }
      }
      break;
    case Opcode::kCreate:
    case Opcode::kDeleteArr:
    case Opcode::kCheckpoint:
    case Opcode::kRestoreArr:
      access.push_back(whole_array_write(instr.a0));
      break;
    default:
      break;
  }
  return access;
}

// ---------------------------------------------------------------------
// Nominal cost model.

long nominal_eval(const IntExpr& expr) {
  switch (expr.kind) {
    case IntExpr::Kind::kLiteral: return expr.literal;
    case IntExpr::Kind::kConstant: return kNominalConstant;
    case IntExpr::Kind::kAdd:
      return nominal_eval(*expr.lhs) + nominal_eval(*expr.rhs);
    case IntExpr::Kind::kSub:
      return nominal_eval(*expr.lhs) - nominal_eval(*expr.rhs);
    case IntExpr::Kind::kMul:
      return nominal_eval(*expr.lhs) * nominal_eval(*expr.rhs);
    case IntExpr::Kind::kDiv: {
      const long rhs = nominal_eval(*expr.rhs);
      return rhs == 0 ? nominal_eval(*expr.lhs) : nominal_eval(*expr.lhs) / rhs;
    }
  }
  return 1;
}

long nominal_extent(const CompiledProgram& program, int index_id) {
  const IndexInfo& index = program.indices[static_cast<std::size_t>(index_id)];
  if (index.type == IndexType::kSub && index.super_id >= 0) {
    return nominal_extent(program, index.super_id);
  }
  return std::max<long>(1, nominal_eval(index.high) - nominal_eval(index.low) +
                               1);
}

}  // namespace sia::sial::opt
