#include "sial/opt/analysis.hpp"

namespace sia::sial::opt {

namespace {

constexpr int kModeAssign = static_cast<int>(AssignStmt::Op::kAssign);

Access read_of(const BlockOperand& operand) { return {operand, false}; }

Access write_of(const BlockOperand& operand) { return {operand, true}; }

Access whole_array_write(int array_id) {
  BlockOperand operand;
  operand.array_id = array_id;
  operand.rank = 0;
  return write_of(operand);
}

}  // namespace

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
// Access sets.

std::vector<Access> instruction_accesses(const Instruction& instr) {
  std::vector<Access> access;
  switch (instr.op) {
    case Opcode::kBlockScalarOp: {
      // blocks[0] op= scalar.
      if (instr.a0 != kModeAssign) access.push_back(read_of(instr.blocks[0]));
      access.push_back(write_of(instr.blocks[0]));
      break;
    }
    case Opcode::kBlockCopy:
    case Opcode::kBlockScaledCopy: {
      access.push_back(read_of(instr.blocks[1]));
      if (instr.a0 != kModeAssign) access.push_back(read_of(instr.blocks[0]));
      access.push_back(write_of(instr.blocks[0]));
      break;
    }
    case Opcode::kBlockBinary: {
      access.push_back(read_of(instr.blocks[1]));
      access.push_back(read_of(instr.blocks[2]));
      if (instr.a0 != kModeAssign) access.push_back(read_of(instr.blocks[0]));
      access.push_back(write_of(instr.blocks[0]));
      break;
    }
    case Opcode::kBlockDot:
      access.push_back(read_of(instr.blocks[0]));
      access.push_back(read_of(instr.blocks[1]));
      break;
    case Opcode::kGet:
    case Opcode::kRequest:
      access.push_back(read_of(instr.blocks[0]));
      break;
    case Opcode::kPut:
    case Opcode::kPrepare:
      // Write-only destination, even when accumulating: the local
      // shadow accumulates without reading the remote block.
      access.push_back(read_of(instr.blocks[1]));
      access.push_back(write_of(instr.blocks[0]));
      break;
    case Opcode::kAllocate:
    case Opcode::kDeallocate:
      access.push_back(write_of(instr.blocks[0]));
      break;
    case Opcode::kExecute:
      for (const ExecOperand& earg : instr.eargs) {
        if (earg.kind == ExecOperand::Kind::kBlock) {
          access.push_back(read_of(earg.block));
        }
      }
      for (const ExecOperand& earg : instr.eargs) {
        if (earg.kind == ExecOperand::Kind::kBlock) {
          access.push_back(write_of(earg.block));
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

}  // namespace sia::sial::opt
