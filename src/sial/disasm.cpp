#include "sial/disasm.hpp"

#include <sstream>

namespace sia::sial {

namespace {

std::string operand_string(const CompiledProgram& program,
                           const BlockOperand& operand) {
  std::string out =
      program.arrays[static_cast<std::size_t>(operand.array_id)].name + "(";
  for (int d = 0; d < operand.rank; ++d) {
    if (d > 0) out += ",";
    const int id = operand.index_ids[static_cast<std::size_t>(d)];
    out += id == kWildcardIndex
               ? "*"
               : program.indices[static_cast<std::size_t>(id)].name;
  }
  return out + ")";
}

}  // namespace

std::string disassemble_instruction(const CompiledProgram& program, int pc) {
  const Instruction& instr = program.code[static_cast<std::size_t>(pc)];
  std::ostringstream out;
  out << pc << ": " << opcode_name(instr.op);
  switch (instr.op) {
    case Opcode::kPushNumber:
      out << " " << instr.f0;
      break;
    case Opcode::kPushScalar:
    case Opcode::kStoreScalar:
      out << " " << program.scalars[static_cast<std::size_t>(instr.a0)].name;
      if (instr.op == Opcode::kStoreScalar) out << " mode=" << instr.a1;
      break;
    case Opcode::kPushIndex:
      out << " " << program.indices[static_cast<std::size_t>(instr.a0)].name;
      break;
    case Opcode::kPushConst:
      out << " "
          << program.constants[static_cast<std::size_t>(instr.a0)];
      break;
    case Opcode::kPrintString:
      out << " \"" << program.strings[static_cast<std::size_t>(instr.a0)]
          << "\"";
      break;
    case Opcode::kDoStart:
      out << " " << program.indices[static_cast<std::size_t>(instr.a0)].name;
      if (instr.a2 >= 0) {
        out << " in "
            << program.indices[static_cast<std::size_t>(instr.a2)].name;
      }
      out << " end=" << instr.a1;
      break;
    case Opcode::kPardoStart: {
      const PardoInfo& pardo =
          program.pardos[static_cast<std::size_t>(instr.a0)];
      out << " [";
      for (std::size_t d = 0; d < pardo.index_ids.size(); ++d) {
        if (d > 0) out << ",";
        out << program.indices[static_cast<std::size_t>(pardo.index_ids[d])]
                   .name;
      }
      out << "] end=" << instr.a1;
      break;
    }
    case Opcode::kJump:
    case Opcode::kJumpIfFalse:
    case Opcode::kDoEnd:
    case Opcode::kPardoEnd:
    case Opcode::kExitLoop:
      out << " -> " << instr.a0;
      break;
    case Opcode::kCall:
      out << " " << program.procs[static_cast<std::size_t>(instr.a0)].name;
      break;
    case Opcode::kExecute:
      out << " "
          << program
                 .superinstructions[static_cast<std::size_t>(instr.a0)];
      break;
    case Opcode::kCreate:
    case Opcode::kDeleteArr:
    case Opcode::kCheckpoint:
    case Opcode::kRestoreArr:
      out << " " << program.arrays[static_cast<std::size_t>(instr.a0)].name;
      break;
    case Opcode::kCompare:
      out << " " << cmp_op_name(static_cast<CmpOp>(instr.a0));
      break;
    default:
      if (instr.a0 >= 0 &&
          (instr.op == Opcode::kBlockScalarOp ||
           instr.op == Opcode::kBlockCopy ||
           instr.op == Opcode::kBlockBinary ||
           instr.op == Opcode::kBlockScaledCopy || instr.op == Opcode::kPut ||
           instr.op == Opcode::kPrepare)) {
        out << " mode=" << instr.a0;
      }
      break;
  }
  for (const BlockOperand& operand : instr.blocks) {
    out << " " << operand_string(program, operand);
  }
  for (const ExecOperand& arg : instr.eargs) {
    switch (arg.kind) {
      case ExecOperand::Kind::kBlock:
        out << " " << operand_string(program, arg.block);
        break;
      case ExecOperand::Kind::kScalar:
        out << " "
            << program.scalars[static_cast<std::size_t>(arg.slot)].name;
        break;
      case ExecOperand::Kind::kString:
        out << " \"" << program.strings[static_cast<std::size_t>(arg.slot)]
            << "\"";
        break;
      case ExecOperand::Kind::kNumber:
        out << " " << arg.number;
        break;
    }
  }
  return out.str();
}

namespace {

// Trailing annotation for one instruction: the optimizer notes for its
// pc; empty when there is nothing to say.
std::string annotate_instruction(const CompiledProgram& program, int pc) {
  std::ostringstream out;
  for (const auto& [note_pc, text] : program.opt_notes) {
    if (note_pc == pc) {
      out << "  ; " << text;
    }
  }
  return out.str();
}

}  // namespace

std::string disassemble(const CompiledProgram& program) {
  std::ostringstream out;
  out << "program " << program.name << "\n";
  out << "  indices:";
  for (const IndexInfo& index : program.indices) {
    out << " " << index.name << ":" << index_type_name(index.type);
  }
  out << "\n  arrays:";
  for (const ArrayInfo& array : program.arrays) {
    out << " " << array.name << ":" << (array.sparse ? "sparse " : "")
        << array_kind_name(array.kind) << "/" << array.rank();
  }
  out << "\n  scalars:";
  for (const ScalarInfo& scalar : program.scalars) out << " " << scalar.name;
  out << "\n  constants:";
  for (const std::string& name : program.constants) out << " " << name;
  out << "\n  super instructions:";
  for (const std::string& name : program.superinstructions) {
    out << " " << name;
  }
  out << "\n";
  for (int pc = 0; pc < static_cast<int>(program.code.size()); ++pc) {
    out << "  " << disassemble_instruction(program, pc) << "\n";
  }
  return out.str();
}

std::string disassemble_annotated(const CompiledProgram& program) {
  std::ostringstream out;
  out << "program " << program.name << " ; opt level "
      << program.opt_level_applied << "\n";
  for (int pc = 0; pc < static_cast<int>(program.code.size()); ++pc) {
    out << "  " << disassemble_instruction(program, pc)
        << annotate_instruction(program, pc) << "\n";
  }
  return out.str();
}

}  // namespace sia::sial
