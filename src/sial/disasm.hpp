// Bytecode disassembler for debugging and the `sial_tool` example.
#pragma once

#include <string>

#include "sial/bytecode.hpp"

namespace sia::sial {

// One-line rendering of a single instruction.
std::string disassemble_instruction(const CompiledProgram& program, int pc);

// Full listing: tables summary followed by the instruction stream.
std::string disassemble(const CompiledProgram& program);

// Like disassemble(), but each instruction line is annotated with the
// optimizer's note for it when present (the kNop left by an eliminated
// barrier).
std::string disassemble_annotated(const CompiledProgram& program);

}  // namespace sia::sial
