// The SIAL mid-end: one pass over compiled bytecode, run between the
// compiler and program finalization (sip::launch).
//
// Levels:
//   -O0  untouched copy of the compiler's output (runtime behaves as if
//        no mid-end existed).
//   -O1  redundant-barrier elimination (the default). It only turns
//        barriers into kNop, so -O1 results are identical to -O0.
//
// Latency hiding is the runtime's job: the SIP's block look-ahead
// (prefetch_depth) fetches ahead of the loop at run time. Each removed
// barrier records an opt_note (pc -> text) for annotated disassembly
// and a W001 diagnostic explaining why it was redundant.
#pragma once

#include <vector>

#include "sial/bytecode.hpp"
#include "sial/diag.hpp"

namespace sia::sial::opt {

struct OptResult {
  CompiledProgram program;
  std::vector<Diag> diagnostics;
};

OptResult optimize(const CompiledProgram& input, int level);

}  // namespace sia::sial::opt
