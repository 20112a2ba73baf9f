#include "sial/opt/optimizer.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "sial/opt/analysis.hpp"

namespace sia::sial::opt {

namespace {

ArrayKind kind_of(const CompiledProgram& program, int array_id) {
  return program.arrays[static_cast<std::size_t>(array_id)].kind;
}

// Turns the instruction at pc into a kNop carrying only its source
// range, and records why for annotated disassembly.
void nop_out(CompiledProgram& program, int pc, const std::string& note) {
  Instruction& instr = program.code[static_cast<std::size_t>(pc)];
  instr.op = Opcode::kNop;
  instr.a0 = instr.a1 = instr.a2 = -1;
  instr.f0 = 0.0;
  instr.blocks.clear();
  instr.eargs.clear();
  program.opt_notes.emplace_back(pc, note);
}

// Redundant barrier elimination.
//
// Two access classes — distributed arrays (synchronized by sip_barrier)
// and served arrays (synchronized by server_barrier). A barrier is
// redundant when, for BOTH classes, no write on one side pairs with an
// access on the other side within that class's current synchronization
// epoch. Facts are per-class booleans propagated over the CFG to a
// fixed point; barriers are removed one at a time (front to back) and
// the analysis rerun, so removing one barrier can never justify
// removing the next.

struct SyncFacts {
  // [0] = distributed class, [1] = served class.
  std::array<bool, 2> write{{false, false}};
  std::array<bool, 2> access{{false, false}};

  bool join(const SyncFacts& other) {
    bool changed = false;
    for (int c = 0; c < 2; ++c) {
      const std::size_t uc = static_cast<std::size_t>(c);
      if (other.write[uc] && !write[uc]) write[uc] = changed = true;
      if (other.access[uc] && !access[uc]) access[uc] = changed = true;
    }
    return changed;
  }
};

// Class effects of one instruction (not counting barrier resets).
SyncFacts instruction_effects(const CompiledProgram& program,
                              const Instruction& instr) {
  SyncFacts facts;
  switch (instr.op) {
    // kExecute's array effects are its earg access sets (superinstructions
    // only touch the blocks they are handed), and kCollective reduces
    // scalars, so neither clobbers. Calls are opaque, and checkpoint/
    // restore add file-system state beyond their whole-array access.
    case Opcode::kCall:
    case Opcode::kCheckpoint:
    case Opcode::kRestoreArr:
      for (int c = 0; c < 2; ++c) {
        facts.write[static_cast<std::size_t>(c)] = true;
        facts.access[static_cast<std::size_t>(c)] = true;
      }
      return facts;
    default:
      break;
  }
  for (const Access& access : instruction_accesses(instr)) {
    const ArrayKind kind = kind_of(program, access.operand.array_id);
    int c = -1;
    if (kind == ArrayKind::kDistributed) c = 0;
    if (kind == ArrayKind::kServed) c = 1;
    if (c < 0) continue;
    const std::size_t uc = static_cast<std::size_t>(c);
    facts.access[uc] = true;
    if (access.write) facts.write[uc] = true;
  }
  return facts;
}

int barrier_class(Opcode op) {
  if (op == Opcode::kSipBarrier) return 0;
  if (op == Opcode::kServerBarrier) return 1;
  return -1;
}

void eliminate_barriers(CompiledProgram& program, std::vector<Diag>& diags) {
  const int n = static_cast<int>(program.code.size());
  std::vector<bool> removed(static_cast<std::size_t>(n), false);

  const auto transfer_kind = [&](int pc) {
    return removed[static_cast<std::size_t>(pc)]
               ? -1
               : barrier_class(program.code[static_cast<std::size_t>(pc)].op);
  };

  for (;;) {
    // Forward: facts accumulated since each class's last live barrier.
    std::vector<SyncFacts> fwd_in(static_cast<std::size_t>(n));
    std::vector<bool> reachable(static_cast<std::size_t>(n), false);
    if (n > 0) reachable[0] = true;
    for (bool changed = true; changed;) {
      changed = false;
      for (int pc = 0; pc < n; ++pc) {
        if (!reachable[static_cast<std::size_t>(pc)]) continue;
        SyncFacts out = fwd_in[static_cast<std::size_t>(pc)];
        const int bk = transfer_kind(pc);
        if (bk >= 0) {
          out.write[static_cast<std::size_t>(bk)] = false;
          out.access[static_cast<std::size_t>(bk)] = false;
        } else {
          out.join(instruction_effects(
              program, program.code[static_cast<std::size_t>(pc)]));
        }
        for (const int succ : successors(program, pc)) {
          if (succ < 0 || succ >= n) continue;
          if (!reachable[static_cast<std::size_t>(succ)]) {
            reachable[static_cast<std::size_t>(succ)] = true;
            changed = true;
          }
          if (fwd_in[static_cast<std::size_t>(succ)].join(out)) {
            changed = true;
          }
        }
      }
    }

    // Backward: facts until each class's next live barrier.
    std::vector<SyncFacts> bwd_out(static_cast<std::size_t>(n));
    for (bool changed = true; changed;) {
      changed = false;
      for (int pc = n - 1; pc >= 0; --pc) {
        SyncFacts out;
        for (const int succ : successors(program, pc)) {
          if (succ < 0 || succ >= n) continue;
          SyncFacts in = bwd_out[static_cast<std::size_t>(succ)];
          const int bk = transfer_kind(succ);
          if (bk >= 0) {
            in.write[static_cast<std::size_t>(bk)] = false;
            in.access[static_cast<std::size_t>(bk)] = false;
          } else {
            in.join(instruction_effects(
                program, program.code[static_cast<std::size_t>(succ)]));
          }
          out.join(in);
        }
        if (bwd_out[static_cast<std::size_t>(pc)].join(out)) changed = true;
      }
    }

    int victim = -1;
    for (int pc = 0; pc < n && victim < 0; ++pc) {
      if (transfer_kind(pc) < 0) continue;
      if (!reachable[static_cast<std::size_t>(pc)]) continue;
      const SyncFacts& before = fwd_in[static_cast<std::size_t>(pc)];
      const SyncFacts& after = bwd_out[static_cast<std::size_t>(pc)];
      bool redundant = true;
      for (int c = 0; c < 2 && redundant; ++c) {
        const std::size_t uc = static_cast<std::size_t>(c);
        if ((before.write[uc] && after.access[uc]) ||
            (before.access[uc] && after.write[uc])) {
          redundant = false;
        }
      }
      if (redundant) victim = pc;
    }
    if (victim < 0) break;

    removed[static_cast<std::size_t>(victim)] = true;
    const Instruction& barrier =
        program.code[static_cast<std::size_t>(victim)];
    Diag diag;
    diag.code = kDiagRedundantBarrier;
    diag.message = "this barrier is redundant";
    diag.range = barrier.range;
    // Point at the nearest live barrier of the same kind (behind first,
    // then ahead): the common case is a defensive back-to-back pair.
    const int kind = barrier_class(barrier.op);
    int buddy = -1;
    for (int pc = victim - 1; pc >= 0 && buddy < 0; --pc) {
      if (transfer_kind(pc) == kind) buddy = pc;
    }
    for (int pc = victim + 1; pc < n && buddy < 0; ++pc) {
      if (transfer_kind(pc) == kind) buddy = pc;
    }
    if (buddy >= 0) {
      diag.notes.push_back(
          {program.code[static_cast<std::size_t>(buddy)].range,
           "no conflicting access separates it from this barrier"});
    }
    diags.push_back(std::move(diag));
    nop_out(program, victim,
            std::string("eliminated: redundant ") +
                opcode_name(barrier.op));
  }
}

}  // namespace

OptResult optimize(const CompiledProgram& input, int level) {
  OptResult result;
  result.program = input;
  CompiledProgram& program = result.program;
  program.opt_level_applied = std::clamp(level, 0, 1);
  if (level <= 0) return result;

  eliminate_barriers(program, result.diagnostics);
  return result;
}

}  // namespace sia::sial::opt
