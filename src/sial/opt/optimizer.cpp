#include "sial/opt/optimizer.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sial/opt/analysis.hpp"
#include "sial/opt/rewrite.hpp"

namespace sia::sial::opt {

namespace {

constexpr int kModeAssign = static_cast<int>(AssignStmt::Op::kAssign);
constexpr int kBinMul = static_cast<int>(BinOp::kMul);

ArrayKind kind_of(const CompiledProgram& program, int array_id) {
  return program.arrays[static_cast<std::size_t>(array_id)].kind;
}

const std::string& array_name(const CompiledProgram& program, int array_id) {
  return program.arrays[static_cast<std::size_t>(array_id)].name;
}

bool same_operand(const BlockOperand& a, const BlockOperand& b) {
  if (a.array_id != b.array_id || a.rank != b.rank) return false;
  for (int d = 0; d < a.rank; ++d) {
    if (a.index_ids[static_cast<std::size_t>(d)] !=
        b.index_ids[static_cast<std::size_t>(d)]) {
      return false;
    }
  }
  return true;
}

std::string operand_text(const CompiledProgram& program,
                         const BlockOperand& operand) {
  std::string out = array_name(program, operand.array_id) + "(";
  for (int d = 0; d < operand.rank; ++d) {
    if (d > 0) out += ",";
    const int id = operand.index_ids[static_cast<std::size_t>(d)];
    out += id == kWildcardIndex
               ? "*"
               : program.indices[static_cast<std::size_t>(id)].name;
  }
  return out + ")";
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

// -------------------------------------------------------------------
// Pass 1: loop-invariant get/request hoisting (kPrefetch).

// Ops whose presence anywhere in a do body disqualifies hoisting out of
// it: synchronization, opaque calls, whole-array mutation, and control
// flow that could skip the get.
bool blocks_hoisting(Opcode op) {
  switch (op) {
    case Opcode::kSipBarrier:
    case Opcode::kServerBarrier:
    case Opcode::kExecute:
    case Opcode::kCall:
    case Opcode::kCreate:
    case Opcode::kDeleteArr:
    case Opcode::kCheckpoint:
    case Opcode::kRestoreArr:
    case Opcode::kCollective:
    case Opcode::kJump:
    case Opcode::kJumpIfFalse:
    case Opcode::kExitLoop:
      return true;
    default:
      return false;
  }
}

void hoist_pass(CompiledProgram& program, std::vector<Diag>& diags) {
  const std::vector<Region> regions = find_regions(program);
  std::vector<Insertion> insertions;
  std::vector<std::string> insertion_notes;

  for (std::size_t r = 0; r < regions.size(); ++r) {
    const Region& region = regions[r];
    // Only plain do loops: every worker runs every iteration, so the
    // loop's gets are the worker's own. A pardo's iterations are
    // scattered across workers and chunked dynamically.
    if (region.is_pardo) continue;

    bool body_ok = true;
    std::unordered_set<int> put_arrays;
    for (int pc = region.start_pc + 1; pc < region.end_pc && body_ok; ++pc) {
      const Instruction& instr = program.code[static_cast<std::size_t>(pc)];
      if (blocks_hoisting(instr.op)) body_ok = false;
      if (instr.op == Opcode::kPut || instr.op == Opcode::kPrepare) {
        put_arrays.insert(instr.blocks[0].array_id);
      }
    }
    if (!body_ok) continue;

    // Index ids bound at the insertion point (just before kDoStart):
    // everything enclosing regions bind.
    std::unordered_set<int> bound;
    for (int a = region.parent; a >= 0;
         a = regions[static_cast<std::size_t>(a)].parent) {
      for (const int id : regions[static_cast<std::size_t>(a)].index_ids) {
        bound.insert(id);
      }
    }

    std::vector<BlockOperand> hoisted;  // dedup within this loop
    for (int pc = region.start_pc + 1; pc < region.end_pc; ++pc) {
      Instruction& instr = program.code[static_cast<std::size_t>(pc)];
      if (instr.op != Opcode::kGet && instr.op != Opcode::kRequest) continue;
      if (innermost_region(regions, pc) != static_cast<int>(r)) continue;
      const BlockOperand operand = instr.blocks[0];
      bool invariant = true;
      for (int d = 0; d < operand.rank && invariant; ++d) {
        const int id = operand.index_ids[static_cast<std::size_t>(d)];
        if (id == kWildcardIndex || bound.count(id) == 0) invariant = false;
      }
      if (!invariant) continue;
      if (put_arrays.count(operand.array_id) > 0) continue;

      const bool is_get = instr.op == Opcode::kGet;
      const bool duplicate =
          std::any_of(hoisted.begin(), hoisted.end(),
                      [&](const BlockOperand& h) {
                        return same_operand(h, operand);
                      });
      if (!duplicate) {
        hoisted.push_back(operand);
        Instruction prefetch;
        prefetch.op = Opcode::kPrefetch;
        prefetch.line = instr.line;
        prefetch.range = instr.range;
        prefetch.a0 = region.index_id;
        prefetch.a1 = region.super_id;
        prefetch.blocks.push_back(operand);
        insertions.push_back({region.start_pc, std::move(prefetch)});
        insertion_notes.push_back("hoisted: loop-invariant " +
                                  operand_text(program, operand));
      }

      Diag diag;
      diag.code = kDiagLoopInvariantGet;
      diag.message = std::string("this ") + (is_get ? "get" : "request") +
                     " is loop-invariant (hoisted)";
      diag.range = instr.range;
      diag.notes.push_back(
          {program.code[static_cast<std::size_t>(region.start_pc)].range,
           "hoisted to a prefetch before this loop"});
      diags.push_back(std::move(diag));

      nop_out(program, pc,
              std::string("eliminated: ") + (is_get ? "get" : "request") +
                  " hoisted to prefetch before enclosing loop");
    }
  }

  if (insertions.empty()) return;
  const RewriteResult rewrite =
      insert_instructions(program, std::move(insertions));
  for (std::size_t i = 0; i < rewrite.inserted_pc.size(); ++i) {
    program.opt_notes.emplace_back(rewrite.inserted_pc[i],
                                   insertion_notes[i]);
  }
}

// -------------------------------------------------------------------
// Pass 2: redundant barrier elimination.
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
  for (const Access& access :
       instruction_accesses(program, instr)) {
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

// -------------------------------------------------------------------
// Pass 3: dead-store elimination.

// Control transfers, synchronization, and opaque ops end the
// straight-line window a dead-store scan may cross.
bool stops_dse_scan(Opcode op) {
  switch (op) {
    case Opcode::kJump:
    case Opcode::kJumpIfFalse:
    case Opcode::kDoStart:
    case Opcode::kDoEnd:
    case Opcode::kPardoStart:
    case Opcode::kPardoEnd:
    case Opcode::kExitLoop:
    case Opcode::kCall:
    case Opcode::kReturn:
    case Opcode::kHalt:
    case Opcode::kExecute:
    case Opcode::kSipBarrier:
    case Opcode::kServerBarrier:
    case Opcode::kCollective:
    case Opcode::kCheckpoint:
    case Opcode::kRestoreArr:
      return true;
    default:
      return false;
  }
}

void eliminate_dead_stores(CompiledProgram& program,
                           std::vector<Diag>& diags) {
  const int n = static_cast<int>(program.code.size());
  for (int pc = 0; pc < n; ++pc) {
    const Instruction& instr = program.code[static_cast<std::size_t>(pc)];
    // Only stack-neutral stores: kBlockScalarOp/kBlockScaledCopy pop
    // the scalar stack, so deleting them would unbalance it.
    if (instr.op != Opcode::kBlockCopy && instr.op != Opcode::kBlockBinary) {
      continue;
    }
    if (instr.a0 != kModeAssign) continue;
    const BlockOperand dst = instr.blocks[0];
    if (kind_of(program, dst.array_id) != ArrayKind::kTemp) continue;
    if (maybe_sliced(program, dst)) continue;
    // All sources local: deleting the store must not change message
    // traffic, and a remote fetch could legitimately fault.
    bool sources_local = true;
    for (std::size_t b = 1; b < instr.blocks.size(); ++b) {
      const ArrayKind kind = kind_of(program, instr.blocks[b].array_id);
      if (kind != ArrayKind::kStatic && kind != ArrayKind::kTemp &&
          kind != ArrayKind::kLocal) {
        sources_local = false;
      }
    }
    if (!sources_local) continue;

    int killer = -1;
    for (int look = pc + 1; look < n && killer < 0; ++look) {
      const Instruction& probe =
          program.code[static_cast<std::size_t>(look)];
      if (stops_dse_scan(probe.op)) break;
      bool aborted = false;
      for (const Access& access :
           instruction_accesses(program, probe)) {
        if (access.operand.array_id != dst.array_id) continue;
        if (!access.write) {
          aborted = true;  // the stored value is (or may be) used
          break;
        }
        if (access.full_overwrite && same_operand(access.operand, dst)) {
          killer = look;
        } else {
          aborted = true;  // partial or differently-addressed write
        }
        break;
      }
      if (aborted) break;
    }
    if (killer < 0) continue;

    Diag diag;
    diag.code = kDiagDeadStore;
    diag.message = "dead store to temp '" +
                   array_name(program, dst.array_id) + "' (eliminated)";
    diag.range = instr.range;
    diag.notes.push_back(
        {program.code[static_cast<std::size_t>(killer)].range,
         "fully overwritten here before any read"});
    diags.push_back(std::move(diag));
    nop_out(program, pc,
            "eliminated: dead store to " + operand_text(program, dst));
  }
}

// -------------------------------------------------------------------
// Pass 4 (-O2): contraction-chain reassociation.
//
//   t1 = A * B        (pc)        t2 = B * C        (pc)
//   D op= t1 * C      (pc + 1) -> D op= A * t2      (pc + 1)
//
// applied when a nominal flop model proves the right-association
// strictly cheaper and the index structure makes both associations
// compute the same Einstein sum.

using IdSet = std::set<int>;

IdSet ids_of(const BlockOperand& operand) {
  IdSet ids;
  for (int d = 0; d < operand.rank; ++d) {
    ids.insert(operand.index_ids[static_cast<std::size_t>(d)]);
  }
  return ids;
}

bool distinct_ids(const BlockOperand& operand) {
  if (operand.rank == 0) return false;
  IdSet ids = ids_of(operand);
  if (ids.count(kWildcardIndex) > 0) return false;
  return static_cast<int>(ids.size()) == operand.rank;
}

IdSet set_union(const IdSet& a, const IdSet& b) {
  IdSet out = a;
  out.insert(b.begin(), b.end());
  return out;
}

IdSet set_intersect(const IdSet& a, const IdSet& b) {
  IdSet out;
  for (const int id : a) {
    if (b.count(id) > 0) out.insert(id);
  }
  return out;
}

bool subset(const IdSet& a, const IdSet& b) {
  return std::all_of(a.begin(), a.end(),
                     [&](int id) { return b.count(id) > 0; });
}

// 2 * product of nominal extents over the union of both operands' ids:
// the multiply-add count of contracting x with y.
long contraction_flops(const CompiledProgram& program,
                       const BlockOperand& x, const BlockOperand& y) {
  long flops = 2;
  for (const int id : set_union(ids_of(x), ids_of(y))) {
    flops *= nominal_extent(program, id);
  }
  return flops;
}

void reassociate(CompiledProgram& program, std::vector<Diag>& diags) {
  // Whole-program reference counts per array: the intermediate must be
  // defined and consumed exactly here and nowhere else.
  std::unordered_map<int, int> refs;
  for (const Instruction& instr : program.code) {
    for (const BlockOperand& operand : instr.blocks) {
      ++refs[operand.array_id];
    }
    for (const ExecOperand& earg : instr.eargs) {
      if (earg.kind == ExecOperand::Kind::kBlock) {
        ++refs[earg.block.array_id];
      }
    }
  }

  int fresh = 0;
  const int n = static_cast<int>(program.code.size());
  for (int pc = 0; pc + 1 < n; ++pc) {
    Instruction& def = program.code[static_cast<std::size_t>(pc)];
    Instruction& use = program.code[static_cast<std::size_t>(pc) + 1];
    if (def.op != Opcode::kBlockBinary || def.a0 != kModeAssign ||
        def.a1 != kBinMul) {
      continue;
    }
    if (use.op != Opcode::kBlockBinary || use.a1 != kBinMul) continue;

    const BlockOperand t1 = def.blocks[0];
    if (kind_of(program, t1.array_id) != ArrayKind::kTemp) continue;
    if (refs[t1.array_id] != 2) continue;

    // Which source of `use` is the intermediate?
    int t1_slot = -1;
    if (use.blocks[1].array_id == t1.array_id) t1_slot = 1;
    else if (use.blocks[2].array_id == t1.array_id) t1_slot = 2;
    if (t1_slot < 0) continue;
    if (!same_operand(use.blocks[static_cast<std::size_t>(t1_slot)], t1)) {
      continue;  // permuted reference; leave it alone
    }

    const BlockOperand a = def.blocks[1];
    const BlockOperand b = def.blocks[2];
    const BlockOperand c = use.blocks[static_cast<std::size_t>(3 - t1_slot)];
    const BlockOperand d = use.blocks[0];

    if (!distinct_ids(a) || !distinct_ids(b) || !distinct_ids(c) ||
        !distinct_ids(d) || !distinct_ids(t1)) {
      continue;
    }
    if (maybe_sliced(program, a) || maybe_sliced(program, b) ||
        maybe_sliced(program, c) || maybe_sliced(program, d) ||
        maybe_sliced(program, t1)) {
      continue;
    }
    if (d.array_id == a.array_id || d.array_id == b.array_id ||
        d.array_id == c.array_id || d.array_id == t1.array_id) {
      continue;
    }

    const IdSet sa = ids_of(a), sb = ids_of(b), sc = ids_of(c),
                sd = ids_of(d), st1 = ids_of(t1);
    // Both stages must be proper contractions of the single Einstein
    // sum D = sum over (ids not in D) of A*B*C: the intermediate keeps
    // exactly the ids the rest of the chain still needs.
    if (!subset(st1, set_union(sa, sb))) continue;
    if (!subset(sd, set_union(st1, sc))) continue;
    if (st1 != set_intersect(set_union(sa, sb), set_union(sc, sd))) continue;

    // The mirrored intermediate of the right association, ordered by
    // appearance in B then C.
    const IdSet keep = set_intersect(set_union(sb, sc), set_union(sa, sd));
    std::vector<int> t2_ids;
    for (const BlockOperand* src : {&b, &c}) {
      for (int dd = 0; dd < src->rank; ++dd) {
        const int id = src->index_ids[static_cast<std::size_t>(dd)];
        if (keep.count(id) > 0 &&
            std::find(t2_ids.begin(), t2_ids.end(), id) == t2_ids.end()) {
          t2_ids.push_back(id);
        }
      }
    }
    if (t2_ids.empty() ||
        t2_ids.size() > static_cast<std::size_t>(blas::kMaxRank)) {
      continue;
    }

    BlockOperand t2;
    t2.rank = static_cast<int>(t2_ids.size());
    for (std::size_t dd = 0; dd < t2_ids.size(); ++dd) {
      t2.index_ids[dd] = t2_ids[dd];
    }
    const IdSet st2(t2_ids.begin(), t2_ids.end());
    if (!subset(sd, set_union(sa, st2))) continue;

    const long cost_left = contraction_flops(program, a, b) +
                           contraction_flops(program, t1, c);
    BlockOperand t2_for_cost = t2;  // array id irrelevant to the model
    t2_for_cost.array_id = t1.array_id;
    const long cost_right = contraction_flops(program, b, c) +
                            contraction_flops(program, a, t2_for_cost);
    if (cost_right >= cost_left) continue;

    // Materialize the new intermediate and rewrite both instructions.
    ArrayInfo t2_array;
    t2_array.name = "@reassoc" + std::to_string(fresh++);
    t2_array.kind = ArrayKind::kTemp;
    t2_array.index_ids = t2_ids;
    t2.array_id = static_cast<int>(program.arrays.size());
    program.arrays.push_back(std::move(t2_array));
    refs[t2.array_id] = 2;

    def.blocks = {t2, b, c};
    use.blocks = {d, a, t2};

    Diag diag;
    diag.code = kDiagReassociated;
    diag.message = "contraction chain reassociated: " +
                   operand_text(program, b) + " * " +
                   operand_text(program, c) + " is computed first (" +
                   std::to_string(cost_left) + " -> " +
                   std::to_string(cost_right) + " nominal flops)";
    diag.range = use.range;
    diag.notes.push_back(
        {def.range, "the discarded intermediate was defined here"});
    diags.push_back(std::move(diag));
    program.opt_notes.emplace_back(
        pc, "reassociated: now computes " + operand_text(program, t2));
    program.opt_notes.emplace_back(
        pc + 1, "reassociated: consumes " + operand_text(program, t2));

    ++pc;  // skip past the rewritten pair
  }
}

}  // namespace

OptResult optimize(const CompiledProgram& input, int level) {
  OptResult result;
  result.program = input;
  CompiledProgram& program = result.program;
  program.opt_level_applied = std::max(0, level);
  if (level <= 0) return result;

  hoist_pass(program, result.diagnostics);
  eliminate_barriers(program, result.diagnostics);
  eliminate_dead_stores(program, result.diagnostics);
  if (level >= 2) reassociate(program, result.diagnostics);
  return result;
}

}  // namespace sia::sial::opt
