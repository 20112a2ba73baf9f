#include "sim/program_model.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sia::sim {

namespace {

using sial::Instruction;
using sial::Opcode;

// Full (untrimmed) element count of a block operand: the product of the
// referenced indices' segment sizes.
double operand_elements(const sial::ResolvedProgram& program,
                        const sial::BlockOperand& operand) {
  double elements = 1.0;
  for (int d = 0; d < operand.rank; ++d) {
    const int id = operand.index_ids[static_cast<std::size_t>(d)];
    if (id == sial::kWildcardIndex) continue;
    elements *= static_cast<double>(program.index(id).segment_size);
  }
  return elements;
}

// Product of segment sizes of the ids shared between two operands.
double common_elements(const sial::ResolvedProgram& program,
                       const sial::BlockOperand& a,
                       const sial::BlockOperand& b) {
  double elements = 1.0;
  for (int d = 0; d < a.rank; ++d) {
    const int id = a.index_ids[static_cast<std::size_t>(d)];
    for (int e = 0; e < b.rank; ++e) {
      if (b.index_ids[static_cast<std::size_t>(e)] == id) {
        elements *= static_cast<double>(program.index(id).segment_size);
        break;
      }
    }
  }
  return elements;
}

// Per-iteration cost accumulator.
struct Cost {
  double flops = 0.0;
  Load load{};
  double fetches = 0.0;
  double fetch_bytes = 0.0;
  double puts = 0.0;
  double put_bytes = 0.0;

  void add(const Cost& other, double weight) {
    flops += weight * other.flops;
    for (std::size_t c = 0; c < kCostClassCount; ++c) {
      load[c].count += weight * other.load[c].count;
      load[c].units += weight * other.load[c].units;
    }
    fetches += weight * other.fetches;
    fetch_bytes += weight * other.fetch_bytes;
    puts += weight * other.puts;
    put_bytes += weight * other.put_bytes;
  }
};

class Analyzer {
 public:
  explicit Analyzer(const sial::ResolvedProgram& program)
      : program_(program) {}

  WorkloadModel run() {
    WorkloadModel model;
    model.name = "program:" + program_.code().name;
    walk(0, find_halt(), /*multiplier=*/1.0, /*in_pardo=*/false, 0);

    for (Phase& phase : phases_) {
      PhaseModel out;
      out.name = phase.name;
      out.tasks = std::max<std::int64_t>(1, phase.tasks);
      out.flops_per_task = phase.body.flops;
      out.load_per_task = phase.body.load;
      out.fetches_per_task =
          static_cast<std::int64_t>(phase.body.fetches + 0.5);
      out.bytes_per_fetch =
          phase.body.fetches > 0.0
              ? phase.body.fetch_bytes / phase.body.fetches
              : 0.0;
      out.puts_per_task = static_cast<std::int64_t>(phase.body.puts + 0.5);
      out.bytes_per_put =
          phase.body.puts > 0.0 ? phase.body.put_bytes / phase.body.puts
                                : 0.0;
      out.sweeps = std::max(1, static_cast<int>(phase.sweeps + 0.5));
      model.phases.push_back(out);
    }
    model.sequential_load = serial_.load;
    if (serial_.flops > 0.0 || serial_.fetches > 0.0) {
      PhaseModel out;
      out.name = "sequential";
      out.tasks = 1;
      out.flops_per_task = serial_.flops;
      out.fetches_per_task =
          static_cast<std::int64_t>(serial_.fetches + 0.5);
      out.bytes_per_fetch =
          serial_.fetches > 0.0 ? serial_.fetch_bytes / serial_.fetches
                                : 0.0;
      model.phases.push_back(out);
    }

    // Memory footprints, mirroring the dry run's structure.
    double temp_block_max = 0.0;
    for (const sial::ResolvedArray& array : program_.arrays()) {
      const double bytes = static_cast<double>(array.total_elements) * 8.0;
      switch (array.kind) {
        case sial::ArrayKind::kDistributed:
          model.sia_resident_total += bytes;
          break;
        case sial::ArrayKind::kStatic:
          model.sia_fixed_per_core += bytes;
          break;
        case sial::ArrayKind::kTemp:
          temp_block_max = std::max(
              temp_block_max,
              static_cast<double>(array.max_block_elements) * 8.0);
          break;
        default:
          break;
      }
    }
    model.sia_fixed_per_core += 16.0 * temp_block_max;
    model.ga_resident_total = 2.0 * model.sia_resident_total;
    model.ga_fixed_per_core = 4.0 * model.sia_fixed_per_core;
    return model;
  }

 private:
  struct Phase {
    std::string name;
    std::int64_t tasks = 1;
    double sweeps = 1.0;
    Cost body;
  };

  int find_halt() const {
    for (int pc = 0;
         pc < static_cast<int>(program_.code().code.size()); ++pc) {
      if (program_.code().code[static_cast<std::size_t>(pc)].op ==
          Opcode::kHalt) {
        return pc;
      }
    }
    return static_cast<int>(program_.code().code.size());
  }

  // Walks [begin, end), adding costs either to the current phase body or
  // to the serial accumulator. `multiplier` is the product of enclosing
  // sequential do-loop trip counts *within* the current scope.
  void walk(int begin, int end, double multiplier, bool in_pardo,
            int depth) {
    if (depth > 16) return;  // recursive procs: give up quietly
    for (int pc = begin; pc < end; ++pc) {
      const Instruction& instr =
          program_.code().code[static_cast<std::size_t>(pc)];
      switch (instr.op) {
        case Opcode::kPardoStart: {
          const sial::PardoInfo& pardo =
              program_.code().pardos[static_cast<std::size_t>(instr.a0)];
          Phase phase;
          phase.name = "pardo@" + std::to_string(instr.line);
          phase.tasks = pardo_tasks(pardo);
          phase.sweeps = multiplier;
          phases_.push_back(phase);
          // Analyze the body with a fresh multiplier; costs go into the
          // new phase. (Index, not pointer: the vector may grow.)
          const int saved = current_;
          current_ = static_cast<int>(phases_.size()) - 1;
          walk(pc + 1, instr.a1, 1.0, true, depth + 1);
          current_ = saved;
          pc = instr.a1;  // skip past kPardoEnd
          break;
        }
        case Opcode::kDoStart: {
          double trips;
          if (instr.a2 >= 0) {
            trips = static_cast<double>(
                program_.index(instr.a0).subs_per_segment);
          } else {
            trips =
                static_cast<double>(program_.index(instr.a0).num_values());
          }
          walk(pc + 1, instr.a1, multiplier * trips, in_pardo, depth + 1);
          pc = instr.a1;  // skip past kDoEnd
          break;
        }
        case Opcode::kCall: {
          const sial::ProcInfo& proc =
              program_.code().procs[static_cast<std::size_t>(instr.a0)];
          const int saved = current_;
          walk(proc.entry_pc, proc_end(proc.entry_pc), multiplier,
               in_pardo, depth + 1);
          current_ = saved;
          break;
        }
        default:
          account(instr, multiplier, in_pardo);
          break;
      }
    }
  }

  int proc_end(int entry_pc) const {
    for (int pc = entry_pc;
         pc < static_cast<int>(program_.code().code.size()); ++pc) {
      if (program_.code().code[static_cast<std::size_t>(pc)].op ==
          Opcode::kReturn) {
        return pc;
      }
    }
    return static_cast<int>(program_.code().code.size());
  }

  std::int64_t pardo_tasks(const sial::PardoInfo& pardo) const {
    // Exact filtered count where computable; raw product otherwise (e.g.
    // `pardo ii in i` whose space depends on a runtime value, or where
    // clauses over outer indices).
    std::vector<long> values(program_.indices().size(),
                             sial::kUndefinedIndexValue);
    try {
      return static_cast<std::int64_t>(
          program_.pardo_filtered_space(pardo, values).size());
    } catch (const Error&) {
      std::int64_t total = 1;
      if (pardo.sub_of >= 0) {
        return program_.index(pardo.index_ids.front()).subs_per_segment;
      }
      for (const int id : pardo.index_ids) {
        total *= program_.index(id).num_values();
      }
      return total;
    }
  }

  void account(const Instruction& instr, double multiplier, bool in_pardo) {
    const std::optional<InstructionLoad> load =
        instruction_load(program_, instr);
    if (!load) return;
    Cost cost;
    cost.load[static_cast<std::size_t>(load->cls)] = {1.0, load->units};
    if (load->cls == CostClass::kTransfer) {
      if (instr.op == Opcode::kPut || instr.op == Opcode::kPrepare) {
        cost.puts = 1.0;
        cost.put_bytes = load->units;
      } else {
        cost.fetches = 1.0;
        cost.fetch_bytes = load->units;
      }
    } else if (load->cls != CostClass::kSync) {
      // Contraction units are flops; the others do about one per element.
      cost.flops = load->units;
    }
    if (in_pardo && current_ >= 0) {
      phases_[static_cast<std::size_t>(current_)].body.add(cost,
                                                           multiplier);
    } else {
      serial_.add(cost, multiplier);
    }
  }

  const sial::ResolvedProgram& program_;
  std::vector<Phase> phases_;
  int current_ = -1;
  Cost serial_;
};

}  // namespace

std::optional<InstructionLoad> instruction_load(
    const sial::ResolvedProgram& program, const sial::Instruction& instr) {
  switch (instr.op) {
    case Opcode::kBlockBinary: {
      const double dst = operand_elements(program, instr.blocks[0]);
      if (static_cast<sial::BinOp>(instr.a1) == sial::BinOp::kMul) {
        return InstructionLoad{
            CostClass::kContract,
            2.0 * dst *
                common_elements(program, instr.blocks[1], instr.blocks[2])};
      }
      return InstructionLoad{CostClass::kElementwise, dst};
    }
    case Opcode::kBlockCopy:
    case Opcode::kBlockScaledCopy:
    case Opcode::kBlockScalarOp:
    case Opcode::kBlockDot:
      return InstructionLoad{CostClass::kElementwise,
                             operand_elements(program, instr.blocks[0])};
    case Opcode::kExecute:
      for (const sial::ExecOperand& arg : instr.eargs) {
        if (arg.kind == sial::ExecOperand::Kind::kBlock) {
          return InstructionLoad{CostClass::kExecute,
                                 operand_elements(program, arg.block)};
        }
      }
      return InstructionLoad{CostClass::kExecute, 0.0};
    case Opcode::kGet:
    case Opcode::kRequest:
    case Opcode::kPut:
    case Opcode::kPrepare: {
      const sial::ResolvedArray& array =
          program.array(instr.blocks[0].array_id);
      return InstructionLoad{
          CostClass::kTransfer,
          8.0 * static_cast<double>(array.max_block_elements)};
    }
    case Opcode::kPardoStart:
    case Opcode::kPardoEnd:
      return InstructionLoad{CostClass::kChunk, 0.0};
    case Opcode::kSipBarrier:
    case Opcode::kServerBarrier:
    case Opcode::kCollective:
      return InstructionLoad{CostClass::kSync, 0.0};
    default:
      return std::nullopt;
  }
}

WorkloadModel model_program(const sial::ResolvedProgram& program) {
  Analyzer analyzer(program);
  return analyzer.run();
}

}  // namespace sia::sim
