#include "sim/program_model.hpp"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <limits>
#include <set>

#include "common/error.hpp"

namespace sia::sim {

namespace {

using sial::Instruction;
using sial::Opcode;

// Element count of a block operand's largest block: the product of the
// referenced indices' largest segments.
double operand_elements(const sial::ResolvedProgram& program,
                        const sial::BlockOperand& operand) {
  double elements = 1.0;
  for (int d = 0; d < operand.rank; ++d) {
    const int id = operand.index_ids[static_cast<std::size_t>(d)];
    if (id == sial::kWildcardIndex) continue;
    elements *= static_cast<double>(program.index(id).max_extent());
  }
  return elements;
}

// Product of the largest segments of the ids shared between two operands.
double common_elements(const sial::ResolvedProgram& program,
                       const sial::BlockOperand& a,
                       const sial::BlockOperand& b) {
  double elements = 1.0;
  for (int d = 0; d < a.rank; ++d) {
    const int id = a.index_ids[static_cast<std::size_t>(d)];
    for (int e = 0; e < b.rank; ++e) {
      if (b.index_ids[static_cast<std::size_t>(e)] == id) {
        elements *= static_cast<double>(program.index(id).max_extent());
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

// Count per key, in key order: per block shape (elements) or per pool
// size class. A walk builds many with a few keys each, so they are sorted
// vectors rather than trees.
class Counts {
 public:
  using Entry = std::pair<std::size_t, double>;
  Counts() = default;
  Counts(std::initializer_list<Entry> entries) : entries_(entries) {}

  double& operator[](std::size_t key) {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const Entry& entry, std::size_t k) { return entry.first < k; });
    if (it == entries_.end() || it->first != key) {
      it = entries_.insert(it, {key, 0.0});
    }
    return it->second;
  }
  std::size_t size() const { return entries_.size(); }
  std::vector<Entry>::const_iterator begin() const { return entries_.begin(); }
  std::vector<Entry>::const_iterator end() const { return entries_.end(); }

 private:
  std::vector<Entry> entries_;
};

void raise_to(Counts& peak, const Counts& now) {
  for (const auto& [key, n] : now) peak[key] = std::max(peak[key], n);
}

// Blocks per class each operand addresses in a region, by array and
// operand indices: reads through the same indices count once.
using Region =
    std::map<std::pair<int, std::array<int, blas::kMaxRank>>, Counts>;

Counts total(const Region& region) {
  Counts out;
  for (const auto& [key, blocks] : region) {
    for (const auto& [cls, n] : blocks) out[cls] += n;
  }
  return out;
}

// The one structured abstract execution of the bytecode. It follows the
// control flow the interpreter follows (pardo spaces with their where
// filters, do trip counts, procs, subindex loops, ragged segments) once,
// and emits both the per-phase costs and one worker's memory: per pool
// size class, the most slots its pool can have live at once, for any
// schedule. Memory is counted as distinct blocks and their shapes per
// region; no loop is iterated.
class Walker {
 public:
  explicit Walker(const sial::ResolvedProgram& program)
      : program_(program), config_(program.config()),
        values_(program.indices().size(), 1),
        extents_(program.indices().size()) {
    for (std::size_t id = 0; id < extents_.size(); ++id) {
      const sial::ResolvedIndex& index = program.index(static_cast<int>(id));
      for (int s = index.seg_lo; s <= index.seg_hi; ++s) {
        extents_[id][static_cast<std::size_t>(index.segment_extent(s))] += 1;
      }
    }
    for (const sial::ResolvedArray& array : program.arrays()) {
      classes_.insert(array.max_block_elements);
    }
  }

  WorkloadModel run() {
    WorkloadModel model;
    model.name = "program:" + program_.code().name;
    walk(0, find(Opcode::kHalt, 0), /*multiplier=*/1.0, 0);
    raise_to(temps_, total(seq_temps_));

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

    model.memory = memory();
    model.sia_resident_total =
        static_cast<double>(model.memory.dist_total_bytes);
    model.sia_fixed_per_core = static_cast<double>(model.memory.fixed_bytes());
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

  // The first `op` at or after `from` (the code's end if none).
  int find(Opcode op, int from) const {
    const std::vector<Instruction>& code = program_.code().code;
    while (from < static_cast<int>(code.size()) &&
           code[static_cast<std::size_t>(from)].op != op) {
      ++from;
    }
    return from;
  }

  // Walks [begin, end), adding costs either to the current phase body or
  // to the serial accumulator. `multiplier` is the product of enclosing
  // sequential do-loop trip counts *within* the current scope.
  void walk(int begin, int end, double multiplier, int depth) {
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
          // new phase. (Index, not pointer: the vector may grow.) Within
          // one iteration each pardo index has one value.
          const int saved = current_;
          current_ = static_cast<int>(phases_.size()) - 1;
          const std::vector<long> outer = values_;
          for (const int id : pardo.index_ids) {
            values_[static_cast<std::size_t>(id)] = 1;
          }
          walk(pc + 1, instr.a1, 1.0, depth + 1);
          values_ = outer;
          current_ = saved;
          // Temps and write-combined entries live one iteration.
          raise_to(temps_, total(iter_temps_));
          iter_temps_.clear();
          pc = instr.a1;  // skip past kPardoEnd
          break;
        }
        case Opcode::kDoStart: {
          const sial::ResolvedIndex& index = program_.index(instr.a0);
          long& values = values_[static_cast<std::size_t>(instr.a0)];
          const long outer = values;
          values = index.num_values();
          double trips = static_cast<double>(values);
          if (instr.a2 >= 0) {  // `do ii in i`: the subs of i's segments
            trips = static_cast<double>(index.subs_per_segment);
            values = values_[static_cast<std::size_t>(instr.a2)] *
                     index.subs_per_segment;
          }
          walk(pc + 1, instr.a1, multiplier * trips, depth + 1);
          values = outer;
          pc = instr.a1;  // skip past kDoEnd
          break;
        }
        case Opcode::kCall: {
          const sial::ProcInfo& proc =
              program_.code().procs[static_cast<std::size_t>(instr.a0)];
          const int saved = current_;
          walk(proc.entry_pc, find(Opcode::kReturn, proc.entry_pc),
               multiplier, depth + 1);
          current_ = saved;
          break;
        }
        default:
          account(instr, multiplier);
          track(instr);
          break;
      }
    }
  }

  std::int64_t pardo_tasks(const sial::PardoInfo& pardo) const {
    // `pardo ii in i`: the subs of one segment of i, whose value is only
    // known at run time.
    if (pardo.sub_of >= 0) {
      return program_.index(pardo.index_ids.front()).subs_per_segment;
    }
    std::int64_t total = 1;
    for (const int id : pardo.index_ids) {
      total *= program_.index(id).num_values();
    }
    if (pardo.wheres.empty()) return total;
    // Exact filtered count where computable; the raw product otherwise
    // (where clauses over outer indices, or a space past the limit).
    const std::vector<long> values(program_.indices().size(),
                                   sial::kUndefinedIndexValue);
    try {
      return static_cast<std::int64_t>(
          program_.pardo_filtered_space(pardo, values).size());
    } catch (const Error&) {
      return total;
    }
  }

  void account(const Instruction& instr, double multiplier) {
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
    if (current_ >= 0) {
      phases_[static_cast<std::size_t>(current_)].body.add(cost,
                                                           multiplier);
    } else {
      serial_.add(cost, multiplier);
    }
  }

  // ------------------------------------------------------------------
  // Memory.

  // Blocks per shape that `operand` addresses at once, with its indices
  // bound as the enclosing loops bind them (`every`: all their values);
  // `addressed` is their number. A one-valued index may take any of its
  // extents, full or ragged, so each counts. Wildcards and slices address
  // the declared index.
  Counts shapes(const sial::BlockOperand& operand, bool every,
                double& addressed) const {
    const sial::ResolvedArray& array = program_.array(operand.array_id);
    Counts out{{1, 1.0}};
    for (int d = 0; d < operand.rank; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      int id = operand.index_ids[ud];
      const bool whole = id == sial::kWildcardIndex || sliced(operand, d);
      if (whole) id = array.index_ids[ud];
      const long values = whole || every
                              ? program_.index(id).num_values()
                              : values_[static_cast<std::size_t>(id)];
      const Counts& extents = extents_[static_cast<std::size_t>(id)];
      addressed *= static_cast<double>(values);
      if (out.size() == 1 && extents.size() == 1) {  // one shape stays one
        const auto [elements, n] = *out.begin();
        const auto [extent, m] = *extents.begin();
        out = {{elements * extent, n * (values == 1 ? 1.0 : m)}};
        continue;
      }
      Counts next;
      for (const auto& [elements, n] : out) {
        for (const auto& [extent, m] : extents) {
          next[elements * extent] += n * (values == 1 ? 1.0 : m);
        }
      }
      out = std::move(next);
    }
    return out;
  }

  // Blocks per pool class, at most `cap` each: a block falls in the
  // smallest class that holds it, the one the pool serves it from.
  Counts by_class(const Counts& shapes,
                  double cap = std::numeric_limits<double>::max()) const {
    Counts out;
    for (const auto& [elements, n] : shapes) {
      double& slots = out[*classes_.lower_bound(elements)];
      slots = std::min(slots + n, cap);
    }
    return out;
  }

  // All blocks of an array, per shape.
  Counts grid(int array_id) const {
    const sial::ResolvedArray& array = program_.array(array_id);
    sial::BlockOperand whole{array_id, array.rank(), {}};
    std::copy(array.index_ids.begin(), array.index_ids.end(),
              whole.index_ids.begin());
    double blocks = 1.0;
    return shapes(whole, true, blocks);
  }

  // True when dimension `d` of the operand addresses a slice of a
  // super-segment block (a subindex on a super-typed dimension).
  bool sliced(const sial::BlockOperand& operand, int d) const {
    const std::size_t ud = static_cast<std::size_t>(d);
    return program_.index(operand.index_ids[ud]).type ==
               sial::IndexType::kSub &&
           program_.index(program_.array(operand.array_id).index_ids[ud])
                   .type != sial::IndexType::kSub;
  }

  void raise(Region& region, const sial::BlockOperand& operand,
             bool every) const {
    double addressed = 1.0;
    const Counts blocks = shapes(operand, every, addressed);
    raise_to(region[{operand.array_id, operand.index_ids}],
             by_class(blocks, addressed));
  }

  // Records what one instruction adds to a worker's memory.
  void track(const Instruction& instr) {
    Region& temps = current_ >= 0 ? iter_temps_ : seq_temps_;
    const sial::BlockOperand* written = nullptr;
    switch (instr.op) {
      case Opcode::kAllocate:  // lives until deallocated
        raise(locals_, instr.blocks[0], true);
        return;
      case Opcode::kRestoreArr:
        stored_.insert(instr.a0);
        return;
      case Opcode::kPut:
      case Opcode::kPrepare:
        // The written block stays in a home store or a server cache; an
        // accumulate to another rank first waits the iteration out in
        // the write-combining shadow.
        written = &instr.blocks[0];
        stored_.insert(written->array_id);
        if (instr.a0 == 1 &&
            (instr.op == Opcode::kPrepare || config_.workers > 1)) {
          raise(temps, *written, false);
        }
        touch(instr, instr.blocks[1], temps);
        break;
      case Opcode::kBlockScaledCopy:  // a permuted source
      case Opcode::kBlockBinary:      // an operand aliasing the destination
        written = &instr.blocks[0];
        [[fallthrough]];
      default:
        for (const sial::BlockOperand& operand : instr.blocks) {
          touch(instr, operand, temps);
        }
        for (const sial::ExecOperand& arg : instr.eargs) {
          if (arg.kind == sial::ExecOperand::Kind::kBlock) {
            touch(instr, arg.block, temps);
          }
        }
    }
    if (written != nullptr) staged_.insert(written->array_id);
  }

  // A block operand read or written: a temp block, a static array, or
  // remote blocks in the worker's cache for served or distributed arrays,
  // with a get's demand block and prefetch_depth look-aheads in flight.
  void touch(const Instruction& instr, const sial::BlockOperand& operand,
             Region& temps) {
    const sial::ResolvedArray& array = program_.array(operand.array_id);
    const bool served = array.kind == sial::ArrayKind::kServed;
    if (array.kind == sial::ArrayKind::kTemp) {
      for (int d = 0; d < operand.rank; ++d) {
        if (sliced(operand, d)) return;  // reads a stored block
      }
      raise(temps, operand, false);
    } else if (array.kind == sial::ArrayKind::kStatic) {
      stored_.insert(operand.array_id);
    } else if (served || array.kind == sial::ArrayKind::kDistributed) {
      raise(served ? served_reads_ : dist_reads_, operand, true);
      if (instr.op == Opcode::kGet || instr.op == Opcode::kRequest) {
        (served ? served_in_flight_ : dist_in_flight_) +=
            (1.0 + config_.prefetch_depth) *
            static_cast<double>(array.max_block_elements);
      }
    }
  }

  WorkerMemory memory() const {
    const auto bytes = [](const Counts& slots) {
      double doubles = 0.0;
      for (const auto& [cls, n] : slots) {
        doubles += n * static_cast<double>(cls);
      }
      return static_cast<std::size_t>(doubles) * sizeof(double);
    };
    // A cache holds up to its capacity plus the replies in flight. With
    // one worker every distributed block is home and never cached.
    const double capacity =
        static_cast<double>(config_.worker_cache_doubles() * sizeof(double));
    const double cache =
        std::min<double>(bytes(total(served_reads_)),
                         capacity + served_in_flight_ * sizeof(double)) +
        (config_.workers > 1
             ? std::min<double>(bytes(total(dist_reads_)),
                                capacity + dist_in_flight_ * sizeof(double))
             : 0.0);
    const Counts locals = total(locals_);
    WorkerMemory out;
    out.temp_peak_bytes = bytes(temps_);
    out.local_bytes = bytes(locals);
    out.cache_demand_bytes = static_cast<std::size_t>(cache);
    for (const sial::ResolvedArray& array : program_.arrays()) {
      const std::size_t size = array.total_elements * sizeof(double);
      if (array.kind == sial::ArrayKind::kStatic) out.static_bytes += size;
      if (array.kind == sial::ArrayKind::kDistributed) {
        out.dist_total_bytes += size;
      }
      if (array.kind == sial::ArrayKind::kServed) {
        out.served_total_bytes += size;
      }
    }

    // Any schedule may give one worker every write of an array, and a
    // hash may home every block of a distributed array on it.
    Counts slots, staging;
    for (const std::size_t cls : classes_) slots[cls] = 0;
    // One slot per class for a staged copy, or the old block of a
    // replaced one until it is freed.
    for (const int id : staged_) {
      for (const auto& [cls, n] : by_class(grid(id), 1)) staging[cls] = 1;
    }
    for (const Counts& part : {temps_, locals, staging}) {
      for (const auto& [cls, n] : part) slots[cls] += n;
    }
    for (const int id : stored_) {
      const Counts blocks = grid(id);
      if (program_.array(id).kind == sial::ArrayKind::kServed) {
        for (const auto& [elements, n] : blocks) {
          out.served_blocks[elements] += static_cast<std::size_t>(n);
        }
        continue;
      }
      for (const auto& [cls, n] : by_class(blocks)) slots[cls] += n;
    }
    for (const auto& [cls, n] : slots) {
      out.pool_slots[cls] = static_cast<std::size_t>(n + 0.5);
    }
    return out;
  }

  const sial::ResolvedProgram& program_;
  const SipConfig& config_;
  std::vector<Phase> phases_;
  int current_ = -1;  // phase of the enclosing pardo, if any
  Cost serial_;

  // Per index: how many values the enclosing loops give it in the current
  // region (one in a pardo iteration), and its segments per extent.
  std::vector<long> values_;
  std::vector<Counts> extents_;
  std::set<std::size_t> classes_;  // the arrays' full block sizes
  // Temps and write-combined entries live one pardo iteration;
  // sequential ones are only dropped by a pardo iteration, which a
  // worker may never get, so they add up over all sequential code.
  Region iter_temps_, seq_temps_, locals_, dist_reads_, served_reads_;
  Counts temps_;
  std::set<int> staged_;  // arrays an instruction stages or replaces into
  double dist_in_flight_ = 0.0, served_in_flight_ = 0.0;  // doubles
  // Arrays whose every block a worker's pool may hold: statics, and the
  // distributed and served arrays the program writes.
  std::set<int> stored_;
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
  return Walker(program).run();
}

}  // namespace sia::sim
