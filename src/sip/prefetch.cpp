#include "sip/prefetch.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sia::sip {

namespace {

bool operand_uses_index(const sial::BlockOperand& operand, int index_id) {
  for (int d = 0; d < operand.rank; ++d) {
    if (operand.index_ids[static_cast<std::size_t>(d)] == index_id) {
      return true;
    }
  }
  return false;
}

bool operand_uses_pardo(const sial::BlockOperand& operand,
                        const sial::PardoInfo& pardo) {
  for (const int id : pardo.index_ids) {
    if (operand_uses_index(operand, id)) return true;
  }
  return false;
}

}  // namespace

std::vector<BlockId> prefetch_candidates(
    const sial::ResolvedProgram& program, const sial::BlockOperand& operand,
    std::span<const long> index_values,
    std::span<const LoopContext> loops, int depth) {
  std::vector<BlockId> out;
  if (depth <= 0) return out;

  std::vector<long> values(index_values.begin(), index_values.end());

  for (const LoopContext& loop : loops) {
    if (!loop.is_pardo) {
      if (!operand_uses_index(operand, loop.index_id)) continue;
      for (int k = 1; k <= depth; ++k) {
        const long value = loop.current + k;
        if (value > loop.last) break;
        values[static_cast<std::size_t>(loop.index_id)] = value;
        try {
          out.push_back(program.resolve_operand(operand, values).id());
        } catch (const RuntimeError&) {
          break;  // hypothetical iteration falls outside the array
        }
      }
      return out;
    }
    // Pardo: future iterations are the remaining positions of the chunk.
    if (loop.pardo == nullptr || loop.filtered == nullptr) continue;
    if (!operand_uses_pardo(operand, *loop.pardo)) continue;
    std::vector<long> decoded(loop.pardo->index_ids.size());
    const std::int64_t limit =
        std::min(loop.next_pos + depth, loop.end_pos);
    for (std::int64_t pos = loop.next_pos; pos < limit; ++pos) {
      program.pardo_decode(*loop.pardo, index_values,
                           (*loop.filtered)[static_cast<std::size_t>(pos)],
                           decoded);
      for (std::size_t d = 0; d < loop.pardo->index_ids.size(); ++d) {
        values[static_cast<std::size_t>(loop.pardo->index_ids[d])] =
            decoded[d];
      }
      try {
        out.push_back(program.resolve_operand(operand, values).id());
      } catch (const RuntimeError&) {
        continue;
      }
    }
    return out;
  }
  return out;
}

}  // namespace sia::sip
