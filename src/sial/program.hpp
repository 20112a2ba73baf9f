// Program initialization: binding bytecode to a runtime configuration.
//
// "Some of the values in the tables are symbolic values that correspond to
// values of predefined constants. The symbolic values are replaced with a
// concrete value during initialization." (paper §V-A). ResolvedProgram is
// the compiled program plus that binding: index element ranges evaluated,
// segment sizes applied per index type, array grids computed, and the
// operand-resolution logic every SIP component shares (interpreter, dry
// run, prefetcher, checkpointing).
//
// Segment numbering: segment numbers are absolute within an index type's
// 1-based element space, so two indices of the same type (e.g. occupied
// `i = 1, nocc` and virtual `a = nocc+1, norb`) address compatible blocks
// of an array declared over the full range. This requires each index's
// low bound to fall on a segment boundary, which initialization enforces.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "blas/permute.hpp"
#include "block/block.hpp"
#include "block/block_id.hpp"
#include "block/index_range.hpp"
#include "common/config.hpp"
#include "sial/bytecode.hpp"

namespace sia::sial {

struct ResolvedIndex {
  std::string name;
  IndexType type = IndexType::kSimple;
  long low = 1, high = 0;  // element bounds (subindex: of the super range)
  int segment_size = 1;    // elements per segment (subindex: sub-segment)
  int seg_lo = 1, seg_hi = 0;  // absolute segment numbers; loop range
  int super_id = -1;           // subindex: resolved super index
  int subs_per_segment = 1;    // subindex: sub-segments per super segment

  int num_values() const { return seg_hi - seg_lo + 1; }
  // First absolute element of absolute segment `s`.
  long segment_start(int s) const {
    return static_cast<long>(s - 1) * segment_size + 1;
  }
  // Elements in absolute segment `s`, clipped to `high`.
  int segment_extent(int s) const {
    const long start = segment_start(s);
    const long end = std::min<long>(start + segment_size - 1, high);
    return static_cast<int>(end - start + 1);
  }
};

struct ResolvedArray {
  std::string name;
  ArrayKind kind = ArrayKind::kTemp;
  bool sparse = false;  // screenable under the runtime sparse threshold
  std::vector<int> index_ids;
  std::vector<int> num_segments;  // per dimension (array grid)
  std::vector<int> seg_lo;        // per dimension: first absolute segment
  long total_blocks = 0;
  std::size_t max_block_elements = 0;  // full (untrimmed) block size
  std::size_t total_elements = 0;

  int rank() const { return static_cast<int>(index_ids.size()); }
};

// Result of evaluating a BlockOperand against current index values: which
// block of which array, plus slice information when a subindex addresses
// a super-typed dimension.
struct BlockSelector {
  int array_id = -1;
  int rank = 0;
  std::array<int, blas::kMaxRank> dim_local{};     // 1-based in array grid
  bool sliced = false;
  std::array<int, blas::kMaxRank> slice_origin{};  // 0-based elem offsets
  std::array<int, blas::kMaxRank> extents{};       // effective extents
  std::array<int, blas::kMaxRank> block_extents{}; // containing block
  std::array<long, blas::kMaxRank> first_element{};// absolute first element
                                                   // of the effective region
  BlockId id() const {
    return BlockId(array_id, {dim_local.data(),
                              static_cast<std::size_t>(rank)});
  }
  BlockShape shape() const {
    return BlockShape({extents.data(), static_cast<std::size_t>(rank)});
  }
  BlockShape block_shape() const {
    return BlockShape({block_extents.data(), static_cast<std::size_t>(rank)});
  }
};

class ResolvedProgram {
 public:
  ResolvedProgram(CompiledProgram program, const SipConfig& config);

  const CompiledProgram& code() const { return program_; }
  const SipConfig& config() const { return config_; }

  const std::vector<ResolvedIndex>& indices() const { return indices_; }
  const std::vector<ResolvedArray>& arrays() const { return arrays_; }
  const ResolvedIndex& index(int id) const {
    return indices_[static_cast<std::size_t>(id)];
  }
  const ResolvedArray& array(int id) const {
    return arrays_[static_cast<std::size_t>(id)];
  }
  double constant_value(int id) const {
    return constant_values_[static_cast<std::size_t>(id)];
  }

  // Evaluates a symbolic integer expression with the bound constants.
  long eval_int_expr(const IntExpr& expr) const;

  // Evaluates a block operand given the current index values (absolute
  // segment numbers; kUndefinedIndexValue when unset). Throws
  // RuntimeError for undefined indices or out-of-grid segments. Wildcard
  // dimensions are rejected here; allocate handles them itself.
  BlockSelector resolve_operand(const BlockOperand& operand,
                                std::span<const long> index_values) const;

  // Shape of the array's block at the given 1-based grid position.
  BlockShape grid_block_shape(const ResolvedArray& array,
                              std::span<const int> dim_local) const;

  // Block geometry by id, as the block protocols use it: the block's
  // shape, and its linear position in the array grid (the form a block id
  // takes in message headers) and back.
  BlockShape shape_of(const BlockId& id) const;
  std::int64_t linear_of(const BlockId& id) const;
  BlockId id_from_linear(int array_id, std::int64_t linear) const;
  // True when blocks of the array are screened: it is declared sparse and
  // the runtime threshold is on.
  bool screenable(int array_id) const {
    return threshold() > 0.0 && array(array_id).sparse;
  }
  double threshold() const { return config_.sparse_threshold; }

  // Pardo iteration-space support. Enumerates the raw Cartesian space of
  // the pardo's indices in row-major order (last index fastest), applies
  // the where clauses, and returns the raw linear positions that survive.
  // `index_values` supplies outer loop values (for where clauses that
  // reference enclosing indices, and for the `pardo ii in i` form).
  std::vector<std::int64_t> pardo_filtered_space(
      const PardoInfo& pardo, std::span<const long> index_values) const;

  // Decodes a raw linear position into absolute segment values, in the
  // order of pardo.index_ids.
  void pardo_decode(const PardoInfo& pardo,
                    std::span<const long> index_values, std::int64_t raw,
                    std::span<long> out_values) const;

  // Per-dimension value counts of the pardo's raw space.
  std::vector<long> pardo_dims(const PardoInfo& pardo,
                               std::span<const long> index_values) const;

 private:
  void resolve_indices();
  void resolve_arrays();

  CompiledProgram program_;
  SipConfig config_;
  std::vector<ResolvedIndex> indices_;
  std::vector<ResolvedArray> arrays_;
  std::vector<double> constant_values_;
};

inline constexpr long kUndefinedIndexValue = -1;

}  // namespace sia::sial
