#include "sial/program.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sia::sial {

namespace {

// Raw pardo spaces beyond this are certainly a mistake at interpreter
// scale (the simulator handles cluster-scale spaces analytically).
constexpr std::int64_t kMaxPardoSpace = 64ll * 1000 * 1000;

long eval_cmp(CmpOp op, long lhs, long rhs) {
  switch (op) {
    case CmpOp::kLt: return lhs < rhs;
    case CmpOp::kLe: return lhs <= rhs;
    case CmpOp::kGt: return lhs > rhs;
    case CmpOp::kGe: return lhs >= rhs;
    case CmpOp::kEq: return lhs == rhs;
    case CmpOp::kNe: return lhs != rhs;
  }
  return 0;
}

}  // namespace

ResolvedProgram::ResolvedProgram(CompiledProgram program,
                                 const SipConfig& config)
    : program_(std::move(program)), config_(config) {
  config_.validate();
  constant_values_.reserve(program_.constants.size());
  for (const std::string& name : program_.constants) {
    auto it = config_.constants.find(name);
    if (it == config_.constants.end()) {
      throw Error("program '" + program_.name + "' uses constant '" + name +
                  "' which is not defined in the SIP configuration");
    }
    constant_values_.push_back(static_cast<double>(it->second));
  }
  resolve_indices();
  resolve_arrays();
}

long ResolvedProgram::eval_int_expr(const IntExpr& expr) const {
  switch (expr.kind) {
    case IntExpr::Kind::kLiteral:
      return expr.literal;
    case IntExpr::Kind::kConstant: {
      auto it = config_.constants.find(expr.constant);
      if (it == config_.constants.end()) {
        throw Error("undefined symbolic constant '" + expr.constant + "'");
      }
      return it->second;
    }
    case IntExpr::Kind::kAdd:
      return eval_int_expr(*expr.lhs) + eval_int_expr(*expr.rhs);
    case IntExpr::Kind::kSub:
      return eval_int_expr(*expr.lhs) - eval_int_expr(*expr.rhs);
    case IntExpr::Kind::kMul:
      return eval_int_expr(*expr.lhs) * eval_int_expr(*expr.rhs);
    case IntExpr::Kind::kDiv: {
      const long rhs = eval_int_expr(*expr.rhs);
      if (rhs == 0) throw Error("division by zero in constant expression");
      return eval_int_expr(*expr.lhs) / rhs;
    }
  }
  return 0;
}

void ResolvedProgram::resolve_indices() {
  indices_.resize(program_.indices.size());
  // First pass: all non-sub indices.
  for (std::size_t i = 0; i < program_.indices.size(); ++i) {
    const IndexInfo& info = program_.indices[i];
    if (info.type == IndexType::kSub) continue;
    ResolvedIndex& resolved = indices_[i];
    resolved.name = info.name;
    resolved.type = info.type;
    resolved.low = eval_int_expr(info.low);
    resolved.high = eval_int_expr(info.high);
    if (resolved.low < 1 || resolved.high < resolved.low) {
      throw Error("index '" + info.name + "' has bad range [" +
                  std::to_string(resolved.low) + ", " +
                  std::to_string(resolved.high) + "]");
    }
    resolved.segment_size =
        info.type == IndexType::kSimple
            ? 1
            : config_.segment_for(index_type_name(info.type));
    if ((resolved.low - 1) % resolved.segment_size != 0) {
      throw Error("index '" + info.name + "' low bound " +
                  std::to_string(resolved.low) +
                  " does not fall on a segment boundary (segment size " +
                  std::to_string(resolved.segment_size) + ")");
    }
    resolved.seg_lo =
        static_cast<int>((resolved.low - 1) / resolved.segment_size) + 1;
    resolved.seg_hi =
        static_cast<int>((resolved.high - 1) / resolved.segment_size) + 1;
  }
  // Second pass: subindices.
  for (std::size_t i = 0; i < program_.indices.size(); ++i) {
    const IndexInfo& info = program_.indices[i];
    if (info.type != IndexType::kSub) continue;
    ResolvedIndex& resolved = indices_[i];
    const ResolvedIndex& super =
        indices_[static_cast<std::size_t>(info.super_id)];
    resolved.name = info.name;
    resolved.type = IndexType::kSub;
    resolved.super_id = info.super_id;
    resolved.subs_per_segment = config_.subsegments_per_segment;
    if (super.segment_size % resolved.subs_per_segment != 0) {
      throw Error("subindex '" + info.name + "': segment size " +
                  std::to_string(super.segment_size) +
                  " is not divisible by subsegments_per_segment " +
                  std::to_string(resolved.subs_per_segment));
    }
    resolved.segment_size = super.segment_size / resolved.subs_per_segment;
    resolved.low = super.low;
    resolved.high = super.high;
    resolved.seg_lo =
        static_cast<int>((resolved.low - 1) / resolved.segment_size) + 1;
    resolved.seg_hi =
        static_cast<int>((resolved.high - 1) / resolved.segment_size) + 1;
  }
}

void ResolvedProgram::resolve_arrays() {
  arrays_.resize(program_.arrays.size());
  for (std::size_t i = 0; i < program_.arrays.size(); ++i) {
    const ArrayInfo& info = program_.arrays[i];
    ResolvedArray& array = arrays_[i];
    array.name = info.name;
    array.kind = info.kind;
    array.sparse = info.sparse;
    array.index_ids = info.index_ids;
    array.total_blocks = 1;
    array.max_block_elements = 1;
    array.total_elements = 1;
    for (const int index_id : info.index_ids) {
      const ResolvedIndex& index =
          indices_[static_cast<std::size_t>(index_id)];
      array.num_segments.push_back(index.num_values());
      array.seg_lo.push_back(index.seg_lo);
      array.total_blocks *= index.num_values();
      array.max_block_elements *=
          static_cast<std::size_t>(index.segment_size);
      array.total_elements *=
          static_cast<std::size_t>(index.high - index.low + 1);
    }
  }
}

BlockSelector ResolvedProgram::resolve_operand(
    const BlockOperand& operand, std::span<const long> index_values) const {
  const ResolvedArray& array =
      arrays_[static_cast<std::size_t>(operand.array_id)];
  SIA_CHECK(operand.rank == array.rank(), "operand rank mismatch");

  BlockSelector selector;
  selector.array_id = operand.array_id;
  selector.rank = operand.rank;

  for (int d = 0; d < operand.rank; ++d) {
    const std::size_t ud = static_cast<std::size_t>(d);
    const int ref_id = operand.index_ids[ud];
    if (ref_id == kWildcardIndex) {
      throw RuntimeError("wildcard index in a computational operand of '" +
                         array.name + "'");
    }
    const ResolvedIndex& ref = indices_[static_cast<std::size_t>(ref_id)];
    const ResolvedIndex& decl =
        indices_[static_cast<std::size_t>(array.index_ids[ud])];
    const long value = index_values[static_cast<std::size_t>(ref_id)];
    if (value == kUndefinedIndexValue) {
      throw RuntimeError("index '" + ref.name +
                         "' used without a value (array '" + array.name +
                         "')");
    }
    if (value < ref.seg_lo || value > ref.seg_hi) {
      throw RuntimeError("index '" + ref.name + "' value " +
                         std::to_string(value) + " outside its range");
    }

    if (ref.type == IndexType::kSub && decl.type != IndexType::kSub) {
      // Slice: subindex addressing a super-typed dimension.
      const long start = ref.segment_start(static_cast<int>(value));
      const int super_seg =
          static_cast<int>((start - 1) / decl.segment_size) + 1;
      const int local = super_seg - array.seg_lo[ud] + 1;
      if (local < 1 || local > array.num_segments[ud]) {
        throw RuntimeError("subindex '" + ref.name +
                           "' addresses outside array '" + array.name + "'");
      }
      selector.sliced = true;
      selector.dim_local[ud] = local;
      selector.slice_origin[ud] =
          static_cast<int>(start - decl.segment_start(super_seg));
      selector.extents[ud] = ref.segment_extent(static_cast<int>(value));
      selector.block_extents[ud] = decl.segment_extent(super_seg);
      selector.first_element[ud] = start;
      continue;
    }

    if (ref.segment_size != decl.segment_size) {
      throw RuntimeError(
          "index '" + ref.name + "' (segment size " +
          std::to_string(ref.segment_size) + ") is incompatible with "
          "dimension " + std::to_string(d + 1) + " of '" + array.name +
          "' (segment size " + std::to_string(decl.segment_size) + ")");
    }
    const int local = static_cast<int>(value) - array.seg_lo[ud] + 1;
    if (local < 1 || local > array.num_segments[ud]) {
      throw RuntimeError("index '" + ref.name + "' value " +
                         std::to_string(value) +
                         " addresses outside array '" + array.name + "'");
    }
    selector.dim_local[ud] = local;
    selector.slice_origin[ud] = 0;
    selector.extents[ud] = decl.segment_extent(static_cast<int>(value));
    selector.block_extents[ud] = selector.extents[ud];
    selector.first_element[ud] = decl.segment_start(static_cast<int>(value));
  }
  return selector;
}

BlockShape ResolvedProgram::grid_block_shape(
    const ResolvedArray& array, std::span<const int> dim_local) const {
  std::array<int, blas::kMaxRank> extents{};
  for (int d = 0; d < array.rank(); ++d) {
    const std::size_t ud = static_cast<std::size_t>(d);
    const ResolvedIndex& decl =
        indices_[static_cast<std::size_t>(array.index_ids[ud])];
    const int abs_seg = dim_local[ud] + array.seg_lo[ud] - 1;
    extents[ud] = decl.segment_extent(abs_seg);
  }
  return BlockShape({extents.data(), static_cast<std::size_t>(array.rank())});
}

BlockShape ResolvedProgram::shape_of(const BlockId& id) const {
  return grid_block_shape(
      array(id.array_id),
      {id.segments.data(), static_cast<std::size_t>(id.rank)});
}

std::int64_t ResolvedProgram::linear_of(const BlockId& id) const {
  return id.linearize(array(id.array_id).num_segments);
}

BlockId ResolvedProgram::id_from_linear(int array_id,
                                        std::int64_t linear) const {
  return BlockId::from_linear(array_id, linear, array(array_id).num_segments);
}

std::vector<long> ResolvedProgram::pardo_dims(
    const PardoInfo& pardo, std::span<const long> index_values) const {
  if (pardo.sub_of >= 0) {
    const ResolvedIndex& sub =
        indices_[static_cast<std::size_t>(pardo.index_ids.front())];
    const long super_value =
        index_values[static_cast<std::size_t>(pardo.sub_of)];
    if (super_value == kUndefinedIndexValue) {
      throw RuntimeError(
          "'pardo " + sub.name +
          " in ...' requires the super index to have a value");
    }
    const long first =
        (super_value - 1) * sub.subs_per_segment + 1;
    const long last = std::min<long>(super_value * sub.subs_per_segment,
                                     sub.seg_hi);
    return {std::max<long>(0, last - first + 1)};
  }
  std::vector<long> dims;
  dims.reserve(pardo.index_ids.size());
  for (const int id : pardo.index_ids) {
    dims.push_back(indices_[static_cast<std::size_t>(id)].num_values());
  }
  return dims;
}

void ResolvedProgram::pardo_decode(const PardoInfo& pardo,
                                   std::span<const long> index_values,
                                   std::int64_t raw,
                                   std::span<long> out_values) const {
  if (pardo.sub_of >= 0) {
    const ResolvedIndex& sub =
        indices_[static_cast<std::size_t>(pardo.index_ids.front())];
    const long super_value =
        index_values[static_cast<std::size_t>(pardo.sub_of)];
    out_values[0] = (super_value - 1) * sub.subs_per_segment + 1 + raw;
    return;
  }
  const std::vector<long> dims = pardo_dims(pardo, index_values);
  for (int d = static_cast<int>(dims.size()) - 1; d >= 0; --d) {
    const std::size_t ud = static_cast<std::size_t>(d);
    const ResolvedIndex& index =
        indices_[static_cast<std::size_t>(pardo.index_ids[ud])];
    out_values[ud] = index.seg_lo + (raw % dims[ud]);
    raw /= dims[ud];
  }
}

std::vector<std::int64_t> ResolvedProgram::pardo_filtered_space(
    const PardoInfo& pardo, std::span<const long> index_values) const {
  const std::vector<long> dims = pardo_dims(pardo, index_values);
  std::int64_t total = 1;
  for (const long d : dims) total *= d;
  if (total > kMaxPardoSpace) {
    throw RuntimeError("pardo iteration space of " + std::to_string(total) +
                       " exceeds the interpreter limit");
  }

  std::vector<std::int64_t> filtered;
  if (total == 0) return filtered;
  filtered.reserve(static_cast<std::size_t>(total));

  std::vector<long> values(index_values.begin(), index_values.end());
  std::vector<long> decoded(pardo.index_ids.size());
  for (std::int64_t raw = 0; raw < total; ++raw) {
    pardo_decode(pardo, index_values, raw, decoded);
    for (std::size_t d = 0; d < pardo.index_ids.size(); ++d) {
      values[static_cast<std::size_t>(pardo.index_ids[d])] = decoded[d];
    }
    bool keep = true;
    for (const WhereOp& where : pardo.wheres) {
      const long lhs =
          values[static_cast<std::size_t>(where.lhs_index_id)];
      long rhs = 0;
      if (where.rhs_is_index) {
        rhs = values[static_cast<std::size_t>(where.rhs_index_id)];
        if (rhs == kUndefinedIndexValue) {
          throw RuntimeError(
              "where clause compares against an index with no value");
        }
      } else {
        rhs = eval_int_expr(where.rhs_const);
      }
      if (eval_cmp(where.op, lhs, rhs) == 0) {
        keep = false;
        break;
      }
    }
    if (keep) filtered.push_back(raw);
  }
  return filtered;
}

}  // namespace sia::sial
