#include "blas/contraction_plan.hpp"

#include <algorithm>
#include <array>
#include <atomic>

#include "blas/permute.hpp"
#include "common/error.hpp"

namespace sia::blas {
namespace {

std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_misses{0};

int find_id(std::span<const int> ids, int id) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == id) return static_cast<int>(i);
  }
  return -1;
}

// Row-major strides (last index fastest).
std::array<std::size_t, kMaxRank> strides_of(std::span<const int> dims) {
  std::array<std::size_t, kMaxRank> strides{};
  std::size_t stride = 1;
  for (int d = static_cast<int>(dims.size()) - 1; d >= 0; --d) {
    strides[static_cast<std::size_t>(d)] = stride;
    stride *= static_cast<std::size_t>(dims[static_cast<std::size_t>(d)]);
  }
  return strides;
}

// Offsets of every multi-index over the axis subset `axes` (in that
// order, last entry fastest), using the source tensor's strides. Because
// row-major offsets are additive over disjoint axis groups, the offset of
// a full element is the sum of its group offsets — which is what lets the
// GEMM address a permuted tensor through two 1-D tables.
std::vector<std::size_t> axis_offsets(std::span<const int> axes,
                                      std::span<const int> dims,
                                      const std::array<std::size_t, kMaxRank>&
                                          strides) {
  std::size_t total = 1;
  for (const int axis : axes) {
    total *= static_cast<std::size_t>(dims[static_cast<std::size_t>(axis)]);
  }
  std::vector<std::size_t> offsets(total);
  std::array<int, kMaxRank> counter{};
  std::size_t offset = 0;
  for (std::size_t idx = 0; idx < total; ++idx) {
    offsets[idx] = offset;
    for (int d = static_cast<int>(axes.size()) - 1; d >= 0; --d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      const std::size_t axis = static_cast<std::size_t>(axes[ud]);
      offset += strides[axis];
      if (++counter[ud] < dims[axis]) break;
      offset -= strides[axis] * static_cast<std::size_t>(dims[axis]);
      counter[ud] = 0;
    }
  }
  return offsets;
}

}  // namespace

ContractionPlan build_contraction_plan(std::span<const int> dst_ids,
                                       std::span<const int> a_ids,
                                       std::span<const int> b_ids,
                                       std::span<const int> a_dims,
                                       std::span<const int> b_dims) {
  if (a_ids.size() != a_dims.size() || b_ids.size() != b_dims.size()) {
    throw RuntimeError("contraction plan: id/extent rank mismatch");
  }
  if (std::max({a_ids.size(), b_ids.size(), dst_ids.size()}) >
      static_cast<std::size_t>(kMaxRank)) {
    throw RuntimeError("contraction plan: rank above kMaxRank");
  }
  const int a_rank = static_cast<int>(a_ids.size());
  const int b_rank = static_cast<int>(b_ids.size());

  // a's contracted axes in a's order, and b's in the same order.
  std::vector<int> a_common, b_common;
  std::size_t a_free_count = 0;
  for (int d = 0; d < a_rank; ++d) {
    const int in_b = find_id(b_ids, a_ids[static_cast<std::size_t>(d)]);
    if (in_b < 0) {
      ++a_free_count;
      continue;
    }
    a_common.push_back(d);
    b_common.push_back(in_b);
    if (a_dims[static_cast<std::size_t>(d)] !=
        b_dims[static_cast<std::size_t>(in_b)]) {
      throw RuntimeError("contraction extent mismatch along a shared index");
    }
  }
  const std::size_t b_free_count =
      static_cast<std::size_t>(b_rank) - b_common.size();
  if (a_free_count + b_free_count != dst_ids.size()) {
    throw RuntimeError(
        "contraction destination rank does not match the free index set");
  }

  // Each operand's free axes in dst order, with their dst positions.
  std::vector<int> a_free, a_at, b_free, b_at;
  std::vector<int> dst_dims(dst_ids.size());
  for (std::size_t d = 0; d < dst_ids.size(); ++d) {
    const int in_a = find_id(a_ids, dst_ids[d]);
    const int in_b = find_id(b_ids, dst_ids[d]);
    if ((in_a < 0) == (in_b < 0)) {
      throw RuntimeError("contraction destination index not produced");
    }
    const bool from_a = in_a >= 0;
    (from_a ? a_free : b_free).push_back(from_a ? in_a : in_b);
    (from_a ? a_at : b_at).push_back(static_cast<int>(d));
    dst_dims[d] = from_a ? a_dims[static_cast<std::size_t>(in_a)]
                         : b_dims[static_cast<std::size_t>(in_b)];
  }
  if (a_free.size() != a_free_count) {
    throw RuntimeError("contraction destination repeats an index");
  }

  const auto a_strides = strides_of(a_dims);
  const auto b_strides = strides_of(b_dims);
  const auto dst_strides = strides_of(dst_dims);
  std::vector<std::size_t> a_rows = axis_offsets(a_free, a_dims, a_strides);
  std::vector<std::size_t> a_k = axis_offsets(a_common, a_dims, a_strides);
  std::vector<std::size_t> b_k = axis_offsets(b_common, b_dims, b_strides);
  std::vector<std::size_t> b_cols = axis_offsets(b_free, b_dims, b_strides);
  std::vector<std::size_t> dst_a = axis_offsets(a_at, dst_dims, dst_strides);
  std::vector<std::size_t> dst_b = axis_offsets(b_at, dst_dims, dst_strides);

  // Swapping only when both GEMM dimensions exceed 1 keeps the choice of
  // path independent of dst's order: the GEMM has one column exactly when
  // b's free extents multiply to 1.
  ContractionPlan plan;
  plan.swapped = a_rows.size() > 1 && b_cols.size() > 1 &&
                 a_at.back() == static_cast<int>(dst_ids.size()) - 1;
  if (plan.swapped) {
    plan.lhs = make_gather_tables(std::move(b_cols), std::move(b_k));
    plan.rhs = make_gather_tables(std::move(a_k), std::move(a_rows));
    plan.dst = make_gather_tables(std::move(dst_b), std::move(dst_a));
  } else {
    plan.lhs = make_gather_tables(std::move(a_rows), std::move(a_k));
    plan.rhs = make_gather_tables(std::move(b_k), std::move(b_cols));
    plan.dst = make_gather_tables(std::move(dst_a), std::move(dst_b));
  }
  return plan;
}

std::size_t ContractionPlanCache::KeyHash::operator()(
    const std::vector<int>& key) const {
  // FNV-1a over the int sequence.
  std::uint64_t hash = 1469598103934665603ULL;
  for (const int value : key) {
    hash ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(value));
    hash *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(hash);
}

const ContractionPlan& ContractionPlanCache::get(std::span<const int> dst_ids,
                                                 std::span<const int> a_ids,
                                                 std::span<const int> b_ids,
                                                 std::span<const int> a_dims,
                                                 std::span<const int> b_dims) {
  std::vector<int>& key = scratch_key_;
  key.clear();
  key.reserve(3 + dst_ids.size() + 2 * (a_ids.size() + b_ids.size()));
  key.push_back(static_cast<int>(dst_ids.size()));
  key.push_back(static_cast<int>(a_ids.size()));
  key.push_back(static_cast<int>(b_ids.size()));
  key.insert(key.end(), dst_ids.begin(), dst_ids.end());
  key.insert(key.end(), a_ids.begin(), a_ids.end());
  key.insert(key.end(), b_ids.begin(), b_ids.end());
  key.insert(key.end(), a_dims.begin(), a_dims.end());
  key.insert(key.end(), b_dims.begin(), b_dims.end());

  const auto it = plans_.find(key);
  if (it != plans_.end()) {
    g_hits.fetch_add(1, std::memory_order_relaxed);
    return *it->second;
  }
  g_misses.fetch_add(1, std::memory_order_relaxed);
  auto plan = std::make_unique<ContractionPlan>(
      build_contraction_plan(dst_ids, a_ids, b_ids, a_dims, b_dims));
  const ContractionPlan& ref = *plan;
  plans_.emplace(key, std::move(plan));
  return ref;
}

ContractionPlanCache& thread_plan_cache() {
  thread_local ContractionPlanCache cache;
  return cache;
}

PlanCacheStats plan_cache_stats() {
  PlanCacheStats stats;
  stats.hits = g_hits.load(std::memory_order_relaxed);
  stats.misses = g_misses.load(std::memory_order_relaxed);
  return stats;
}

void reset_plan_cache_stats() {
  g_hits.store(0, std::memory_order_relaxed);
  g_misses.store(0, std::memory_order_relaxed);
}

}  // namespace sia::blas
