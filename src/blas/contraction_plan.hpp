// Contraction planning and the per-worker plan cache.
//
// A block contraction dst(dst_ids) = a(a_ids) * b(b_ids) needs a fixed
// amount of symbolic analysis before any floating-point work: partition
// each operand's axes into free and contracted sets and build the offset
// tables through which one dgemm_gather pass reads both operands in
// permuted order and writes the product straight into dst in dst's own
// strides. Inside a `pardo` the same symbolic contraction executes
// thousands of times over identically-shaped blocks (the paper's segment
// grid makes shapes highly repetitive), so this analysis is memoized in a
// per-worker (thread-local) cache keyed on the id lists and extents.
//
// Operand order. When the free extents of both operands multiply to more
// than 1, the GEMM's column operand is the one holding dst's fastest
// (last) axis, so C's column table has unit-stride runs and the
// micro-kernel stores whole vectors into dst; the other operand supplies
// the rows. GEMM rows and columns follow dst's axis order. The contracted
// dimension K is always a's contracted axes in a's order, whichever
// operand supplies the rows, so the choice never changes a result bit.
// Otherwise the order is a then b, so b's free extents multiplying to 1
// (and only that) makes a matrix-vector product, whatever dst's order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "blas/gemm.hpp"

namespace sia::blas {

// Everything block_contract's one dgemm_gather pass needs, built once.
struct ContractionPlan {
  // True when b is the GEMM's row operand and a its column operand.
  bool swapped = false;
  // Row operand: rows are its free axes, columns the contracted axes.
  GatherTables lhs;
  // Column operand: rows are the contracted axes (in the same order as
  // lhs's columns), columns its free axes.
  GatherTables rhs;
  // The destination block, addressed with its own strides.
  GatherTables dst;
};

// Builds a plan from scratch. Throws RuntimeError on rank/extent
// mismatches or when dst_ids is not exactly the free id set. dst_ids may
// be empty (full contraction — block_dot): then lhs is a's whole block as
// one row and rhs.row_off gathers b in a's element order.
ContractionPlan build_contraction_plan(std::span<const int> dst_ids,
                                       std::span<const int> a_ids,
                                       std::span<const int> b_ids,
                                       std::span<const int> a_dims,
                                       std::span<const int> b_dims);

// Cumulative hit/miss counters, aggregated across all worker caches.
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

class ContractionPlanCache {
 public:
  // Returns the memoized plan, building it on first sight of the key
  // (dst_ids, a_ids, b_ids, a_dims, b_dims). The reference stays valid for
  // the cache's lifetime. Bumps the process-wide hit/miss counters.
  const ContractionPlan& get(std::span<const int> dst_ids,
                             std::span<const int> a_ids,
                             std::span<const int> b_ids,
                             std::span<const int> a_dims,
                             std::span<const int> b_dims);

  std::size_t size() const { return plans_.size(); }
  void clear() { plans_.clear(); }

 private:
  struct KeyHash {
    std::size_t operator()(const std::vector<int>& key) const;
  };
  std::unordered_map<std::vector<int>, std::unique_ptr<ContractionPlan>,
                     KeyHash>
      plans_;
  std::vector<int> scratch_key_;
};

// The calling thread's (i.e. SIP worker's) plan cache.
ContractionPlanCache& thread_plan_cache();

// Process-wide cache statistics (sum over every worker's cache) and reset,
// for tests and the profiler.
PlanCacheStats plan_cache_stats();
void reset_plan_cache_stats();

}  // namespace sia::blas
