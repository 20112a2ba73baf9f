// Worker-local data: index values, scalars, and node-local array kinds.
//
// Static arrays are "small and replicated in all nodes"; temp and local
// arrays hold blocks of intermediate results on the node (paper §IV-A).
// This manager owns those three kinds plus the worker's view of index
// values and scalar variables. Distributed and served arrays live in
// their own managers because they involve communication.
#pragma once

#include <unordered_map>
#include <vector>

#include "block/block.hpp"
#include "block/block_id.hpp"
#include "block/block_pool.hpp"
#include "sial/program.hpp"

namespace sia::sip {

class DataManager {
 public:
  DataManager(const sial::ResolvedProgram& program, BlockPool& pool);

  // ------------------------------------------------------------------
  // Index values (absolute segment numbers).
  long index_value(int index_id) const {
    return index_values_[static_cast<std::size_t>(index_id)];
  }
  void set_index_value(int index_id, long value) {
    index_values_[static_cast<std::size_t>(index_id)] = value;
  }
  void clear_index_value(int index_id) {
    index_values_[static_cast<std::size_t>(index_id)] =
        sial::kUndefinedIndexValue;
  }
  std::span<const long> index_values() const { return index_values_; }

  // ------------------------------------------------------------------
  // Scalars.
  double scalar(int slot) const {
    return scalars_[static_cast<std::size_t>(slot)];
  }
  double& scalar_ref(int slot) { return scalars_[static_cast<std::size_t>(slot)]; }
  std::span<const double> scalars() const { return scalars_; }

  // ------------------------------------------------------------------
  // Node-local blocks (static / temp / local).

  // Reads the stored block for a selector; by-kind behaviour:
  //   static: created zeroed on first touch (replicated, accumulated into)
  //   temp:   must have been assigned in this pardo iteration, else error
  //   local:  must have been allocated, else error
  BlockPtr read_local_kind(const sial::BlockSelector& selector);

  // Returns the destination block for a write. For temps a missing block
  // is created (a plain assignment defines the temp); if `accumulating`
  // a missing temp is created zeroed so `+=` works after get-like flows.
  // For sliced writes the containing block must already exist for temps.
  BlockPtr write_local_kind(const sial::BlockSelector& selector);

  // True if the block currently exists.
  bool has_block(const BlockId& id) const;

  // allocate/deallocate for local arrays; `dim_lo/dim_hi` give the 1-based
  // grid range per dimension (wildcards expanded by the caller).
  void allocate_local(int array_id, std::span<const int> lo,
                      std::span<const int> hi);
  void deallocate_local(int array_id, std::span<const int> lo,
                        std::span<const int> hi);

  // Drops all temp blocks (called at each pardo iteration boundary).
  void clear_temps();

  // Peak node-local memory in doubles (statics + temps + locals).
  std::size_t peak_doubles() const { return peak_doubles_; }

 private:
  BlockPtr make_block(const BlockShape& shape);
  void account_add(std::size_t doubles);
  void account_remove(std::size_t doubles);

  const sial::ResolvedProgram& program_;
  BlockPool& pool_;
  std::vector<long> index_values_;
  std::vector<double> scalars_;
  // All node-local blocks in one map (array ids are globally unique).
  std::unordered_map<BlockId, BlockPtr, BlockIdHash> blocks_;
  // Ids of blocks belonging to temp arrays (for clear_temps).
  std::vector<BlockId> temp_ids_;
  std::size_t used_doubles_ = 0;
  std::size_t peak_doubles_ = 0;
};

}  // namespace sia::sip
