#include "sip/data_manager.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sia::sip {

DataManager::DataManager(const sial::ResolvedProgram& program,
                         BlockPool& pool)
    : program_(program), pool_(pool) {
  index_values_.assign(program.indices().size(), sial::kUndefinedIndexValue);
  scalars_.assign(program.code().scalars.size(), 0.0);
}

BlockPtr DataManager::make_block(const BlockShape& shape) {
  auto block =
      std::make_shared<Block>(shape, pool_.allocate(shape.element_count()));
  account_add(shape.element_count());
  return block;
}

void DataManager::account_add(std::size_t doubles) {
  used_doubles_ += doubles;
  peak_doubles_ = std::max(peak_doubles_, used_doubles_);
}

void DataManager::account_remove(std::size_t doubles) {
  SIA_CHECK(used_doubles_ >= doubles, "local memory accounting underflow");
  used_doubles_ -= doubles;
}

bool DataManager::has_block(const BlockId& id) const {
  return blocks_.find(id) != blocks_.end();
}

BlockPtr DataManager::read_local_kind(const sial::BlockSelector& selector) {
  const sial::ResolvedArray& array = program_.array(selector.array_id);
  const BlockId id = selector.id();
  auto it = blocks_.find(id);
  if (it != blocks_.end()) return it->second;

  switch (array.kind) {
    case sial::ArrayKind::kStatic: {
      // Statics materialize zeroed on first touch and persist.
      BlockPtr block = make_block(selector.block_shape());
      blocks_.emplace(id, block);
      return block;
    }
    case sial::ArrayKind::kTemp:
      throw RuntimeError("temp block " + id.to_string() + " of '" +
                         array.name + "' read before being assigned");
    case sial::ArrayKind::kLocal:
      throw RuntimeError("local block " + id.to_string() + " of '" +
                         array.name + "' used before allocate");
    default:
      throw InternalError("read_local_kind on non-local array kind");
  }
}

BlockPtr DataManager::write_local_kind(const sial::BlockSelector& selector) {
  const sial::ResolvedArray& array = program_.array(selector.array_id);
  const BlockId id = selector.id();
  auto it = blocks_.find(id);
  if (it != blocks_.end()) return it->second;

  switch (array.kind) {
    case sial::ArrayKind::kStatic: {
      BlockPtr block = make_block(selector.block_shape());
      blocks_.emplace(id, block);
      return block;
    }
    case sial::ArrayKind::kTemp: {
      if (selector.sliced) {
        throw RuntimeError(
            "insertion into temp block " + id.to_string() + " of '" +
            array.name + "' requires the containing block to exist");
      }
      BlockPtr block = make_block(selector.block_shape());
      blocks_.emplace(id, block);
      temp_ids_.push_back(id);
      return block;
    }
    case sial::ArrayKind::kLocal:
      throw RuntimeError("local block " + id.to_string() + " of '" +
                         array.name + "' written before allocate");
    default:
      throw InternalError("write_local_kind on non-local array kind");
  }
}

void DataManager::allocate_local(int array_id, std::span<const int> lo,
                                 std::span<const int> hi) {
  const sial::ResolvedArray& array = program_.array(array_id);
  const int rank = array.rank();
  std::array<int, blas::kMaxRank> counter{};
  for (int d = 0; d < rank; ++d) counter[static_cast<std::size_t>(d)] = lo[static_cast<std::size_t>(d)];

  while (true) {
    const BlockId id(array_id,
                     {counter.data(), static_cast<std::size_t>(rank)});
    if (blocks_.find(id) != blocks_.end()) {
      throw RuntimeError("allocate: block " + id.to_string() + " of '" +
                         array.name + "' is already allocated");
    }
    const BlockShape shape = program_.grid_block_shape(
        array, {counter.data(), static_cast<std::size_t>(rank)});
    blocks_.emplace(id, make_block(shape));

    int d = rank - 1;
    for (; d >= 0; --d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (++counter[ud] <= hi[ud]) break;
      counter[ud] = lo[ud];
    }
    if (d < 0) break;
  }
}

void DataManager::deallocate_local(int array_id, std::span<const int> lo,
                                   std::span<const int> hi) {
  const sial::ResolvedArray& array = program_.array(array_id);
  const int rank = array.rank();
  std::array<int, blas::kMaxRank> counter{};
  for (int d = 0; d < rank; ++d) counter[static_cast<std::size_t>(d)] = lo[static_cast<std::size_t>(d)];

  while (true) {
    const BlockId id(array_id,
                     {counter.data(), static_cast<std::size_t>(rank)});
    auto it = blocks_.find(id);
    if (it != blocks_.end()) {
      account_remove(it->second->size());
      blocks_.erase(it);
    }
    int d = rank - 1;
    for (; d >= 0; --d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (++counter[ud] <= hi[ud]) break;
      counter[ud] = lo[ud];
    }
    if (d < 0) break;
  }
}

void DataManager::clear_temps() {
  for (const BlockId& id : temp_ids_) {
    auto it = blocks_.find(id);
    if (it != blocks_.end()) {
      account_remove(it->second->size());
      blocks_.erase(it);
    }
  }
  temp_ids_.clear();
}

}  // namespace sia::sip
