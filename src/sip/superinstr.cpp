#include "sip/superinstr.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <utility>

#include "blas/contraction_plan.hpp"
#include "blas/elementwise.hpp"
#include "blas/gemm.hpp"
#include "blas/permute.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace sia::sip {
namespace {

// Positions of `ids` (by value) inside `other`; -1 when absent.
int find_id(std::span<const int> ids, int id) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == id) return static_cast<int>(i);
  }
  return -1;
}

// Regression tripwire: counts full-block permute copies of A/B operands
// materialized by block_contract. The gather-packing engine reads permuted
// operands directly during GEMM packing, so this must stay zero; any
// future fallback that re-introduces an operand transpose pass must bump
// it so tests catch the regression.
std::atomic<std::uint64_t> g_operand_permutes{0};

// Block kernels skipped by norm screening (contractions, dots, permuted
// accumulates). Pool threads bump this concurrently.
std::atomic<std::uint64_t> g_kernels_screened{0};

bool shares_storage(const Block& x, const Block& y) {
  const std::span<const double> xs = x.data();
  const std::span<const double> ys = y.data();
  const std::less<const double*> before;
  return before(xs.data(), ys.data() + ys.size()) &&
         before(ys.data(), xs.data() + xs.size());
}

// Copies `src` into `slot`, in pool memory when a pool is given.
const double* stage_copy(const Block& src, BlockPool* pool,
                         std::optional<Block>& slot) {
  if (pool != nullptr) {
    slot.emplace(src.shape(), pool->allocate(src.size()));
  } else {
    slot.emplace(src.shape());
  }
  std::copy(src.data().begin(), src.data().end(), slot->data().begin());
  return std::as_const(*slot).data().data();
}

}  // namespace

std::uint64_t contract_operand_permute_count() {
  return g_operand_permutes.load(std::memory_order_relaxed);
}

std::uint64_t kernels_screened_count() {
  return g_kernels_screened.load(std::memory_order_relaxed);
}

void block_contract(Block& dst, std::span<const int> dst_ids, const Block& a,
                    std::span<const int> a_ids, const Block& b,
                    std::span<const int> b_ids, bool accumulate,
                    double screen_threshold, BlockPool* pool) {
  if (screen_threshold > 0.0 && a.norm() * b.norm() < screen_threshold) {
    // ||A x B||_F <= ||A||_F * ||B||_F < threshold: the whole product is
    // screened out without reading either operand's data.
    g_kernels_screened.fetch_add(1, std::memory_order_relaxed);
    if (!accumulate) {
      std::fill(dst.data().begin(), dst.data().end(), 0.0);
    }
    return;
  }
  // All symbolic analysis (axis partition, offset tables, operand order)
  // is memoized per worker; inside a pardo the same shaped contraction
  // repeats thousands of times and hits the cache.
  const blas::ContractionPlan& plan = blas::thread_plan_cache().get(
      dst_ids, a_ids, b_ids, a.shape().extents(), b.shape().extents());

  // The GEMM writes dst while it still reads the operands, so an operand
  // that shares storage with dst (t(i,j) = t(i,k) * y(k,j) at j == k) is
  // read from a copy.
  std::optional<Block> a_copy, b_copy;
  const double* a_ptr = a.data().data();
  const double* b_ptr = b.data().data();
  if (shares_storage(dst, a)) a_ptr = stage_copy(a, pool, a_copy);
  if (shares_storage(dst, b)) b_ptr = stage_copy(b, pool, b_copy);
  if (plan.swapped) std::swap(a_ptr, b_ptr);
  blas::dgemm_gather(1.0, a_ptr, plan.lhs, b_ptr, plan.rhs,
                     accumulate ? 1.0 : 0.0, dst.data().data(), plan.dst);
}

double block_dot(const Block& a, std::span<const int> a_ids, const Block& b,
                 std::span<const int> b_ids, double screen_threshold) {
  if (a_ids.size() != b_ids.size()) {
    throw RuntimeError("block_dot: rank mismatch");
  }
  if (screen_threshold > 0.0 && a.norm() * b.norm() < screen_threshold) {
    // |<a, b>| <= ||a|| * ||b|| < threshold (Cauchy–Schwarz).
    g_kernels_screened.fetch_add(1, std::memory_order_relaxed);
    return 0.0;
  }
  // A full contraction is a contraction plan with an empty destination:
  // every id must be shared, m == n == 1, and b_row_off gathers b in a's
  // element order. The plan cache makes repeated dots (residual norms in
  // iterative solvers) pay for the analysis once.
  static const std::vector<int> kNoIds;
  const blas::ContractionPlan& plan = blas::thread_plan_cache().get(
      kNoIds, a_ids, b_ids, a.shape().extents(), b.shape().extents());
  if (plan.rhs.row_run == plan.rhs.row_off.size()) {
    return blas::dot(a.data(), b.data());
  }
  return blas::dot_gather(a.data(), b.data().data(), plan.rhs.row_off.data());
}

namespace {

// Permutation taking src into dst's id order: perm[d] = src axis of
// dst_ids[d].
std::vector<int> perm_to_dst(std::span<const int> dst_ids,
                             std::span<const int> src_ids) {
  SIA_CHECK(dst_ids.size() == src_ids.size(), "permute: rank mismatch");
  std::vector<int> perm(dst_ids.size());
  for (std::size_t d = 0; d < dst_ids.size(); ++d) {
    const int pos = find_id(src_ids, dst_ids[d]);
    if (pos < 0) {
      throw RuntimeError("block assignment: operand index sets differ");
    }
    perm[d] = pos;
  }
  return perm;
}

}  // namespace

void block_copy_permute(Block& dst, std::span<const int> dst_ids,
                        const Block& src, std::span<const int> src_ids,
                        CopyMode mode, double screen_threshold) {
  if (screen_threshold > 0.0 && mode != CopyMode::kAssign &&
      src.norm() < screen_threshold) {
    // Accumulating a below-threshold source is screened out; assign mode
    // still copies because dst must be defined afterwards.
    g_kernels_screened.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::vector<int> perm = perm_to_dst(dst_ids, src_ids);
  const std::vector<int> src_dims(src.shape().extents().begin(),
                                  src.shape().extents().end());
  SIA_CHECK(dst.size() == src.size(), "block copy: size mismatch");
  switch (mode) {
    case CopyMode::kAssign:
      blas::permute(src.data().data(), src_dims, perm, dst.data().data());
      return;
    case CopyMode::kAccumulate:
      blas::permute_acc(src.data().data(), src_dims, perm,
                        dst.data().data());
      return;
    case CopyMode::kSubtract: {
      thread_local std::vector<double> buf;
      buf.resize(src.size());
      blas::permute(src.data().data(), src_dims, perm, buf.data());
      blas::axpy(-1.0, {buf.data(), buf.size()}, dst.data());
      return;
    }
  }
}

void block_add(Block& dst, std::span<const int> dst_ids, const Block& a,
               std::span<const int> a_ids, const Block& b,
               std::span<const int> b_ids, bool subtract, bool accumulate) {
  // dst (op)= perm(a) +/- perm(b).
  if (!accumulate) {
    block_copy_permute(dst, dst_ids, a, a_ids, CopyMode::kAssign);
  } else {
    block_copy_permute(dst, dst_ids, a, a_ids, CopyMode::kAccumulate);
  }
  block_copy_permute(dst, dst_ids, b, b_ids,
                     subtract ? CopyMode::kSubtract : CopyMode::kAccumulate);
}

// ---------------------------------------------------------------------
// Context and registry.

const ExecArgValue& SuperInstructionContext::arg(int i) const {
  if (i < 0 || i >= num_args()) {
    throw RuntimeError("super instruction argument index out of range");
  }
  return args_[static_cast<std::size_t>(i)];
}

ExecArgValue& SuperInstructionContext::arg(int i) {
  if (i < 0 || i >= num_args()) {
    throw RuntimeError("super instruction argument index out of range");
  }
  return args_[static_cast<std::size_t>(i)];
}

Block& SuperInstructionContext::block_arg(int i) {
  ExecArgValue& value = arg(i);
  if (value.kind != sial::ExecOperand::Kind::kBlock || !value.block) {
    throw RuntimeError("super instruction argument is not a block");
  }
  return *value.block;
}

const sial::BlockSelector& SuperInstructionContext::selector(int i) const {
  const ExecArgValue& value = arg(i);
  if (value.kind != sial::ExecOperand::Kind::kBlock) {
    throw RuntimeError("super instruction argument is not a block");
  }
  return value.selector;
}

double& SuperInstructionContext::scalar_arg(int i) {
  ExecArgValue& value = arg(i);
  if (value.kind != sial::ExecOperand::Kind::kScalar ||
      value.scalar == nullptr) {
    throw RuntimeError("super instruction argument is not a scalar");
  }
  return *value.scalar;
}

double SuperInstructionContext::number_arg(int i) const {
  const ExecArgValue& value = arg(i);
  if (value.kind == sial::ExecOperand::Kind::kNumber) return value.number;
  if (value.kind == sial::ExecOperand::Kind::kScalar &&
      value.scalar != nullptr) {
    return *value.scalar;
  }
  throw RuntimeError("super instruction argument is not a number");
}

long SuperInstructionContext::first_element(int i, int d) const {
  const sial::BlockSelector& sel = selector(i);
  if (d < 0 || d >= sel.rank) {
    throw RuntimeError("first_element: dimension out of range");
  }
  return sel.first_element[static_cast<std::size_t>(d)];
}

SuperInstructionRegistry& SuperInstructionRegistry::global() {
  static SuperInstructionRegistry registry;
  return registry;
}

void SuperInstructionRegistry::register_instruction(const std::string& name,
                                                    SuperInstructionFn fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  table_[name] = std::move(fn);
}

const SuperInstructionFn* SuperInstructionRegistry::lookup(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = table_.find(name);
  return it == table_.end() ? nullptr : &it->second;
}

std::vector<std::string> SuperInstructionRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(table_.size());
  for (const auto& [name, fn] : table_) names.push_back(name);
  return names;
}

// ---------------------------------------------------------------------
// Built-ins.

namespace {

// Iterates a block's elements together with their absolute coordinates.
template <typename Fn>
void for_each_element(SuperInstructionContext& ctx, int arg, Fn&& fn) {
  Block& block = ctx.block_arg(arg);
  const sial::BlockSelector& sel = ctx.selector(arg);
  const int rank = sel.rank;
  std::array<int, blas::kMaxRank> counter{};
  auto data = block.data();
  std::array<long, blas::kMaxRank> coords{};
  for (std::size_t n = 0; n < data.size(); ++n) {
    for (int d = 0; d < rank; ++d) {
      coords[static_cast<std::size_t>(d)] =
          sel.first_element[static_cast<std::size_t>(d)] +
          counter[static_cast<std::size_t>(d)];
    }
    fn(data[n], std::span<const long>(coords.data(),
                                      static_cast<std::size_t>(rank)));
    for (int d = rank - 1; d >= 0; --d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (++counter[ud] < sel.extents[ud]) break;
      counter[ud] = 0;
    }
  }
}

void builtin_fill_value(SuperInstructionContext& ctx) {
  blas::fill(ctx.block_arg(0).data(), ctx.number_arg(1));
}

void builtin_fill_coords(SuperInstructionContext& ctx) {
  for_each_element(ctx, 0, [](double& value, std::span<const long> coords) {
    double code = 0.0;
    for (const long c : coords) code = code * 100.0 + static_cast<double>(c);
    value = code;
  });
}

void builtin_random_block(SuperInstructionContext& ctx) {
  const auto seed = static_cast<std::uint64_t>(ctx.number_arg(1));
  for_each_element(ctx, 0,
                   [seed](double& value, std::span<const long> coords) {
                     std::uint64_t key = seed;
                     for (const long c : coords) {
                       key = hash_combine(key, static_cast<std::uint64_t>(c));
                     }
                     value = 2.0 * unit_double(key) - 1.0;
                   });
}

void builtin_fill_decay(SuperInstructionContext& ctx) {
  // Deterministic pseudo-random fill with banded block-norm decay:
  // element = random(coords) * exp(-rate * |c0 - c_mid|), where c_mid is
  // the coordinate of dimension rank/2. Off-band blocks fall off
  // exponentially in norm, which is the block-sparsity structure of
  // screened-Fock / local-correlation workloads: screening with any
  // threshold keeps a diagonal band and drops the rest.
  const double rate = ctx.number_arg(1);
  const auto seed = static_cast<std::uint64_t>(ctx.number_arg(2));
  const std::size_t mid =
      static_cast<std::size_t>(ctx.selector(0).rank) / 2;
  for_each_element(
      ctx, 0, [rate, seed, mid](double& value, std::span<const long> coords) {
        std::uint64_t key = seed;
        for (const long c : coords) {
          key = hash_combine(key, static_cast<std::uint64_t>(c));
        }
        // Rank 1 has no second band coordinate; decay from the range
        // start instead so 1-D sparse arrays still screen.
        const long band = mid == 0 ? coords[0] - 1 : coords[0] - coords[mid];
        const double off = static_cast<double>(band < 0 ? -band : band);
        value = (2.0 * unit_double(key) - 1.0) * std::exp(-rate * off);
      });
}

void builtin_block_nrm2(SuperInstructionContext& ctx) {
  ctx.scalar_arg(1) = blas::nrm2(ctx.block_arg(0).data());
}

void builtin_block_asum(SuperInstructionContext& ctx) {
  ctx.scalar_arg(1) = blas::asum(ctx.block_arg(0).data());
}

void builtin_block_max_abs(SuperInstructionContext& ctx) {
  ctx.scalar_arg(1) = blas::max_abs(ctx.block_arg(0).data());
}

void builtin_print_block_norm(SuperInstructionContext& ctx) {
  std::printf("[sial] block norm = %.12g\n",
              blas::nrm2(ctx.block_arg(0).data()));
  std::fflush(stdout);
}

}  // namespace

void register_builtin_superinstructions() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto& registry = SuperInstructionRegistry::global();
    registry.register_instruction("fill_value", builtin_fill_value);
    registry.register_instruction("fill_coords", builtin_fill_coords);
    registry.register_instruction("random_block", builtin_random_block);
    registry.register_instruction("fill_decay", builtin_fill_decay);
    registry.register_instruction("block_nrm2", builtin_block_nrm2);
    registry.register_instruction("block_asum", builtin_block_asum);
    registry.register_instruction("block_max_abs", builtin_block_max_abs);
    registry.register_instruction("print_block_norm",
                                  builtin_print_block_norm);
  });
}

}  // namespace sia::sip
