// Super instructions.
//
// Computational super instructions "simply take blocks as input and
// generate new blocks as output and do not involve communication" (paper
// §I). This module has three parts:
//   1. the intrinsic block kernels behind SIAL's built-in operators —
//      block contraction (DGEMM over permuted views, §III footnote 3),
//      permuted copy/accumulate, element-wise add/sub, full-contraction
//      dot;
//   2. the registry for user-defined super instructions invoked with
//      `execute` ("non-intrinsic super instructions can be added to the
//      SIP without changing the SIAL language", §IV-C);
//   3. a set of generally useful built-ins (fills, norms, prints).
//
// Kernel operands carry their index-variable ids per dimension; dimension
// identity IS index-variable identity, which is how the contraction
// planner knows what to contract.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "block/block.hpp"
#include "sial/program.hpp"

namespace sia::sip {

// ---------------------------------------------------------------------
// Intrinsic kernels.

enum class CopyMode { kAssign = 0, kAccumulate = 1, kSubtract = 2 };

// dst(dst_ids) = / += contraction of a(a_ids) with b(b_ids) over the index
// ids common to a and b. dst_ids must be exactly the non-common ids (any
// order). An empty common set is an outer product. The product is one GEMM
// pass that writes straight into dst, rounded as gemm.hpp states. dst may
// be a or b: an operand that shares dst's storage is first copied, into
// `pool` when one is given.
//
// With screen_threshold > 0 the GEMM is skipped outright when
// ||A||_F * ||B||_F < threshold (submultiplicativity bounds the dropped
// contribution's Frobenius norm by that product): accumulate mode is a
// no-op, assign mode zero-fills dst. The cached block norms make the test
// O(1) per call.
void block_contract(Block& dst, std::span<const int> dst_ids, const Block& a,
                    std::span<const int> a_ids, const Block& b,
                    std::span<const int> b_ids, bool accumulate,
                    double screen_threshold = 0.0, BlockPool* pool = nullptr);

// Full contraction of two blocks over identical id sets -> scalar.
// With screen_threshold > 0, returns 0 without touching the data when
// ||a|| * ||b|| < threshold (Cauchy–Schwarz bounds the dropped value).
double block_dot(const Block& a, std::span<const int> a_ids, const Block& b,
                 std::span<const int> b_ids, double screen_threshold = 0.0);

// Test hook: number of full-block permute copies of A/B operands that
// block_contract has materialized since process start. The gather-packing
// contraction engine folds operand transposes into GEMM packing, so this
// stays zero; tests assert on it to catch regressions.
std::uint64_t contract_operand_permute_count();

// Number of block kernels (contractions, dots, permuted accumulates)
// skipped by norm screening since process start.
std::uint64_t kernels_screened_count();

// dst(dst_ids) op= src(src_ids) with permutation derived from the ids.
// With screen_threshold > 0, accumulate/subtract of a source block with
// ||src|| < threshold is skipped (assign still copies: dst must be
// defined afterwards).
void block_copy_permute(Block& dst, std::span<const int> dst_ids,
                        const Block& src, std::span<const int> src_ids,
                        CopyMode mode, double screen_threshold = 0.0);

// dst(dst_ids) =/+= a(a_ids) +/- b(b_ids), all over the same id set.
void block_add(Block& dst, std::span<const int> dst_ids, const Block& a,
               std::span<const int> a_ids, const Block& b,
               std::span<const int> b_ids, bool subtract, bool accumulate);

// ---------------------------------------------------------------------
// User-defined super instructions.

// One prepared argument of an `execute` call.
struct ExecArgValue {
  sial::ExecOperand::Kind kind = sial::ExecOperand::Kind::kNumber;
  // kBlock: the working block (writable) and its selector. If the operand
  // was sliced the block is a scratch copy that the interpreter writes
  // back afterwards.
  BlockPtr block;
  sial::BlockSelector selector;
  double* scalar = nullptr;  // kScalar: points at the worker's slot
  std::string text;          // kString
  double number = 0.0;       // kNumber
};

class SuperInstructionContext {
 public:
  SuperInstructionContext(const sial::ResolvedProgram& program,
                          std::vector<ExecArgValue>& args, int worker_index,
                          int num_workers)
      : program_(program), args_(args), worker_index_(worker_index),
        num_workers_(num_workers) {}

  int num_args() const { return static_cast<int>(args_.size()); }
  sial::ExecOperand::Kind arg_kind(int i) const { return arg(i).kind; }

  Block& block_arg(int i);
  const sial::BlockSelector& selector(int i) const;
  double& scalar_arg(int i);
  const std::string& string_arg(int i) const;
  double number_arg(int i) const;

  // Absolute (1-based) element coordinate of the first element of block
  // argument `i` along dimension `d`; with the extents this lets a super
  // instruction compute globally consistent values (the on-demand
  // integral generators rely on it).
  long first_element(int i, int d) const;

  const sial::ResolvedProgram& program() const { return program_; }
  int worker_index() const { return worker_index_; }
  int num_workers() const { return num_workers_; }

 private:
  const ExecArgValue& arg(int i) const;
  ExecArgValue& arg(int i);

  const sial::ResolvedProgram& program_;
  std::vector<ExecArgValue>& args_;
  int worker_index_;
  int num_workers_;
};

using SuperInstructionFn = std::function<void(SuperInstructionContext&)>;

class SuperInstructionRegistry {
 public:
  // Process-global registry (workers share it read-mostly).
  static SuperInstructionRegistry& global();

  // Registers or replaces a super instruction.
  void register_instruction(const std::string& name, SuperInstructionFn fn);
  // nullptr if unknown.
  const SuperInstructionFn* lookup(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, SuperInstructionFn> table_;
};

// Registers the built-in execute-able super instructions:
//   fill_value <block> <number>         every element := number
//   fill_coords <block>                 element := base-100 coordinate code
//   random_block <block> <number seed>  deterministic pseudo-random fill
//   fill_decay <block> <rate> <seed>    random fill damped by
//                                       exp(-rate*|c0 - c_mid|): banded
//                                       block-norm decay for sparsity
//   block_nrm2 <block> <scalar>         scalar := ||block||_2
//   block_asum <block> <scalar>         scalar := sum |elements|
//   block_max_abs <block> <scalar>      scalar := max |element|
//   print_block_norm <block>            prints the 2-norm
// Idempotent; called by the SIP launcher.
void register_builtin_superinstructions();

}  // namespace sia::sip
