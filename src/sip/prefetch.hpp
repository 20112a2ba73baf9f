// Look-ahead block prefetching.
//
// "The SIP looks ahead and requests several blocks that it expects will
// soon be needed, thus overlapping communication and computation" (paper
// §V-A). Given a get/request operand and the loop nest it executes in,
// this module predicts the block ids of the next few iterations: for a
// sequential do loop by advancing the loop index, for a pardo by walking
// the remaining positions of the worker's current chunk.
//
// The depth is a runtime knob (SipConfig::prefetch_depth); the BlueGene/P
// tuning anecdote of §VI-A — prefetched blocks arriving too early and
// thrashing the cache — is reproduced by raising it against a small cache
// (bench/ablation_bgp_tuning).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "block/block_id.hpp"
#include "sial/program.hpp"

namespace sia::sip {

// One enclosing loop, innermost first.
struct LoopContext {
  bool is_pardo = false;
  // Sequential do loop.
  int index_id = -1;
  long current = 0;
  long last = 0;
  // Pardo chunk.
  const sial::PardoInfo* pardo = nullptr;
  const std::vector<std::int64_t>* filtered = nullptr;
  std::int64_t next_pos = 0;  // first not-yet-started position
  std::int64_t end_pos = 0;   // end of the current chunk
};

// Block ids the operand will select in the next `depth` iterations of the
// innermost enclosing loop that drives it. Empty if no loop drives the
// operand or depth == 0.
std::vector<BlockId> prefetch_candidates(
    const sial::ResolvedProgram& program, const sial::BlockOperand& operand,
    std::span<const long> index_values,
    std::span<const LoopContext> loops, int depth);

}  // namespace sia::sip
