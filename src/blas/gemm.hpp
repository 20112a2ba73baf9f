// Dense matrix multiply kernels.
//
// The SIP's computational super instructions "should be implemented as
// efficiently as possible on the given platform ... taking advantage of
// high quality implementations of library routines such as DGEMM" (paper
// §V-A). No vendor BLAS is available here, so this is our DGEMM: a cache-
// blocked, register-tiled, row-major kernel with a runtime-dispatched
// micro-kernel. Dispatch takes the first kernel the CPU supports, in this
// order: AVX-512 6x32, AVX2/FMA 6x8, portable 4x8. The SIMD kernels give
// bit-identical results: each C element is one FMA chain per KC slab of
// the contracted dimension, in the same packing order, whatever the tile.
//
// Matrix-vector products (n == 1) skip the blocked driver, which would pad
// the vector to a full micro-tile: the vector is gathered once and each
// row of A is dotted with it using several independent partial sums. That
// path does not depend on the micro-kernel.
//
// Two entry points share the dispatch:
//   * dgemm        — plain strided row-major operands;
//   * dgemm_gather — operands addressed through per-row/per-column offset
//     tables, so a tensor operand whose axes must be permuted before the
//     multiply is read in permuted order *during packing* instead of being
//     materialized by a separate transpose pass (transpose-aware packing).
// Block contractions reduce to dgemm_gather via a ContractionPlan
// (paper §III, footnote 3).
#pragma once

#include <cstddef>
#include <string_view>

namespace sia::blas {

// C (m x n) = alpha * A (m x k) * B (k x n) + beta * C.
// All matrices are dense row-major with the given leading dimensions
// (elements per row). Aliasing between C and A/B is not allowed.
void dgemm(std::size_t m, std::size_t n, std::size_t k, double alpha,
           const double* a, std::size_t lda, const double* b, std::size_t ldb,
           double beta, double* c, std::size_t ldc);

// As dgemm, but A and B are addressed through offset tables:
//   A(i, p) = a[a_row_off[i] + a_col_off[p]]
//   B(p, j) = b[b_row_off[p] + b_col_off[j]]
// Because a row-major tensor offset is additive over disjoint axis groups,
// any "matricized" view of a permuted tensor can be expressed this way;
// the tables are built once per contraction plan and the transpose is
// folded into panel packing. C is written densely (row-major, ldc).
void dgemm_gather(std::size_t m, std::size_t n, std::size_t k, double alpha,
                  const double* a, const std::size_t* a_row_off,
                  const std::size_t* a_col_off, const double* b,
                  const std::size_t* b_row_off, const std::size_t* b_col_off,
                  double beta, double* c, std::size_t ldc);

// Convenience overload for packed (ld == logical width) matrices.
inline void dgemm_packed(std::size_t m, std::size_t n, std::size_t k,
                         double alpha, const double* a, const double* b,
                         double beta, double* c) {
  dgemm(m, n, k, alpha, a, k, b, n, beta, c, n);
}

// Reference triple loop used by tests to validate the blocked kernel.
void dgemm_naive(std::size_t m, std::size_t n, std::size_t k, double alpha,
                 const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double beta, double* c, std::size_t ldc);

// Name of the micro-kernel currently in use ("avx512-6x32", "avx2-6x8",
// "portable-4x8"). The kernel is selected once, on first use, from
// runtime CPU features.
std::string_view gemm_kernel_name();

// Forces a specific micro-kernel: "portable", "avx2", "avx512", or "auto"
// (redo CPU detection). Returns false (and leaves the selection unchanged) if the
// requested kernel is not available on this build/CPU. Intended for tests
// and benchmarks; not thread-safe against concurrent dgemm calls.
bool select_gemm_kernel(std::string_view name);

}  // namespace sia::blas
