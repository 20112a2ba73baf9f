// Dense matrix multiply kernels.
//
// The SIP's computational super instructions "should be implemented as
// efficiently as possible on the given platform ... taking advantage of
// high quality implementations of library routines such as DGEMM" (paper
// §V-A). No vendor BLAS is available here, so this is our DGEMM: a cache-
// blocked, register-tiled kernel with a runtime-dispatched micro-kernel.
// Dispatch takes the first kernel the CPU supports, in this order:
// AVX-512 6x32, AVX2/FMA 6x8, portable 4x8.
//
// One rounding rule for the blocked path: each C element is one FMA chain
// from zero per KC slab of the contracted dimension (KC = 256), taken in
// K order, and each slab's chain is added into C in turn (with beta == 0
// the first slab's chain is stored, which is the same value). The SIMD
// kernels follow it whatever the tile, so they agree bit for bit; the
// portable kernel multiplies and adds separately and agrees to rounding.
// Products under 32^3 flops skip packing: a direct loop rounds each
// product and adds it straight into C, in K order.
//
// Every matrix, C included, is addressed through offset tables
// (GatherTables): element (r, q) sits at row_off[r] + col_off[q]. Because
// a row-major tensor offset is additive over disjoint axis groups, any
// matricized view of a permuted tensor is two such tables, so block
// contractions fold operand and destination permutations into the GEMM
// (paper §III, footnote 3): packing reads the operands in permuted order
// and the micro-kernel stores each vector of its tile straight into the
// destination block. Each table records the length of its aligned
// unit-stride runs; packing copies along runs instead of looking up
// every element, and a tile is stored directly when every vector of it
// falls inside one run of C's column table (else it goes through a
// scratch tile and a scalar scatter).
//
// Matrix-vector products (n == 1) skip the blocked driver, which would pad
// the vector to a full micro-tile: the vector is gathered once and each
// row of A is dotted with it using several independent partial sums. That
// path does not depend on the micro-kernel and has its own rounding.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

namespace sia::blas {

// Offset tables of one matrix: element (r, q) is base[row_off[r] +
// col_off[q]]. row_run and col_run are unit_run() of the tables.
struct GatherTables {
  std::vector<std::size_t> row_off;
  std::vector<std::size_t> col_off;
  std::size_t row_run = 1;
  std::size_t col_run = 1;
};

// Length R of the aligned unit-stride runs of `off`: within every block
// [t*R, t*R + R) the offsets are consecutive. 1 when there are none; the
// table's length when the whole table is consecutive.
std::size_t unit_run(std::span<const std::size_t> off);

// Builds tables and their run lengths.
GatherTables make_gather_tables(std::vector<std::size_t> row_off,
                                std::vector<std::size_t> col_off);

// C = alpha * A * B + beta * C with every matrix read or written through
// its tables: A is m x k, B is k x n and C is m x n, where m, k and n are
// the table lengths. C must not share storage with A or B.
void dgemm_gather(double alpha, const double* a, const GatherTables& at,
                  const double* b, const GatherTables& bt, double beta,
                  double* c, const GatherTables& ct);

// C (m x n) = alpha * A (m x k) * B (k x n) + beta * C.
// All matrices are dense row-major with the given leading dimensions
// (elements per row). Aliasing between C and A/B is not allowed.
void dgemm(std::size_t m, std::size_t n, std::size_t k, double alpha,
           const double* a, std::size_t lda, const double* b, std::size_t ldb,
           double beta, double* c, std::size_t ldc);

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
