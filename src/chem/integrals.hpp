// Deterministic synthetic electronic-structure data.
//
// The paper's runtime computes blocks of two-electron integrals on demand
// instead of storing the 8 TB array ("each block of V is computed on
// demand using the intrinsic super instruction compute_integrals", §IV-D).
// We reproduce the data-flow exactly with a synthetic integral: a smooth,
// rapidly decaying, permutation-symmetric function of the global orbital
// indices. It is physically meaningless but has the right structure —
// computable per element from global coordinates, symmetric under
// (p<->q), (r<->s) and (pq)<->(rs), and decaying off-diagonal so iterative
// amplitude equations converge.
//
// This header also registers the chem super instructions with the SIP:
//   compute_integrals  V(p,q,r,s)        fill a rank-4 integral block
//   compute_core_h     H(p,q)            fill a rank-2 core-Hamiltonian
//   compute_density    D(p,q)            fill a rank-2 model density
//   mp2_block_energy   V1 V2 esum        accumulate an MP2 pair energy
//   cc_update          T R               T = R / orbital-energy denominator
// All are pure functions of absolute coordinates, so every worker sees
// identical replicated data.
//
// Integral blocks are filled separably (fill_integral_block): the two
// exponentials depend only on p-q and on r-s, and the denominator only on
// the integer (p+q)-(r+s), so each block builds three small per-distance
// tables and its inner loop is one multiply and one divide per element.
// The tables hold exactly the subexpressions synthetic_integral computes,
// and the inner loop combines them in the same order, so every element is
// bit-identical to the per-element reference. cc_update does the same
// with per-axis tables of signed orbital energies, summed in coordinate
// order as denominator_from_coords does, and compute_core_h and
// compute_density read their exponential from a table by p-q.
//
// The inner rows of the integral fill and of cc_update run at AVX-512
// width (eight lanes of vmulpd/vaddpd/vdivpd) when the CPU has avx512f,
// picked once at run time like the GEMM micro-kernel, and as a portable
// loop otherwise. Both round every element exactly as the scalar
// reference does, so the choice never changes a result bit.
#pragma once

#include <span>
#include <string_view>

namespace sia::chem {

// Model orbital energy of 1-based orbital p. Occupied orbitals (p <=
// nocc) sit around -2, virtuals above +1; the gap keeps perturbative
// denominators well away from zero.
double orbital_energy(long p, long nocc);

// Synthetic two-electron integral (pq|rs), 1-based orbital indices.
double synthetic_integral(long p, long q, long r, long s);

// Fills `data` (row-major, last index fastest) with synthetic_integral
// over the rank-4 region of `extents` whose first element has 1-based
// coordinates `first`. Bit-identical to calling synthetic_integral per
// element.
void fill_integral_block(std::span<double> data, std::span<const int> extents,
                         std::span<const long> first);

// Name of the fill kernel in use: "avx512" or "portable". It is selected
// once, on first use, from runtime CPU features.
std::string_view fill_kernel_name();

// Forces the kernel behind fill_integral_block and divide_by_denominators:
// "portable", "avx512", or "auto" (redo CPU detection). Returns false, and
// leaves the selection unchanged, if this build or CPU lacks it. Intended
// for tests and benchmarks; not thread-safe against concurrent fills.
bool select_fill_kernel(std::string_view name);

// Synthetic one-electron (core) Hamiltonian element.
double synthetic_core_h(long p, long q);

// Synthetic density matrix element.
double synthetic_density(long p, long q);

// MP2 denominator for excitation (i,j) -> (a,b).
double mp2_denominator(long i, long a, long j, long b, long nocc);

// Orientation-independent denominator: occupied orbitals (p <= nocc)
// enter with +eps, virtuals with -eps, so any index order of a doubles
// amplitude block yields the same value.
double denominator_from_coords(std::span<const long> coords, long nocc);

// t = r / denominator over the rank-4 region of `extents` whose first
// element has 1-based coordinates `first` (the cc_update body).
// Bit-identical to dividing each element by denominator_from_coords.
void divide_by_denominators(std::span<double> t, std::span<const double> r,
                            std::span<const int> extents,
                            std::span<const long> first, long nocc);

// Registers the chem super instructions (idempotent). The number of
// occupied orbitals is read from the SIAL program's `nocc` constant via
// the context, so callers pass it once per program, not per call:
// instructions that need it take it as an explicit scalar/number
// argument in SIAL (see programs.cpp).
void register_chem_superinstructions();

}  // namespace sia::chem
