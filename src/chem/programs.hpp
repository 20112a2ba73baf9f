// SIAL programs for the chemistry workloads.
//
// These are the "application layer" of the reproduction: SIAL sources in
// the style of the paper's §IV-D example, parameterized through symbolic
// constants (norb, nocc, maxiter) that the SIP binds at initialization.
// Each has a dense single-threaded counterpart in reference.hpp used by
// the test suite (mirroring the paper's §VIII practice of writing two
// implementations and testing one against the other).
#pragma once

#include <string>

namespace sia::chem {

// The paper's §IV-D fragment: R(M,N,I,J) = sum_{L,S} V(M,N,L,S)*T(L,S,I,J)
// with V computed on demand and T/R distributed. Constants: norb, nocc.
std::string contraction_demo_source();

// MP2-like correlation energy with on-demand integrals.
// Constants: norb, nocc. Result scalar: e2.
std::string mp2_energy_source();

// CCD-like doubles iteration (particle-particle + hole-hole ladders) with
// distributed amplitudes, fixed iteration count.
// Constants: norb, nocc, maxiter. Result scalars: energy (correlation
// energy after maxiter iterations), rnorm2 (squared norm of the last
// amplitude update).
std::string ccd_energy_source();

// Closed-shell Fock-like matrix build from on-demand integrals and a
// model density. Constants: norb. Result scalar: fnorm (Frobenius norm).
std::string fock_build_source();

// Communication-bound stress program: phase 1 fills a distributed matrix
// with random blocks, phase 2 is a Gram-matrix-style sweep where every
// inner iteration issues two gets and accumulates into the same output
// block with put+= (the workload behind the zero-copy / put-coalescing
// benches). Constants: norb. Result scalar: cnorm2 (squared Frobenius
// norm of the output matrix).
std::string comm_storm_source();

// Disk-bound served-array stress: phase 1 prepares a norb x norb block
// matrix to the I/O servers, then `nsweeps` full read sweeps request every
// block back through a deliberately undersized server cache, and a final
// shared-read phase has every worker re-scan the first `nshared` rows so
// concurrent cold requests for the same block exercise in-flight read
// coalescing. Workload for the threaded disk service / look-ahead /
// write-behind benches; the checksum is integer-valued and bit-identical
// under any request order. Constants: norb, nsweeps, nshared (elements,
// <= norb). Result scalar: snorm2.
std::string io_storm_source();

// MP2-like two-phase program exercising served (disk-backed) arrays:
// phase 1 prepares amplitude blocks to a served array, phase 2 requests
// them back and contracts. Constants: norb, nocc. Result scalars: e2
// (same value as mp2_energy_source), tnorm2 (amplitude norm squared).
std::string mp2_served_source();

// Fock-like build over banded sparse operands: two `sparse distributed`
// matrices are filled with blocks whose Frobenius norm decays
// exponentially away from the diagonal (the `fill_decay` builtin), then
// F = D * G is contracted with fused accumulate. With sparse_threshold
// > 0 the runtime screens the far-off-diagonal blocks: puts are dropped
// at the sender, gets are answered header-only, and the norm-product test
// skips the GEMM for all but the near-diagonal block triples. At
// threshold 0 the run is bit-identical to the dense engine. Constants:
// norb (elements; band width tracks the segment size). Result scalar:
// fnorm2 (squared Frobenius norm of F).
std::string sparse_fock_source();

// MP2-like two-phase served workload with banded amplitudes: phase 1
// fills T(i,a,j,b) with blocks decaying in |i - j| and prepares them to
// the I/O servers (screened prepares carry only a header marker); phase
// 2 requests every block back (screened requests are answered header-only
// and read as the canonical zero block) and reduces e2 = sum T.T.
// Constants: norb, nocc. Result scalar: e2.
std::string sparse_mp2_source();

}  // namespace sia::chem
