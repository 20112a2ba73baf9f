// Micro-benchmarks (google-benchmark) for the computational super
// instructions and the memory machinery: block contraction throughput by
// segment size (the paper's key tuning knob), tensor permutation,
// on-demand integral generation, and pool-vs-heap block allocation.
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/permute.hpp"
#include "block/block.hpp"
#include "block/block_pool.hpp"
#include "chem/integrals.hpp"
#include "common/rng.hpp"
#include "sip/superinstr.hpp"

namespace {

using namespace sia;

Block random_block(std::vector<int> extents, std::uint64_t seed) {
  Block block{BlockShape(extents)};
  auto data = block.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 2.0 * unit_double(hash_combine(seed, i)) - 1.0;
  }
  return block;
}

// Runs a benchmark body on one kernel of a runtime dispatch table (a GEMM
// micro-kernel or a fill kernel: "portable", "avx2", "avx512") and
// restores CPU dispatch afterwards; the label names the kernel that ran.
// A kernel this CPU lacks is reported as an error row, not measured.
template <typename Body>
void with_kernel(benchmark::State& state, bool (*select)(std::string_view),
                 std::string_view (*active)(), const char* kernel,
                 Body body) {
  if (!select(kernel)) {
    state.SkipWithError("kernel not supported on this CPU");
    return;
  }
  state.SetLabel(std::string(active()));
  body();
  select("auto");
}

template <typename Body>
void with_gemm_kernel(benchmark::State& state, const char* kernel,
                      Body body) {
  with_kernel(state, blas::select_gemm_kernel, blas::gemm_kernel_name, kernel,
              body);
}

template <typename Body>
void with_fill_kernel(benchmark::State& state, const char* kernel,
                      Body body) {
  with_kernel(state, chem::select_fill_kernel, chem::fill_kernel_name, kernel,
              body);
}

// Rank-4 block contraction over two shared indices (the CCSD workhorse:
// 2*seg^6 flops), as a function of segment size.
void BM_BlockContraction(benchmark::State& state, const char* kernel) {
  const int seg = static_cast<int>(state.range(0));
  Block a = random_block({seg, seg, seg, seg}, 1);
  Block b = random_block({seg, seg, seg, seg}, 2);
  Block c{BlockShape(std::vector<int>{seg, seg, seg, seg})};
  const std::vector<int> c_ids = {0, 1, 4, 5};
  const std::vector<int> a_ids = {0, 1, 2, 3};
  const std::vector<int> b_ids = {2, 3, 4, 5};
  with_gemm_kernel(state, kernel, [&] {
    for (auto _ : state) {
      sip::block_contract(c, c_ids, a, a_ids, b, b_ids, false);
      benchmark::DoNotOptimize(c.data().data());
      benchmark::ClobberMemory();
    }
  });
  const double flops = 2.0 * std::pow(static_cast<double>(seg), 6.0);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_BlockContraction, avx2, "avx2")
    ->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(20)->Arg(24)->Arg(32);
BENCHMARK_CAPTURE(BM_BlockContraction, avx512, "avx512")
    ->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(20)->Arg(24)->Arg(32);

// The three contractions of the ccd residual (chem::ccd_energy_source())
// at its 16^4 block shape, each 2*16^6 flops, in the program's own operand
// and destination orders. Ids: a=0 i=1 b=2 j=3 c=4 d=5 k=6 l=7.
struct CcdOrder {
  std::vector<int> dst, a, b;
};
// tmp(a,i,b,j) = vp(a,c,b,d) * T(c,i,d,j)
const CcdOrder kParticleLadder = {{0, 1, 2, 3}, {0, 4, 2, 5}, {4, 1, 5, 3}};
// tmp(a,i,b,j) = vh(k,i,l,j) * T(a,k,b,l)
const CcdOrder kHoleLadder = {{0, 1, 2, 3}, {6, 1, 7, 3}, {0, 6, 2, 7}};
// tmp(a,i,b,j) = vr(k,a,c,i) * T(c,k,b,j)
const CcdOrder kRing = {{0, 1, 2, 3}, {6, 0, 4, 1}, {4, 6, 2, 3}};

void BM_CcdContraction(benchmark::State& state, const char* kernel,
                       const CcdOrder* order) {
  constexpr int seg = 16;
  const std::vector<int> extents = {seg, seg, seg, seg};
  Block a = random_block(extents, 1);
  Block b = random_block(extents, 2);
  Block c{BlockShape(extents)};
  with_gemm_kernel(state, kernel, [&] {
    for (auto _ : state) {
      sip::block_contract(c, order->dst, a, order->a, b, order->b, false);
      benchmark::DoNotOptimize(c.data().data());
      benchmark::ClobberMemory();
    }
  });
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * std::pow(static_cast<double>(seg), 6.0) *
          static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_CcdContraction, avx2_particle_ladder, "avx2",
                  &kParticleLadder);
BENCHMARK_CAPTURE(BM_CcdContraction, avx2_hole_ladder, "avx2", &kHoleLadder);
BENCHMARK_CAPTURE(BM_CcdContraction, avx2_ring, "avx2", &kRing);
BENCHMARK_CAPTURE(BM_CcdContraction, avx512_particle_ladder, "avx512",
                  &kParticleLadder);
BENCHMARK_CAPTURE(BM_CcdContraction, avx512_hole_ladder, "avx512",
                  &kHoleLadder);
BENCHMARK_CAPTURE(BM_CcdContraction, avx512_ring, "avx512", &kRing);

// The Fock build's Coulomb contraction J(mu,nu) = v(mu,nu,la,si) *
// D(la,si): a matrix-vector product (n == 1) of 2*seg^4 flops.
void BM_FockContraction(benchmark::State& state) {
  const int seg = static_cast<int>(state.range(0));
  Block v = random_block({seg, seg, seg, seg}, 1);
  Block d = random_block({seg, seg}, 2);
  Block j{BlockShape(std::vector<int>{seg, seg})};
  const std::vector<int> j_ids = {0, 1};
  const std::vector<int> v_ids = {0, 1, 2, 3};
  const std::vector<int> d_ids = {2, 3};
  for (auto _ : state) {
    sip::block_contract(j, j_ids, v, v_ids, d, d_ids, false);
    benchmark::DoNotOptimize(j.data().data());
    benchmark::ClobberMemory();
  }
  const double flops = 2.0 * std::pow(static_cast<double>(seg), 4.0);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FockContraction)->Arg(8)->Arg(16);

// The DGEMM kernel directly.
void BM_Dgemm(benchmark::State& state, const char* kernel) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n * n), b(n * n), c(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = unit_double(i);
    b[i] = unit_double(i + 7);
  }
  with_gemm_kernel(state, kernel, [&] {
    for (auto _ : state) {
      blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n);
      benchmark::DoNotOptimize(c.data());
      benchmark::ClobberMemory();
    }
  });
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n *
          static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_Dgemm, avx2, "avx2")->Arg(64)->Arg(128)->Arg(256);
BENCHMARK_CAPTURE(BM_Dgemm, avx512, "avx512")->Arg(64)->Arg(128)->Arg(256);

// Rank-4 permutation (operand preparation for contractions).
void BM_Permute4(benchmark::State& state) {
  const int seg = static_cast<int>(state.range(0));
  Block src = random_block({seg, seg, seg, seg}, 3);
  Block dst{BlockShape(std::vector<int>{seg, seg, seg, seg})};
  const std::vector<int> dims = {seg, seg, seg, seg};
  const std::vector<int> perm = {3, 1, 2, 0};
  for (auto _ : state) {
    blas::permute(src.data().data(), dims, perm, dst.data().data());
    benchmark::DoNotOptimize(dst.data().data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(src.size() * sizeof(double)));
}
BENCHMARK(BM_Permute4)->Arg(8)->Arg(16)->Arg(24);

// On-demand integral block generation: the table-driven fill that the
// compute_integrals super instruction and the server generator run.
void BM_IntegralBlock(benchmark::State& state) {
  const int seg = static_cast<int>(state.range(0));
  const std::vector<int> extents = {seg, seg, seg, seg};
  const std::vector<long> first = {1, 1, 1, 1};
  Block block{BlockShape(extents)};
  for (auto _ : state) {
    chem::fill_integral_block(block.data(), extents, first);
    benchmark::DoNotOptimize(block.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK(BM_IntegralBlock)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// The same fill on one fill kernel: the portable loop or AVX-512 rows.
void BM_IntegralFill(benchmark::State& state, const char* kernel) {
  const int seg = static_cast<int>(state.range(0));
  const std::vector<int> extents = {seg, seg, seg, seg};
  const std::vector<long> first = {1, 1, 1, 1};
  Block block{BlockShape(extents)};
  with_fill_kernel(state, kernel, [&] {
    for (auto _ : state) {
      chem::fill_integral_block(block.data(), extents, first);
      benchmark::DoNotOptimize(block.data().data());
      benchmark::ClobberMemory();
    }
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK_CAPTURE(BM_IntegralFill, portable, "portable")->Arg(8)->Arg(16);
BENCHMARK_CAPTURE(BM_IntegralFill, avx512, "avx512")->Arg(8)->Arg(16);

// cc_update's body, T = R / denominator, on one fill kernel. The block
// straddles nocc so both signs of orbital energy occur.
void BM_CcUpdate(benchmark::State& state, const char* kernel) {
  const int seg = static_cast<int>(state.range(0));
  const std::vector<int> extents = {seg, seg, seg, seg};
  const std::vector<long> first = {1, 1, 1, 1};
  const long nocc = seg / 2;
  const Block r = random_block(extents, 3);
  Block t{BlockShape(extents)};
  with_fill_kernel(state, kernel, [&] {
    for (auto _ : state) {
      chem::divide_by_denominators(t.data(), r.data(), extents, first, nocc);
      benchmark::DoNotOptimize(t.data().data());
      benchmark::ClobberMemory();
    }
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK_CAPTURE(BM_CcUpdate, portable, "portable")->Arg(16);
BENCHMARK_CAPTURE(BM_CcUpdate, avx512, "avx512")->Arg(16);

// Preallocated pool slots vs heap fallback (the paper's block stacks).
void BM_PoolAllocate(benchmark::State& state) {
  const std::size_t doubles = 16 * 16 * 16 * 16;
  BlockPool pool({{doubles, 8}}, /*allow_heap_fallback=*/false);
  for (auto _ : state) {
    PoolBuffer buffer = pool.allocate(doubles);
    benchmark::DoNotOptimize(buffer.data());
  }
}
BENCHMARK(BM_PoolAllocate);

void BM_HeapAllocate(benchmark::State& state) {
  const std::size_t doubles = 16 * 16 * 16 * 16;
  BlockPool pool({}, /*allow_heap_fallback=*/true);
  for (auto _ : state) {
    PoolBuffer buffer = pool.allocate(doubles);
    benchmark::DoNotOptimize(buffer.data());
  }
}
BENCHMARK(BM_HeapAllocate);

}  // namespace

BENCHMARK_MAIN();
