#include "blas/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <vector>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SIA_X86_KERNELS 1
#include <immintrin.h>
#else
#define SIA_X86_KERNELS 0
#endif

namespace sia::blas {
namespace {

// Cache-block sizes: MC x KC panel of A stays in L2, KC x NC panel of B in
// L3/L2. Sized for typical 32K/512K caches. The register micro-tile shape
// (mr x nr) comes from the dispatched micro-kernel. Every kernel sums each
// C element as one FMA chain per KC slab, so KC (not the tile shape) fixes
// the rounding, and the SIMD kernels agree bit for bit.
constexpr std::size_t kMc = 72;
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 1024;

// Below this flop count packing overhead dominates; use the direct loop.
constexpr std::size_t kSmallProblem = 32 * 32 * 32;

// Independent partial sums per row in the matrix-vector path: enough to
// cover the FP add latency, so a row's dot is throughput-bound.
constexpr std::size_t kDotLanes = 8;

// A micro-kernel computes the FULL tile
//   C[0:mr, 0:nr] += A_panel (mr x kc) * B_panel (kc x nr)
// from packed panels: A packed column-by-column (mr entries per k step),
// B packed row-by-row (nr entries per k step). Partial edge tiles are
// routed through a scratch tile by the driver.
using MicroKernelFn = void (*)(std::size_t kc, const double* a_pack,
                               const double* b_pack, double* c,
                               std::size_t ldc);

struct KernelInfo {
  std::size_t mr;
  std::size_t nr;
  MicroKernelFn fn;
  const char* name;      // reported by gemm_kernel_name()
  const char* selector;  // accepted by select_gemm_kernel()
  bool (*supported)();   // runtime CPU check
};

// ---------------------------------------------------------------------
// Portable 4x8 micro-kernel (compiles everywhere, autovectorizes on most
// targets).

void micro_kernel_portable(std::size_t kc, const double* a_pack,
                           const double* b_pack, double* c, std::size_t ldc) {
  constexpr std::size_t mr = 4;
  constexpr std::size_t nr = 8;
  double acc[mr][nr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const double* b_row = b_pack + p * nr;
    const double* a_col = a_pack + p * mr;
    for (std::size_t i = 0; i < mr; ++i) {
      const double ai = a_col[i];
      for (std::size_t j = 0; j < nr; ++j) {
        acc[i][j] += ai * b_row[j];
      }
    }
  }
  for (std::size_t i = 0; i < mr; ++i) {
    double* c_row = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      c_row[j] += acc[i][j];
    }
  }
}

// ---------------------------------------------------------------------
// AVX2+FMA 6x8 micro-kernel: 12 accumulator ymm registers + 2 B vectors +
// 1 A broadcast = 15 of 16, the classic BLIS-style tiling. Compiled with a
// target attribute so the translation unit itself needs no special flags;
// selected at runtime only when the CPU reports AVX2 and FMA.

#if SIA_X86_KERNELS
__attribute__((target("avx2,fma"))) void micro_kernel_avx2_6x8(
    std::size_t kc, const double* a_pack, const double* b_pack, double* c,
    std::size_t ldc) {
  __m256d acc00 = _mm256_setzero_pd(), acc01 = _mm256_setzero_pd();
  __m256d acc10 = _mm256_setzero_pd(), acc11 = _mm256_setzero_pd();
  __m256d acc20 = _mm256_setzero_pd(), acc21 = _mm256_setzero_pd();
  __m256d acc30 = _mm256_setzero_pd(), acc31 = _mm256_setzero_pd();
  __m256d acc40 = _mm256_setzero_pd(), acc41 = _mm256_setzero_pd();
  __m256d acc50 = _mm256_setzero_pd(), acc51 = _mm256_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(b_pack + p * 8);
    const __m256d b1 = _mm256_loadu_pd(b_pack + p * 8 + 4);
    const double* a_col = a_pack + p * 6;
    __m256d ai = _mm256_broadcast_sd(a_col + 0);
    acc00 = _mm256_fmadd_pd(ai, b0, acc00);
    acc01 = _mm256_fmadd_pd(ai, b1, acc01);
    ai = _mm256_broadcast_sd(a_col + 1);
    acc10 = _mm256_fmadd_pd(ai, b0, acc10);
    acc11 = _mm256_fmadd_pd(ai, b1, acc11);
    ai = _mm256_broadcast_sd(a_col + 2);
    acc20 = _mm256_fmadd_pd(ai, b0, acc20);
    acc21 = _mm256_fmadd_pd(ai, b1, acc21);
    ai = _mm256_broadcast_sd(a_col + 3);
    acc30 = _mm256_fmadd_pd(ai, b0, acc30);
    acc31 = _mm256_fmadd_pd(ai, b1, acc31);
    ai = _mm256_broadcast_sd(a_col + 4);
    acc40 = _mm256_fmadd_pd(ai, b0, acc40);
    acc41 = _mm256_fmadd_pd(ai, b1, acc41);
    ai = _mm256_broadcast_sd(a_col + 5);
    acc50 = _mm256_fmadd_pd(ai, b0, acc50);
    acc51 = _mm256_fmadd_pd(ai, b1, acc51);
  }
  // Lambdas would not inherit the target attribute, so the row stores are
  // written out long-hand.
  __m256d lo[6] = {acc00, acc10, acc20, acc30, acc40, acc50};
  __m256d hi[6] = {acc01, acc11, acc21, acc31, acc41, acc51};
  for (std::size_t i = 0; i < 6; ++i) {
    double* row = c + i * ldc;
    _mm256_storeu_pd(row, _mm256_add_pd(_mm256_loadu_pd(row), lo[i]));
    _mm256_storeu_pd(row + 4, _mm256_add_pd(_mm256_loadu_pd(row + 4), hi[i]));
  }
}

// ---------------------------------------------------------------------
// AVX-512 6x32 micro-kernel: 24 accumulator zmm registers (6 rows x 4
// vectors) + 4 B vectors + 1 A broadcast = 29 of 32. Each accumulator
// lane is the same fmadd chain the AVX2 kernel runs, so the two agree bit
// for bit. Chosen over 8x24 and 12x16 by measurement on the 16^4 block
// contractions of the CCD workload.

__attribute__((target("avx512f"))) void micro_kernel_avx512_6x32(
    std::size_t kc, const double* a_pack, const double* b_pack, double* c,
    std::size_t ldc) {
  constexpr int mr = 6;
  constexpr int vecs = 4;  // 8 doubles each
  constexpr int nr = 8 * vecs;
  __m512d acc[mr][vecs];
#pragma GCC unroll 8
  for (int i = 0; i < mr; ++i) {
#pragma GCC unroll 4
    for (int v = 0; v < vecs; ++v) acc[i][v] = _mm512_setzero_pd();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    __m512d b[vecs];
#pragma GCC unroll 4
    for (int v = 0; v < vecs; ++v) {
      b[v] = _mm512_loadu_pd(b_pack + p * nr + 8 * v);
    }
    const double* a_col = a_pack + p * mr;
#pragma GCC unroll 8
    for (int i = 0; i < mr; ++i) {
      const __m512d ai = _mm512_set1_pd(a_col[i]);
#pragma GCC unroll 4
      for (int v = 0; v < vecs; ++v) {
        acc[i][v] = _mm512_fmadd_pd(ai, b[v], acc[i][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int i = 0; i < mr; ++i) {
    double* row = c + i * ldc;
#pragma GCC unroll 4
    for (int v = 0; v < vecs; ++v) {
      _mm512_storeu_pd(row + 8 * v,
                       _mm512_add_pd(_mm512_loadu_pd(row + 8 * v), acc[i][v]));
    }
  }
}
#endif  // SIA_X86_KERNELS

// Every micro-kernel, in dispatch order: the first one the CPU supports
// is the default. The portable kernel is last and always supported.
constexpr KernelInfo kKernels[] = {
#if SIA_X86_KERNELS
    {6, 32, micro_kernel_avx512_6x32, "avx512-6x32", "avx512",
     [] { return __builtin_cpu_supports("avx512f") != 0; }},
    {6, 8, micro_kernel_avx2_6x8, "avx2-6x8", "avx2",
     [] {
       return __builtin_cpu_supports("avx2") &&
              __builtin_cpu_supports("fma");
     }},
#endif
    {4, 8, micro_kernel_portable, "portable-4x8", "portable",
     [] { return true; }},
};

// The driver's scratch tile for partial edge tiles holds the largest
// micro-tile of the table.
constexpr std::size_t kEdgeTileDoubles = [] {
  std::size_t most = 0;
  for (const KernelInfo& kernel : kKernels) {
    most = std::max(most, kernel.mr * kernel.nr);
  }
  return most;
}();
static_assert(std::all_of(std::begin(kKernels), std::end(kKernels),
                          [](const KernelInfo& kernel) {
                            return kernel.mr > 0 && kernel.nr > 0 &&
                                   kernel.mr * kernel.nr <= kEdgeTileDoubles;
                          }),
              "every micro-tile must fit the driver's edge tile");

const KernelInfo* detect_kernel() {
  for (const KernelInfo& kernel : kKernels) {
    if (kernel.supported()) return &kernel;
  }
  return &kKernels[std::size(kKernels) - 1];
}

std::atomic<const KernelInfo*> g_kernel{nullptr};

const KernelInfo& active_kernel() {
  const KernelInfo* kernel = g_kernel.load(std::memory_order_acquire);
  if (kernel == nullptr) {
    kernel = detect_kernel();
    g_kernel.store(kernel, std::memory_order_release);
  }
  return *kernel;
}

// ---------------------------------------------------------------------
// Operand accessors: how packing reads A and B. Strided is the classic
// row-major view; Gather reads through the plan's offset tables, folding
// an arbitrary tensor permutation into the packing pass.

struct StridedView {
  const double* base;
  std::size_t ld;
  double at(std::size_t row, std::size_t col) const {
    return base[row * ld + col];
  }
  std::size_t row_offset(std::size_t row) const { return row * ld; }
  std::size_t col_offset(std::size_t col) const { return col; }
  double at_offset(std::size_t row_off, std::size_t col) const {
    return base[row_off + col];
  }
};

struct GatherView {
  const double* base;
  const std::size_t* row_off;
  const std::size_t* col_off;
  double at(std::size_t row, std::size_t col) const {
    return base[row_off[row] + col_off[col]];
  }
  std::size_t row_offset(std::size_t row) const { return row_off[row]; }
  std::size_t col_offset(std::size_t col) const { return col_off[col]; }
  double at_offset(std::size_t roff, std::size_t col) const {
    return base[roff + col_off[col]];
  }
};

// Packs the mc x kc panel of A starting at (i0, p0) into micro-tile order:
// for each mr-row slab, kc columns of mr entries. Rows beyond mc (only in
// the last slab) are zero-padded so the micro-kernel always sees a full
// slab; every other entry is overwritten, so the buffer is not cleared.
template <typename ViewA>
void pack_a(const ViewA& a, std::size_t i0, std::size_t p0, std::size_t mc,
            std::size_t kc, double alpha, std::size_t mr_tile,
            std::vector<double>& out) {
  out.resize(((mc + mr_tile - 1) / mr_tile) * mr_tile * kc);
  std::size_t slab = 0;
  for (std::size_t ir = 0; ir < mc; ir += mr_tile) {
    const std::size_t mr = std::min(mr_tile, mc - ir);
    double* dst = out.data() + slab;
    for (std::size_t i = 0; i < mr; ++i) {
      const std::size_t roff = a.row_offset(i0 + ir + i);
      for (std::size_t p = 0; p < kc; ++p) {
        dst[p * mr_tile + i] = alpha * a.at_offset(roff, p0 + p);
      }
    }
    for (std::size_t i = mr; i < mr_tile; ++i) {
      for (std::size_t p = 0; p < kc; ++p) dst[p * mr_tile + i] = 0.0;
    }
    slab += mr_tile * kc;
  }
}

// Packs the kc x nc panel of B starting at (p0, j0) into micro-tile order:
// for each nr-column slab, kc rows of nr entries, zero-padded on the right
// in the last slab only.
template <typename ViewB>
void pack_b(const ViewB& b, std::size_t p0, std::size_t j0, std::size_t kc,
            std::size_t nc, std::size_t nr_tile, std::vector<double>& out) {
  out.resize(((nc + nr_tile - 1) / nr_tile) * nr_tile * kc);
  std::size_t slab = 0;
  for (std::size_t jr = 0; jr < nc; jr += nr_tile) {
    const std::size_t nr = std::min(nr_tile, nc - jr);
    double* dst = out.data() + slab;
    for (std::size_t p = 0; p < kc; ++p) {
      const std::size_t roff = b.row_offset(p0 + p);
      double* row = dst + p * nr_tile;
      for (std::size_t j = 0; j < nr; ++j) {
        row[j] = b.at_offset(roff, j0 + jr + j);
      }
      std::fill(row + nr, row + nr_tile, 0.0);
    }
    slab += nr_tile * kc;
  }
}

void scale_c(std::size_t m, std::size_t n, double beta, double* c,
             std::size_t ldc) {
  if (beta == 1.0) return;
  for (std::size_t i = 0; i < m; ++i) {
    double* row = c + i * ldc;
    if (beta == 0.0) {
      std::fill(row, row + n, 0.0);
    } else {
      for (std::size_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
}

// Dots one matrix row with the gathered vector x: sum_p at(p) * x[p],
// as kDotLanes independent partial sums instead of one latency-bound
// chain, reduced pairwise.
template <typename At>
double dot_lanes(std::size_t k, const double* x, At at) {
  double partial[kDotLanes] = {};
  const std::size_t k_lanes = k - k % kDotLanes;
  for (std::size_t p = 0; p < k_lanes; p += kDotLanes) {
#pragma GCC unroll 8
    for (std::size_t l = 0; l < kDotLanes; ++l) {
      partial[l] += at(p + l) * x[p + l];
    }
  }
  for (std::size_t p = k_lanes; p < k; ++p) {
    partial[p - k_lanes] += at(p) * x[p];
  }
  for (std::size_t width = kDotLanes / 2; width > 0; width /= 2) {
    for (std::size_t l = 0; l < width; ++l) partial[l] += partial[l + width];
  }
  return partial[0];
}

// Matrix-vector products (n == 1): C(i, 0) += alpha * A(i, :) . B(:, 0),
// which the blocked driver would pad to a full micro-tile. The vector and
// A's column offsets are gathered once; when those offsets are consecutive
// (a contiguous row) each row is read as a plain run. C must already be
// beta-scaled.
template <typename ViewA, typename ViewB>
void matvec(std::size_t m, std::size_t k, double alpha, const ViewA& a,
            const ViewB& b, double* c, std::size_t ldc) {
  thread_local std::vector<double> x;
  thread_local std::vector<std::size_t> along;
  x.resize(k);
  along.resize(k);
  bool unit = true;
  for (std::size_t p = 0; p < k; ++p) {
    x[p] = b.at(p, 0);
    along[p] = a.col_offset(p);
    unit = unit && along[p] == along[0] + p;
  }
  const std::size_t* off = along.data();
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = a.base + a.row_offset(i);
    const double sum =
        unit ? dot_lanes(k, x.data(),
                         [row = row + off[0]](std::size_t p) { return row[p]; })
             : dot_lanes(k, x.data(),
                         [row, off](std::size_t p) { return row[off[p]]; });
    c[i * ldc] += alpha * sum;
  }
}

// Shared blocked driver. C must already be beta-scaled.
template <typename ViewA, typename ViewB>
void gemm_blocked(std::size_t m, std::size_t n, std::size_t k, double alpha,
                  const ViewA& a, const ViewB& b, double* c,
                  std::size_t ldc) {
  const KernelInfo& kernel = active_kernel();
  const std::size_t mr_tile = kernel.mr;
  const std::size_t nr_tile = kernel.nr;

  thread_local std::vector<double> a_pack;
  thread_local std::vector<double> b_pack;
  double edge_tile[kEdgeTileDoubles];

  for (std::size_t j0 = 0; j0 < n; j0 += kNc) {
    const std::size_t nc = std::min(kNc, n - j0);
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
      const std::size_t kc = std::min(kKc, k - p0);
      pack_b(b, p0, j0, kc, nc, nr_tile, b_pack);
      for (std::size_t i0 = 0; i0 < m; i0 += kMc) {
        const std::size_t mc = std::min(kMc, m - i0);
        pack_a(a, i0, p0, mc, kc, alpha, mr_tile, a_pack);
        for (std::size_t jr = 0; jr < nc; jr += nr_tile) {
          const std::size_t nr = std::min(nr_tile, nc - jr);
          const double* b_tile = b_pack.data() + (jr / nr_tile) * nr_tile * kc;
          for (std::size_t ir = 0; ir < mc; ir += mr_tile) {
            const std::size_t mr = std::min(mr_tile, mc - ir);
            const double* a_tile =
                a_pack.data() + (ir / mr_tile) * mr_tile * kc;
            double* c_tile = c + (i0 + ir) * ldc + j0 + jr;
            if (mr == mr_tile && nr == nr_tile) {
              kernel.fn(kc, a_tile, b_tile, c_tile, ldc);
            } else {
              // Partial edge tile: run the kernel into a dense scratch
              // tile and accumulate the live mr x nr corner into C.
              std::fill_n(edge_tile, mr_tile * nr_tile, 0.0);
              kernel.fn(kc, a_tile, b_tile, edge_tile, nr_tile);
              for (std::size_t i = 0; i < mr; ++i) {
                double* c_row = c_tile + i * ldc;
                const double* t_row = edge_tile + i * nr_tile;
                for (std::size_t j = 0; j < nr; ++j) c_row[j] += t_row[j];
              }
            }
          }
        }
      }
    }
  }
}

template <typename ViewA, typename ViewB>
void gemm_dispatch(std::size_t m, std::size_t n, std::size_t k, double alpha,
                   const ViewA& a, const ViewB& b, double beta, double* c,
                   std::size_t ldc) {
  scale_c(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;

  if (n == 1) {
    matvec(m, k, alpha, a, b, c, ldc);
    return;
  }

  if (m * n * k < kSmallProblem) {
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t a_row = a.row_offset(i);
      double* c_row = c + i * ldc;
      for (std::size_t p = 0; p < k; ++p) {
        const double aip = alpha * a.at_offset(a_row, p);
        const std::size_t b_row = b.row_offset(p);
        for (std::size_t j = 0; j < n; ++j) {
          c_row[j] += aip * b.at_offset(b_row, j);
        }
      }
    }
    return;
  }

  gemm_blocked(m, n, k, alpha, a, b, c, ldc);
}

}  // namespace

void dgemm(std::size_t m, std::size_t n, std::size_t k, double alpha,
           const double* a, std::size_t lda, const double* b, std::size_t ldb,
           double beta, double* c, std::size_t ldc) {
  gemm_dispatch(m, n, k, alpha, StridedView{a, lda}, StridedView{b, ldb},
                beta, c, ldc);
}

void dgemm_gather(std::size_t m, std::size_t n, std::size_t k, double alpha,
                  const double* a, const std::size_t* a_row_off,
                  const std::size_t* a_col_off, const double* b,
                  const std::size_t* b_row_off, const std::size_t* b_col_off,
                  double beta, double* c, std::size_t ldc) {
  gemm_dispatch(m, n, k, alpha, GatherView{a, a_row_off, a_col_off},
                GatherView{b, b_row_off, b_col_off}, beta, c, ldc);
}

void dgemm_naive(std::size_t m, std::size_t n, std::size_t k, double alpha,
                 const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double beta, double* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        sum += a[i * lda + p] * b[p * ldb + j];
      }
      c[i * ldc + j] = alpha * sum + beta * c[i * ldc + j];
    }
  }
}

std::string_view gemm_kernel_name() { return active_kernel().name; }

bool select_gemm_kernel(std::string_view name) {
  if (name == "auto") {
    g_kernel.store(detect_kernel(), std::memory_order_release);
    return true;
  }
  for (const KernelInfo& kernel : kKernels) {
    if (name == kernel.selector) {
      if (!kernel.supported()) return false;
      g_kernel.store(&kernel, std::memory_order_release);
      return true;
    }
  }
  return false;
}

}  // namespace sia::blas
