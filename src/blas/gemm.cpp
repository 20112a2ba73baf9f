#include "blas/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <new>
#include <numeric>
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
//   C[0:mr, 0:nr] (+)= A_panel (mr x kc) * B_panel (kc x nr)
// from packed panels: A packed column-by-column (mr entries per k step),
// B packed row-by-row (nr entries per k step). Row i of the tile starts at
// c + c_rows[i]; its columns are c_cols[0..nr), and the kernel reads one
// column offset per vector, so each vector's lanes must be consecutive in
// C. With accumulate false the tile is stored, else added. Tiles that
// break either condition go through a scratch tile in the driver.
using MicroKernelFn = void (*)(std::size_t kc, const double* a_pack,
                               const double* b_pack, double* c,
                               const std::size_t* c_rows,
                               const std::size_t* c_cols, bool accumulate);

// Packs a panel of A (W = mr) or B (W = nr); see pack_panel.
using PackFn = void (*)(const double* base, const std::size_t* lane_off,
                        std::size_t lane_run, const std::size_t* k_off,
                        std::size_t k_run, std::size_t x0, std::size_t len,
                        std::size_t p0, std::size_t kc, double scale,
                        double* out);

struct KernelInfo {
  std::size_t mr;
  std::size_t nr;
  std::size_t vec;  // doubles per C store
  MicroKernelFn fn;
  PackFn pack_a;  // pack_panel<mr>
  PackFn pack_b;  // pack_panel<nr>
  const char* name;      // reported by gemm_kernel_name()
  const char* selector;  // accepted by select_gemm_kernel()
  bool (*supported)();   // runtime CPU check
};

// ---------------------------------------------------------------------
// Portable 4x8 micro-kernel (compiles everywhere, autovectorizes on most
// targets).

void micro_kernel_portable(std::size_t kc, const double* a_pack,
                           const double* b_pack, double* c,
                           const std::size_t* c_rows,
                           const std::size_t* c_cols, bool accumulate) {
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
    double* c_row = c + c_rows[i];
    for (std::size_t j = 0; j < nr; ++j) {
      double& out = c_row[c_cols[j]];
      out = accumulate ? out + acc[i][j] : acc[i][j];
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
    const std::size_t* c_rows, const std::size_t* c_cols, bool accumulate) {
  __m256d acc00 = _mm256_setzero_pd(), acc01 = _mm256_setzero_pd();
  __m256d acc10 = _mm256_setzero_pd(), acc11 = _mm256_setzero_pd();
  __m256d acc20 = _mm256_setzero_pd(), acc21 = _mm256_setzero_pd();
  __m256d acc30 = _mm256_setzero_pd(), acc31 = _mm256_setzero_pd();
  __m256d acc40 = _mm256_setzero_pd(), acc41 = _mm256_setzero_pd();
  __m256d acc50 = _mm256_setzero_pd(), acc51 = _mm256_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_load_pd(b_pack + p * 8);
    const __m256d b1 = _mm256_load_pd(b_pack + p * 8 + 4);
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
    double* out_lo = c + c_rows[i] + c_cols[0];
    double* out_hi = c + c_rows[i] + c_cols[4];
    if (accumulate) {
      lo[i] = _mm256_add_pd(_mm256_loadu_pd(out_lo), lo[i]);
      hi[i] = _mm256_add_pd(_mm256_loadu_pd(out_hi), hi[i]);
    }
    _mm256_storeu_pd(out_lo, lo[i]);
    _mm256_storeu_pd(out_hi, hi[i]);
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
    const std::size_t* c_rows, const std::size_t* c_cols, bool accumulate) {
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
      b[v] = _mm512_load_pd(b_pack + p * nr + 8 * v);
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
    double* row = c + c_rows[i];
#pragma GCC unroll 4
    for (int v = 0; v < vecs; ++v) {
      double* out = row + c_cols[8 * v];
      _mm512_storeu_pd(out, accumulate
                                ? _mm512_add_pd(_mm512_loadu_pd(out), acc[i][v])
                                : acc[i][v]);
    }
  }
}
#endif  // SIA_X86_KERNELS

// A unit-stride piece of one table: indices [at, at + count) of a slice,
// whose offsets are off, off + 1, ...
struct Run {
  std::size_t at;
  std::size_t count;
  std::size_t off;
};

// Splits indices [x0, x0 + len) of a table whose unit-stride runs have
// length `run` into its runs; returns how many there are (at most len).
std::size_t split_runs(const std::size_t* table, std::size_t run,
                       std::size_t x0, std::size_t len, Run* out) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < len;) {
    const std::size_t count = std::min(run - (x0 + i) % run, len - i);
    out[n++] = {i, count, table[x0 + i]};
    i += count;
  }
  return n;
}

// Packs `len` lanes starting at lane x0 and kc K steps starting at p0 into
// slabs of W lanes, the order the micro-kernels read:
//   out[s * kc + p * W + l] = scale * base[lane_off[x0 + s + l] +
//                                          k_off[p0 + p]]
// for each slab start s (a multiple of W). A is packed with its rows as
// lanes (W = mr), B with its columns (W = nr). Lanes past len in the last
// slab are zero. The inner loop reads along whichever table has the
// longer unit-stride runs, one run at a time: across the lanes of one K
// step, or down K with the slab's W lanes read in step.
template <std::size_t W>
void pack_panel(const double* base, const std::size_t* lane_off,
                std::size_t lane_run, const std::size_t* k_off,
                std::size_t k_run, std::size_t x0, std::size_t len,
                std::size_t p0, std::size_t kc, double scale, double* out) {
  Run runs[std::max(kKc, W)];
  if (lane_run > k_run) {
    for (std::size_t s = 0; s < len; s += W) {
      const std::size_t lanes = std::min(W, len - s);
      const std::size_t n_runs =
          split_runs(lane_off, lane_run, x0 + s, lanes, runs);
      double* slab = out + s * kc;
      if (n_runs == 1 && lanes == W) {
        // The whole slab is one run: a fixed-length copy per K step.
        for (std::size_t p = 0; p < kc; ++p) {
          const double* src = base + runs[0].off + k_off[p0 + p];
          double* dst = slab + p * W;
#pragma GCC unroll 32
          for (std::size_t l = 0; l < W; ++l) dst[l] = scale * src[l];
        }
        continue;
      }
      for (std::size_t p = 0; p < kc; ++p) {
        const double* column = base + k_off[p0 + p];
        double* dst = slab + p * W;
        for (std::size_t r = 0; r < n_runs; ++r) {
          const double* src = column + runs[r].off;
          double* to = dst + runs[r].at;
          for (std::size_t t = 0; t < runs[r].count; ++t) {
            to[t] = scale * src[t];
          }
        }
        std::fill(dst + lanes, dst + W, 0.0);
      }
    }
    return;
  }
  const std::size_t n_runs = split_runs(k_off, k_run, p0, kc, runs);
  for (std::size_t s = 0; s < len; s += W) {
    const std::size_t lanes = std::min(W, len - s);
    double* slab = out + s * kc;
    if (lanes == W) {
      // Each K run is read from all W lane rows in step, so every K step
      // writes one contiguous slab row.
      const double* rows[W];
      for (std::size_t l = 0; l < W; ++l) {
        rows[l] = base + lane_off[x0 + s + l];
      }
      for (std::size_t r = 0; r < n_runs; ++r) {
        double* dst = slab + runs[r].at * W;
        const double* src[W];
        for (std::size_t l = 0; l < W; ++l) src[l] = rows[l] + runs[r].off;
        for (std::size_t t = 0; t < runs[r].count; ++t) {
#pragma GCC unroll 32
          for (std::size_t l = 0; l < W; ++l) {
            dst[t * W + l] = scale * src[l][t];
          }
        }
      }
      continue;
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      const double* row = base + lane_off[x0 + s + l];
      for (std::size_t r = 0; r < n_runs; ++r) {
        const double* src = row + runs[r].off;
        double* to = slab + runs[r].at * W + l;
        for (std::size_t t = 0; t < runs[r].count; ++t) {
          to[t * W] = scale * src[t];
        }
      }
    }
    for (std::size_t p = 0; p < kc; ++p) {
      std::fill(slab + p * W + lanes, slab + (p + 1) * W, 0.0);
    }
  }
}

// Every micro-kernel, in dispatch order: the first one the CPU supports
// is the default. The portable kernel is last and always supported.
constexpr KernelInfo kKernels[] = {
#if SIA_X86_KERNELS
    {6, 32, 8, micro_kernel_avx512_6x32, pack_panel<6>, pack_panel<32>,
     "avx512-6x32", "avx512",
     [] { return __builtin_cpu_supports("avx512f") != 0; }},
    {6, 8, 4, micro_kernel_avx2_6x8, pack_panel<6>, pack_panel<8>,
     "avx2-6x8", "avx2",
     [] {
       return __builtin_cpu_supports("avx2") &&
              __builtin_cpu_supports("fma");
     }},
#endif
    {4, 8, 1, micro_kernel_portable, pack_panel<4>, pack_panel<8>,
     "portable-4x8", "portable",
     [] { return true; }},
};

// The driver's scratch tile for edge tiles has the largest mr and nr of
// the table, row stride kEdgeNr.
constexpr std::size_t kEdgeMr = [] {
  std::size_t most = 0;
  for (const KernelInfo& kernel : kKernels) most = std::max(most, kernel.mr);
  return most;
}();
constexpr std::size_t kEdgeNr = [] {
  std::size_t most = 0;
  for (const KernelInfo& kernel : kKernels) most = std::max(most, kernel.nr);
  return most;
}();
static_assert(std::all_of(std::begin(kKernels), std::end(kKernels),
                          [](const KernelInfo& kernel) {
                            return kernel.mr > 0 && kernel.vec > 0 &&
                                   kernel.nr % kernel.vec == 0 &&
                                   kNc % kernel.vec == 0;
                          }),
              "tile columns must start on whole vectors");

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

// Grow-only scratch for packed panels, 64-byte aligned so that no vector
// load of a packed B row splits a cache line.
class PackBuffer {
 public:
  double* reserve(std::size_t count) {
    if (count > capacity_) {
      storage_.reset(static_cast<double*>(
          ::operator new[](count * sizeof(double), std::align_val_t{64})));
      capacity_ = count;
    }
    return storage_.get();
  }

 private:
  struct Free {
    void operator()(double* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };
  std::unique_ptr<double[], Free> storage_;
  std::size_t capacity_ = 0;
};

void scale_c(double beta, double* c, const GatherTables& ct) {
  if (beta == 1.0) return;
  for (const std::size_t row : ct.row_off) {
    double* c_row = c + row;
    for (const std::size_t col : ct.col_off) {
      c_row[col] = beta == 0.0 ? 0.0 : beta * c_row[col];
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
// which the blocked driver would pad to a full micro-tile. The vector is
// gathered once; when A's column offsets are consecutive (a contiguous
// row) each row is read as a plain run. C must already be beta-scaled.
void matvec(double alpha, const double* a, const GatherTables& at,
            const double* b, const GatherTables& bt, double* c,
            const GatherTables& ct) {
  const std::size_t k = at.col_off.size();
  thread_local std::vector<double> x;
  x.resize(k);
  for (std::size_t p = 0; p < k; ++p) x[p] = b[bt.row_off[p] + bt.col_off[0]];
  const std::size_t* off = at.col_off.data();
  const bool unit = at.col_run == k;
  for (std::size_t i = 0; i < at.row_off.size(); ++i) {
    const double* row = a + at.row_off[i];
    const double sum =
        unit ? dot_lanes(k, x.data(),
                         [row = row + off[0]](std::size_t p) { return row[p]; })
             : dot_lanes(k, x.data(),
                         [row, off](std::size_t p) { return row[off[p]]; });
    c[ct.row_off[i] + ct.col_off[0]] += alpha * sum;
  }
}

// Shared blocked driver. With overwrite, the first KC slab stores its
// chains into C (which then need not be cleared); otherwise C must already
// be beta-scaled and every slab adds.
void gemm_blocked(double alpha, const double* a, const GatherTables& at,
                  const double* b, const GatherTables& bt, bool overwrite,
                  double* c, const GatherTables& ct) {
  const KernelInfo& kernel = active_kernel();
  const std::size_t mr_tile = kernel.mr;
  const std::size_t nr_tile = kernel.nr;
  const std::size_t m = at.row_off.size();
  const std::size_t k = at.col_off.size();
  const std::size_t n = bt.col_off.size();

  thread_local PackBuffer a_buffer;
  thread_local PackBuffer b_buffer;
  const auto round_up = [](std::size_t x, std::size_t to) {
    return (x + to - 1) / to * to;
  };
  double* a_pack =
      a_buffer.reserve(round_up(std::min(kMc, m), mr_tile) * std::min(kKc, k));
  double* b_pack =
      b_buffer.reserve(round_up(std::min(kNc, n), nr_tile) * std::min(kKc, k));

  // Edge tiles: the kernel stores into a dense scratch tile, which is
  // then scattered into C element by element.
  alignas(64) double edge_tile[kEdgeMr * kEdgeNr];
  std::size_t edge_rows[kEdgeMr];
  std::size_t edge_cols[kEdgeNr];
  for (std::size_t i = 0; i < kEdgeMr; ++i) edge_rows[i] = i * kEdgeNr;
  std::iota(std::begin(edge_cols), std::end(edge_cols), std::size_t{0});
  // A full tile is stored directly when each of its vectors lies in one
  // run of C's column table.
  const bool direct = ct.col_run % kernel.vec == 0 || ct.col_run == n;

  for (std::size_t j0 = 0; j0 < n; j0 += kNc) {
    const std::size_t nc = std::min(kNc, n - j0);
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
      const std::size_t kc = std::min(kKc, k - p0);
      const bool accumulate = !overwrite || p0 > 0;
      kernel.pack_b(b, bt.col_off.data(), bt.col_run, bt.row_off.data(),
                    bt.row_run, j0, nc, p0, kc, 1.0, b_pack);
      for (std::size_t i0 = 0; i0 < m; i0 += kMc) {
        const std::size_t mc = std::min(kMc, m - i0);
        kernel.pack_a(a, at.row_off.data(), at.row_run, at.col_off.data(),
                      at.col_run, i0, mc, p0, kc, alpha, a_pack);
        for (std::size_t jr = 0; jr < nc; jr += nr_tile) {
          const std::size_t nr = std::min(nr_tile, nc - jr);
          const double* b_tile = b_pack + jr * kc;
          const std::size_t* c_cols = ct.col_off.data() + j0 + jr;
          for (std::size_t ir = 0; ir < mc; ir += mr_tile) {
            const std::size_t mr = std::min(mr_tile, mc - ir);
            const double* a_tile = a_pack + ir * kc;
            const std::size_t* c_rows = ct.row_off.data() + i0 + ir;
            if (direct && mr == mr_tile && nr == nr_tile) {
              kernel.fn(kc, a_tile, b_tile, c, c_rows, c_cols, accumulate);
              continue;
            }
            kernel.fn(kc, a_tile, b_tile, edge_tile, edge_rows, edge_cols,
                      false);
            for (std::size_t i = 0; i < mr; ++i) {
              double* c_row = c + c_rows[i];
              const double* t_row = edge_tile + i * kEdgeNr;
              for (std::size_t j = 0; j < nr; ++j) {
                double& out = c_row[c_cols[j]];
                out = accumulate ? out + t_row[j] : t_row[j];
              }
            }
          }
        }
      }
    }
  }
}

// Tables of a dense row-major rows x cols matrix with leading dimension ld.
void strided_tables(std::size_t rows, std::size_t cols, std::size_t ld,
                    GatherTables& t) {
  t.row_off.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) t.row_off[i] = i * ld;
  t.col_off.resize(cols);
  std::iota(t.col_off.begin(), t.col_off.end(), std::size_t{0});
  t.row_run = unit_run(t.row_off);
  t.col_run = unit_run(t.col_off);
}

}  // namespace

std::size_t unit_run(std::span<const std::size_t> off) {
  std::size_t run = 1;
  while (run < off.size() && off[run] == off[run - 1] + 1) ++run;
  for (std::size_t t = run; t < off.size(); ++t) {
    if (t % run != 0 && off[t] != off[t - 1] + 1) return 1;
  }
  return run;
}

GatherTables make_gather_tables(std::vector<std::size_t> row_off,
                                std::vector<std::size_t> col_off) {
  GatherTables t;
  t.row_run = unit_run(row_off);
  t.col_run = unit_run(col_off);
  t.row_off = std::move(row_off);
  t.col_off = std::move(col_off);
  return t;
}

void dgemm_gather(double alpha, const double* a, const GatherTables& at,
                  const double* b, const GatherTables& bt, double beta,
                  double* c, const GatherTables& ct) {
  const std::size_t m = at.row_off.size();
  const std::size_t n = bt.col_off.size();
  const std::size_t k = at.col_off.size();
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0) {
    scale_c(beta, c, ct);
    return;
  }
  if (n == 1) {
    scale_c(beta, c, ct);
    matvec(alpha, a, at, b, bt, c, ct);
    return;
  }
  if (m * n * k < kSmallProblem) {
    // Each product is rounded, then added straight into C, in K order.
    scale_c(beta, c, ct);
    for (std::size_t i = 0; i < m; ++i) {
      const double* a_row = a + at.row_off[i];
      double* c_row = c + ct.row_off[i];
      for (std::size_t p = 0; p < k; ++p) {
        const double aip = alpha * a_row[at.col_off[p]];
        const double* b_row = b + bt.row_off[p];
        for (std::size_t j = 0; j < n; ++j) {
          c_row[ct.col_off[j]] += aip * b_row[bt.col_off[j]];
        }
      }
    }
    return;
  }
  if (beta != 0.0) scale_c(beta, c, ct);
  gemm_blocked(alpha, a, at, b, bt, beta == 0.0, c, ct);
}

void dgemm(std::size_t m, std::size_t n, std::size_t k, double alpha,
           const double* a, std::size_t lda, const double* b, std::size_t ldb,
           double beta, double* c, std::size_t ldc) {
  thread_local GatherTables at, bt, ct;
  strided_tables(m, k, lda, at);
  strided_tables(k, n, ldb, bt);
  strided_tables(m, n, ldc, ct);
  dgemm_gather(alpha, a, at, b, bt, beta, c, ct);
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
