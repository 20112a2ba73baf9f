// Unit tests for the dense kernels (DGEMM, permutations, element-wise).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string_view>
#include <tuple>
#include <vector>

#include "blas/elementwise.hpp"
#include "blas/gemm.hpp"
#include "blas/permute.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace sia::blas {
namespace {

std::vector<double> random_matrix(std::size_t n, std::uint64_t seed) {
  std::vector<double> m(n);
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = 2.0 * unit_double(hash_combine(seed, i)) - 1.0;
  }
  return m;
}

// Tables of a dense row-major rows x cols matrix.
GatherTables dense_tables(std::size_t rows, std::size_t cols) {
  std::vector<std::size_t> row_off(rows), col_off(cols);
  for (std::size_t i = 0; i < rows; ++i) row_off[i] = i * cols;
  std::iota(col_off.begin(), col_off.end(), std::size_t{0});
  return make_gather_tables(std::move(row_off), std::move(col_off));
}

// ---------------------------------------------------------------------
// GEMM: blocked kernel vs naive reference across shapes, alpha/beta.

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(GemmSizes, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  const auto a = random_matrix(static_cast<std::size_t>(m * k), 1);
  const auto b = random_matrix(static_cast<std::size_t>(k * n), 2);
  auto c1 = random_matrix(static_cast<std::size_t>(m * n), 3);
  auto c2 = c1;

  dgemm(m, n, k, 1.3, a.data(), k, b.data(), n, 0.7, c1.data(), n);
  dgemm_naive(m, n, k, 1.3, a.data(), k, b.data(), n, 0.7, c2.data(), n);
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_NEAR(c1[i], c2[i], 1e-11) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16), std::make_tuple(33, 17, 9),
                      std::make_tuple(64, 64, 64), std::make_tuple(70, 130, 50),
                      std::make_tuple(128, 64, 129),
                      std::make_tuple(1, 200, 3)));

TEST(GemmTest, BetaZeroOverwritesGarbage) {
  const std::size_t n = 8;
  const auto a = random_matrix(n * n, 4);
  const auto b = random_matrix(n * n, 5);
  std::vector<double> c(n * n, std::numeric_limits<double>::quiet_NaN());
  dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n);
  for (const double v : c) EXPECT_TRUE(std::isfinite(v));
}

TEST(GemmTest, AlphaZeroOnlyScalesC) {
  const std::size_t n = 6;
  const auto a = random_matrix(n * n, 6);
  const auto b = random_matrix(n * n, 7);
  auto c = random_matrix(n * n, 8);
  const auto original = c;
  dgemm(n, n, n, 0.0, a.data(), n, b.data(), n, 2.0, c.data(), n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_DOUBLE_EQ(c[i], 2.0 * original[i]);
  }
}

TEST(GemmTest, RespectsLeadingDimensions) {
  // 2x2 product embedded in larger strided storage.
  const std::size_t lda = 5, ldb = 4, ldc = 7;
  std::vector<double> a(2 * lda, 0.0), b(2 * ldb, 0.0), c(2 * ldc, -1.0);
  a[0] = 1; a[1] = 2; a[lda] = 3; a[lda + 1] = 4;
  b[0] = 5; b[1] = 6; b[ldb] = 7; b[ldb + 1] = 8;
  dgemm(2, 2, 2, 1.0, a.data(), lda, b.data(), ldb, 0.0, c.data(), ldc);
  EXPECT_DOUBLE_EQ(c[0], 19.0);
  EXPECT_DOUBLE_EQ(c[1], 22.0);
  EXPECT_DOUBLE_EQ(c[ldc], 43.0);
  EXPECT_DOUBLE_EQ(c[ldc + 1], 50.0);
  EXPECT_DOUBLE_EQ(c[2], -1.0);  // outside the logical matrix untouched
}

// ---------------------------------------------------------------------
// Gather GEMM: offset-table addressing must match a materialized
// transpose followed by plain dgemm.

TEST(GemmGatherTest, TransposedOperandsMatchNaive) {
  // A stored column-major (i.e. we multiply A^T), B stored row-major but
  // with shuffled column order; both expressed purely via offset tables.
  const std::size_t m = 37, n = 29, k = 41;
  const auto a_t = random_matrix(k * m, 11);  // a_t[p * m + i] = A(i, p)
  const auto b = random_matrix(k * n, 12);

  std::vector<std::size_t> a_row(m), a_col(k), b_row(k), b_col(n);
  for (std::size_t i = 0; i < m; ++i) a_row[i] = i;
  for (std::size_t p = 0; p < k; ++p) a_col[p] = p * m;
  for (std::size_t p = 0; p < k; ++p) b_row[p] = p * n;
  for (std::size_t j = 0; j < n; ++j) b_col[j] = n - 1 - j;  // reversed

  auto c1 = random_matrix(m * n, 13);
  auto c2 = c1;
  dgemm_gather(1.1, a_t.data(), make_gather_tables(a_row, a_col), b.data(),
               make_gather_tables(b_row, b_col), 0.4, c1.data(),
               dense_tables(m, n));

  // Reference: materialize A and the column-reversed B, then naive.
  std::vector<double> a_mat(m * k), b_mat(k * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) a_mat[i * k + p] = a_t[p * m + i];
  }
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      b_mat[p * n + j] = b[p * n + (n - 1 - j)];
    }
  }
  dgemm_naive(m, n, k, 1.1, a_mat.data(), k, b_mat.data(), n, 0.4, c2.data(),
              n);
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_NEAR(c1[i], c2[i], 1e-11) << "element " << i;
  }
}

// What this CPU offers, asked independently of the library's dispatch.
bool cpu_supports(std::string_view kernel) {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (kernel == "avx512") return __builtin_cpu_supports("avx512f");
  if (kernel == "avx2") {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
#endif
  return kernel == "portable";
}

TEST(GemmKernelTest, SelectionRoundTrip) {
  EXPECT_FALSE(gemm_kernel_name().empty());
  EXPECT_TRUE(select_gemm_kernel("portable"));
  EXPECT_EQ(gemm_kernel_name(), "portable-4x8");
  EXPECT_FALSE(select_gemm_kernel("no-such-kernel"));
  EXPECT_EQ(gemm_kernel_name(), "portable-4x8");
  EXPECT_EQ(select_gemm_kernel("avx2"), cpu_supports("avx2"));
  if (cpu_supports("avx2")) {
    EXPECT_EQ(gemm_kernel_name(), "avx2-6x8");
  }
  EXPECT_EQ(select_gemm_kernel("avx512"), cpu_supports("avx512"));
  if (cpu_supports("avx512")) {
    EXPECT_EQ(gemm_kernel_name(), "avx512-6x32");
  }
  // Auto dispatch takes the widest kernel the CPU has.
  EXPECT_TRUE(select_gemm_kernel("auto"));
  EXPECT_EQ(gemm_kernel_name(), cpu_supports("avx512") ? "avx512-6x32"
                                : cpu_supports("avx2")  ? "avx2-6x8"
                                                        : "portable-4x8");
}

// One random product, run through both entry points: dgemm on row-major
// operands, and dgemm_gather on the same values stored as A^T and with
// B's columns reversed, addressed through offset tables.
struct GemmCase {
  std::size_t m, n, k;
  double beta;
  std::vector<double> a, b, c;  // row-major A (m x k), B (k x n), C
  std::vector<double> a_t, b_rev;
  std::vector<std::size_t> a_row, a_col, b_row, b_col;

  GemmCase(std::size_t m_, std::size_t n_, std::size_t k_, double beta_,
           std::uint64_t seed)
      : m(m_), n(n_), k(k_), beta(beta_),
        a(random_matrix(m * k, seed)), b(random_matrix(k * n, seed + 1)),
        c(random_matrix(m * n, seed + 2)), a_t(k * m), b_rev(k * n),
        a_row(m), a_col(k), b_row(k), b_col(n) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t p = 0; p < k; ++p) a_t[p * m + i] = a[i * k + p];
    }
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < n; ++j) {
        b_rev[p * n + (n - 1 - j)] = b[p * n + j];
      }
    }
    for (std::size_t i = 0; i < m; ++i) a_row[i] = i;
    for (std::size_t p = 0; p < k; ++p) a_col[p] = p * m;
    for (std::size_t p = 0; p < k; ++p) b_row[p] = p * n;
    for (std::size_t j = 0; j < n; ++j) b_col[j] = n - 1 - j;
  }

  std::vector<double> run_dgemm() const {
    std::vector<double> out = c;
    dgemm(m, n, k, 1.3, a.data(), k, b.data(), n, beta, out.data(), n);
    return out;
  }
  std::vector<double> run_gather() const {
    std::vector<double> out = c;
    dgemm_gather(1.3, a_t.data(), make_gather_tables(a_row, a_col),
                 b_rev.data(), make_gather_tables(b_row, b_col), beta,
                 out.data(), dense_tables(m, n));
    return out;
  }
  std::vector<double> run_naive() const {
    std::vector<double> out = c;
    dgemm_naive(m, n, k, 1.3, a.data(), k, b.data(), n, beta, out.data(), n);
    return out;
  }
  // Per-element rounding scale: |alpha| * sum_p |A(i,p)| |B(p,j)| +
  // |beta * C(i,j)|, at least 1.
  std::vector<double> scale() const {
    std::vector<double> abs_a(a.size()), abs_b(b.size()), abs_c(c.size());
    for (std::size_t i = 0; i < a.size(); ++i) abs_a[i] = std::abs(a[i]);
    for (std::size_t i = 0; i < b.size(); ++i) abs_b[i] = std::abs(b[i]);
    for (std::size_t i = 0; i < c.size(); ++i) abs_c[i] = std::abs(c[i]);
    dgemm_naive(m, n, k, 1.3, abs_a.data(), k, abs_b.data(), n,
                std::abs(beta), abs_c.data(), n);
    for (double& v : abs_c) v = std::max(1.0, v);
    return abs_c;
  }
};

void expect_near_naive(const GemmCase& g, const std::vector<double>& got,
                       const char* what) {
  const std::vector<double> want = g.run_naive();
  const std::vector<double> scale = g.scale();
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_LE(std::abs(got[i] - want[i]), 1e-12 * scale[i])
        << what << " m=" << g.m << " n=" << g.n << " k=" << g.k
        << " beta=" << g.beta << " element " << i;
  }
}

// Random shapes with m, n, k in 1..600: multiple KC slabs, ragged edge
// tiles in both directions, tiny products and the matrix-vector path all
// occur.
std::vector<GemmCase> random_cases() {
  std::vector<GemmCase> cases;
  const double betas[] = {0.0, 1.0, 0.7};
  for (std::uint64_t t = 0; t < 24; ++t) {
    const auto dim = [t](std::uint64_t salt) {
      return 1 + static_cast<std::size_t>(
                     600.0 * unit_double(hash_combine(0x6e6d6b + salt, t)));
    };
    cases.emplace_back(dim(1), dim(2), dim(3), betas[t % 3], 100 + 3 * t);
  }
  return cases;
}

TEST(GemmKernelTest, PortableKernelMatchesNaive) {
  ASSERT_TRUE(select_gemm_kernel("portable"));
  for (const GemmCase& g : random_cases()) {
    expect_near_naive(g, g.run_dgemm(), "dgemm");
    expect_near_naive(g, g.run_gather(), "dgemm_gather");
  }
  ASSERT_TRUE(select_gemm_kernel("auto"));
}

// Every SIMD kernel computes each C element as the same per-KC FMA chain,
// so avx512-6x32's results are byte-identical to avx2-6x8's, whatever the
// tile shape; any drift means a kernel changed the summation order.
TEST(GemmKernelTest, SimdKernelsAreBitIdentical) {
  if (!cpu_supports("avx2") || !cpu_supports("avx512")) {
    GTEST_SKIP() << "CPU lacks avx2/fma or avx512f";
  }
  const std::vector<GemmCase> cases = random_cases();
  std::vector<std::vector<double>> reference;
  ASSERT_TRUE(select_gemm_kernel("avx2"));
  for (const GemmCase& g : cases) {
    reference.push_back(g.run_dgemm());
    reference.push_back(g.run_gather());
  }
  ASSERT_TRUE(select_gemm_kernel("avx512"));
  for (std::size_t t = 0; t < cases.size(); ++t) {
    const GemmCase& g = cases[t];
    const std::vector<double> plain = g.run_dgemm();
    const std::vector<double> gather = g.run_gather();
    EXPECT_EQ(std::memcmp(plain.data(), reference[2 * t].data(),
                          plain.size() * sizeof(double)),
              0)
        << "dgemm m=" << g.m << " n=" << g.n << " k=" << g.k;
    EXPECT_EQ(std::memcmp(gather.data(), reference[2 * t + 1].data(),
                          gather.size() * sizeof(double)),
              0)
        << "dgemm_gather m=" << g.m << " n=" << g.n << " k=" << g.k;
  }
  ASSERT_TRUE(select_gemm_kernel("auto"));
}

// n == 1 products skip the blocked driver; they must still match the
// reference for plain and gathered operands. The m == 1 shapes cover the
// blocked driver's one-row edge tiles.
TEST(GemmMatvecTest, VectorShapesMatchNaive) {
  const std::size_t shapes[][3] = {{1, 1, 1},    {1, 1, 9},   {300, 1, 7},
                                   {64, 1, 64},  {256, 1, 256}, {1, 300, 7},
                                   {1, 64, 64},  {1, 257, 513}, {600, 1, 3}};
  for (const auto& shape : shapes) {
    for (const double beta : {0.0, 1.0, 0.7}) {
      const GemmCase g(shape[0], shape[1], shape[2], beta, 7);
      expect_near_naive(g, g.run_dgemm(), "dgemm");
      expect_near_naive(g, g.run_gather(), "dgemm_gather");
    }
  }
}

// The Fock build's exchange contraction K(mu,nu) = vx(mu,la,nu,si) *
// D(la,si): a gathered A whose contracted axes are not adjacent.
TEST(GemmMatvecTest, GatheredExchangeShapeMatchesNaive) {
  for (const std::size_t seg : {3, 8, 16}) {
    const std::size_t m = seg * seg, k = seg * seg;
    const auto vx = random_matrix(m * k, 31);  // vx(mu,la,nu,si)
    const auto d = random_matrix(k, 32);       // D(la,si)
    std::vector<std::size_t> a_row(m), a_col(k), b_row(k), b_col(1, 0);
    for (std::size_t x = 0; x < seg; ++x) {
      for (std::size_t y = 0; y < seg; ++y) {
        a_row[x * seg + y] = x * seg * seg * seg + y * seg;  // (mu,nu)
        a_col[x * seg + y] = x * seg * seg + y;              // (la,si)
        b_row[x * seg + y] = x * seg + y;
      }
    }
    auto got = random_matrix(m, 33);
    auto want = got;
    dgemm_gather(1.0, vx.data(), make_gather_tables(a_row, a_col), d.data(),
                 make_gather_tables(b_row, b_col), 0.7, got.data(),
                 dense_tables(m, 1));
    std::vector<double> a_mat(m * k);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t p = 0; p < k; ++p) {
        a_mat[i * k + p] = vx[a_row[i] + a_col[p]];
      }
    }
    dgemm_naive(m, 1, k, 1.0, a_mat.data(), k, d.data(), 1, 0.7, want.data(),
                1);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-12 * std::max(1.0, std::abs(want[i])))
          << "seg " << seg << " row " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Permutations.

TEST(PermuteTest, Rank2Transpose) {
  const std::vector<int> dims = {2, 3};
  const std::vector<double> src = {1, 2, 3, 4, 5, 6};
  std::vector<double> dst(6);
  const std::vector<int> perm = {1, 0};
  permute(src.data(), dims, perm, dst.data());
  // dst is 3x2: dst[j][i] = src[i][j].
  EXPECT_EQ(dst, (std::vector<double>{1, 4, 2, 5, 3, 6}));
}

TEST(PermuteTest, IdentityIsCopy) {
  const std::vector<int> dims = {3, 2, 2};
  const auto src = random_matrix(12, 9);
  std::vector<double> dst(12);
  permute(src.data(), dims, std::vector<int>{0, 1, 2}, dst.data());
  EXPECT_EQ(dst, src);
}

TEST(PermuteTest, AccumulateAddsPermuted) {
  const std::vector<int> dims = {2, 2};
  const std::vector<double> src = {1, 2, 3, 4};
  std::vector<double> dst = {10, 10, 10, 10};
  permute_acc(src.data(), dims, std::vector<int>{1, 0}, dst.data());
  EXPECT_EQ(dst, (std::vector<double>{11, 13, 12, 14}));
}

// All 24 rank-4 permutations validated against direct index remapping.
class Rank4Perms : public ::testing::TestWithParam<std::array<int, 4>> {};

TEST_P(Rank4Perms, MatchesDirectRemap) {
  const std::array<int, 4> perm_array = GetParam();
  const std::vector<int> perm(perm_array.begin(), perm_array.end());
  const std::vector<int> dims = {2, 3, 4, 5};
  const auto src = random_matrix(120, 11);
  std::vector<double> dst(120);
  permute(src.data(), dims, perm, dst.data());

  const std::vector<int> out_dims = permuted_dims(dims, perm);
  std::vector<std::size_t> src_strides(4), dst_strides(4);
  src_strides[3] = 1;
  dst_strides[3] = 1;
  for (int d = 2; d >= 0; --d) {
    src_strides[d] = src_strides[d + 1] * static_cast<std::size_t>(dims[d + 1]);
    dst_strides[d] =
        dst_strides[d + 1] * static_cast<std::size_t>(out_dims[d + 1]);
  }
  int idx[4];
  for (idx[0] = 0; idx[0] < out_dims[0]; ++idx[0]) {
    for (idx[1] = 0; idx[1] < out_dims[1]; ++idx[1]) {
      for (idx[2] = 0; idx[2] < out_dims[2]; ++idx[2]) {
        for (idx[3] = 0; idx[3] < out_dims[3]; ++idx[3]) {
          std::size_t d_off = 0, s_off = 0;
          for (int d = 0; d < 4; ++d) {
            d_off += dst_strides[d] * static_cast<std::size_t>(idx[d]);
            s_off += src_strides[static_cast<std::size_t>(perm[d])] *
                     static_cast<std::size_t>(idx[d]);
          }
          ASSERT_DOUBLE_EQ(dst[d_off], src[s_off]);
        }
      }
    }
  }
}

std::vector<std::array<int, 4>> all_rank4_perms() {
  std::array<int, 4> p = {0, 1, 2, 3};
  std::vector<std::array<int, 4>> out;
  do {
    out.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));
  return out;
}

INSTANTIATE_TEST_SUITE_P(All24, Rank4Perms,
                         ::testing::ValuesIn(all_rank4_perms()));

// Extents beyond the 16x16 cache tile (and not multiples of it) exercise
// the tiled-transpose path's interior tiles and ragged edges.
TEST(PermuteTest, TiledPathLargeExtents) {
  const std::vector<int> dims = {19, 3, 33};
  const std::vector<int> perm = {2, 1, 0};  // src fastest axis moves first
  const auto src = random_matrix(19 * 3 * 33, 21);
  std::vector<double> dst(src.size());
  permute(src.data(), dims, perm, dst.data());
  std::vector<double> acc(src.size(), 1.0);
  permute_acc(src.data(), dims, perm, acc.data());
  for (int i = 0; i < 19; ++i) {
    for (int j = 0; j < 3; ++j) {
      for (int k = 0; k < 33; ++k) {
        const std::size_t s = static_cast<std::size_t>((i * 3 + j) * 33 + k);
        const std::size_t d = static_cast<std::size_t>((k * 3 + j) * 19 + i);
        ASSERT_DOUBLE_EQ(dst[d], src[s]);
        ASSERT_DOUBLE_EQ(acc[d], 1.0 + src[s]);
      }
    }
  }
}

TEST(PermuteTest, IsPermutationValidation) {
  EXPECT_TRUE(is_permutation(std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(is_permutation(std::vector<int>{2, 0, 1}));
  EXPECT_FALSE(is_permutation(std::vector<int>{0, 0, 1}));
  EXPECT_FALSE(is_permutation(std::vector<int>{0, 1, 3}));
  EXPECT_FALSE(is_permutation(std::vector<int>{-1, 0, 1}));
}

TEST(PermuteTest, Rank1IsCopy) {
  const std::vector<int> dims = {7};
  const auto src = random_matrix(7, 13);
  std::vector<double> dst(7);
  permute(src.data(), dims, std::vector<int>{0}, dst.data());
  EXPECT_EQ(dst, src);
}

TEST(PermuteTest, Rank6Reverse) {
  const std::vector<int> dims = {2, 2, 2, 2, 2, 2};
  const auto src = random_matrix(64, 17);
  std::vector<double> dst(64), back(64);
  const std::vector<int> reverse = {5, 4, 3, 2, 1, 0};
  permute(src.data(), dims, reverse, dst.data());
  permute(dst.data(), dims, reverse, back.data());
  EXPECT_EQ(back, src);  // reversal is an involution for equal extents
}

// ---------------------------------------------------------------------
// Element-wise kernels.

TEST(ElementwiseTest, FillScalShift) {
  std::vector<double> x(5);
  fill(x, 3.0);
  EXPECT_EQ(x, (std::vector<double>(5, 3.0)));
  scal(x, 2.0);
  EXPECT_EQ(x, (std::vector<double>(5, 6.0)));
  shift(x, -1.0);
  EXPECT_EQ(x, (std::vector<double>(5, 5.0)));
}

TEST(ElementwiseTest, AxpyAndCopy) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {10, 20, 30};
  axpy(2.0, x, y);
  EXPECT_EQ(y, (std::vector<double>{12, 24, 36}));
  copy(x, y);
  EXPECT_EQ(y, x);
}

TEST(ElementwiseTest, AddSubHadamard) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {4, 5, 6};
  std::vector<double> z(3);
  add(x, y, z);
  EXPECT_EQ(z, (std::vector<double>{5, 7, 9}));
  sub(x, y, z);
  EXPECT_EQ(z, (std::vector<double>{-3, -3, -3}));
  hadamard(x, y, z);
  EXPECT_EQ(z, (std::vector<double>{4, 10, 18}));
}

TEST(ElementwiseTest, Reductions) {
  const std::vector<double> x = {3, -4, 0};
  EXPECT_DOUBLE_EQ(dot(x, x), 25.0);
  EXPECT_DOUBLE_EQ(asum(x), 7.0);
  EXPECT_DOUBLE_EQ(nrm2(x), 5.0);
  EXPECT_DOUBLE_EQ(max_abs(x), 4.0);
}

TEST(ElementwiseTest, SizeMismatchThrows) {
  std::vector<double> x(3), y(4);
  EXPECT_THROW(copy(x, y), sia::InternalError);
  EXPECT_THROW(axpy(1.0, x, y), sia::InternalError);
  EXPECT_THROW(dot(x, y), sia::InternalError);
}

}  // namespace
}  // namespace sia::blas
