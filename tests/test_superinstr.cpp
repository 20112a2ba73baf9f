// Unit tests for the intrinsic block kernels and the super-instruction
// registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <random>
#include <span>
#include <tuple>

#include "blas/contraction_plan.hpp"
#include "blas/elementwise.hpp"
#include "blas/gemm.hpp"
#include "block/block.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sip/superinstr.hpp"

namespace sia::sip {
namespace {

Block random_block(std::vector<int> extents, std::uint64_t seed) {
  Block block{BlockShape(extents)};
  auto data = block.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 2.0 * unit_double(hash_combine(seed, i)) - 1.0;
  }
  return block;
}

// ---------------------------------------------------------------------
// block_contract against explicit loops.

TEST(ContractTest, MatrixMultiply) {
  // c(0,2) = a(0,1) * b(1,2): plain matmul with ids {0,1},{1,2}->{0,2}.
  Block a = random_block({3, 4}, 1);
  Block b = random_block({4, 5}, 2);
  Block c(BlockShape(std::vector<int>{3, 5}));
  block_contract(c, std::vector<int>{0, 2}, a, std::vector<int>{0, 1}, b,
                 std::vector<int>{1, 2}, false);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 5; ++j) {
      double want = 0.0;
      for (int k = 0; k < 4; ++k) {
        want += a.at(std::vector<int>{i, k}) * b.at(std::vector<int>{k, j});
      }
      EXPECT_NEAR(c.at(std::vector<int>{i, j}), want, 1e-12);
    }
  }
}

TEST(ContractTest, AccumulateAddsToExisting) {
  Block a = random_block({2, 2}, 3);
  Block b = random_block({2, 2}, 4);
  Block c(BlockShape(std::vector<int>{2, 2}));
  blas::fill(c.data(), 1.0);
  block_contract(c, std::vector<int>{0, 2}, a, std::vector<int>{0, 1}, b,
                 std::vector<int>{1, 2}, true);
  double want = 1.0;
  for (int k = 0; k < 2; ++k) {
    want += a.at(std::vector<int>{0, k}) * b.at(std::vector<int>{k, 0});
  }
  EXPECT_NEAR(c.at(std::vector<int>{0, 0}), want, 1e-12);
}

TEST(ContractTest, PermutedDestination) {
  // c(j,i) = sum_k a(i,k) b(k,j) — destination order swapped.
  Block a = random_block({3, 4}, 5);
  Block b = random_block({4, 2}, 6);
  Block c(BlockShape(std::vector<int>{2, 3}));
  block_contract(c, std::vector<int>{2, 0}, a, std::vector<int>{0, 1}, b,
                 std::vector<int>{1, 2}, false);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) {
      double want = 0.0;
      for (int k = 0; k < 4; ++k) {
        want += a.at(std::vector<int>{i, k}) * b.at(std::vector<int>{k, j});
      }
      EXPECT_NEAR(c.at(std::vector<int>{j, i}), want, 1e-12);
    }
  }
}

TEST(ContractTest, Rank4PaperContraction) {
  // R(m,n,i,j) = sum_{l,s} V(m,n,l,s) T(l,s,i,j) — the §III example.
  enum { m = 10, n = 11, l = 12, s = 13, i = 14, j = 15 };
  Block v = random_block({2, 3, 2, 2}, 7);
  Block t = random_block({2, 2, 3, 2}, 8);
  Block r(BlockShape(std::vector<int>{2, 3, 3, 2}));
  block_contract(r, std::vector<int>{m, n, i, j}, v,
                 std::vector<int>{m, n, l, s}, t,
                 std::vector<int>{l, s, i, j}, false);
  for (int im = 0; im < 2; ++im) {
    for (int in = 0; in < 3; ++in) {
      for (int ii = 0; ii < 3; ++ii) {
        for (int ij = 0; ij < 2; ++ij) {
          double want = 0.0;
          for (int il = 0; il < 2; ++il) {
            for (int is = 0; is < 2; ++is) {
              want += v.at(std::vector<int>{im, in, il, is}) *
                      t.at(std::vector<int>{il, is, ii, ij});
            }
          }
          ASSERT_NEAR(r.at(std::vector<int>{im, in, ii, ij}), want, 1e-12);
        }
      }
    }
  }
}

TEST(ContractTest, InnerContractedIndices) {
  // Contracted index NOT trailing: c(i,j) = sum_k a(k,i) b(j,k).
  Block a = random_block({4, 3}, 9);
  Block b = random_block({2, 4}, 10);
  Block c(BlockShape(std::vector<int>{3, 2}));
  block_contract(c, std::vector<int>{1, 2}, a, std::vector<int>{0, 1}, b,
                 std::vector<int>{2, 0}, false);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) {
      double want = 0.0;
      for (int k = 0; k < 4; ++k) {
        want += a.at(std::vector<int>{k, i}) * b.at(std::vector<int>{j, k});
      }
      EXPECT_NEAR(c.at(std::vector<int>{i, j}), want, 1e-12);
    }
  }
}

TEST(ContractTest, OuterProduct) {
  Block a = random_block({3}, 11);
  Block b = random_block({4}, 12);
  Block c(BlockShape(std::vector<int>{3, 4}));
  block_contract(c, std::vector<int>{0, 1}, a, std::vector<int>{0}, b,
                 std::vector<int>{1}, false);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_NEAR(c.at(std::vector<int>{i, j}),
                  a.at(std::vector<int>{i}) * b.at(std::vector<int>{j}),
                  1e-12);
    }
  }
}

TEST(ContractTest, DestinationSharedWithOperand) {
  // t(i,j) = t(i,k) * y(k,j) at j == k reads the block it writes; so does
  // t(i,j) = y(i,k) * t(k,j) at i == k. The result must equal the same
  // contraction from an unaliased copy, bit for bit.
  const std::vector<int> ik = {0, 1}, kj = {1, 2}, ij = {0, 2};
  for (const bool accumulate : {false, true}) {
    for (const bool dst_is_a : {true, false}) {
      SCOPED_TRACE(testing::Message() << "accumulate " << accumulate
                                      << " dst_is_a " << dst_is_a);
      Block t = random_block({9, 9}, 41);
      const Block y = random_block({9, 9}, 42);
      const Block before = t.clone();
      Block want = t.clone();
      if (dst_is_a) {
        block_contract(want, ij, before, ik, y, kj, accumulate);
        block_contract(t, ij, t, ik, y, kj, accumulate);
      } else {
        block_contract(want, ij, y, ik, before, kj, accumulate);
        block_contract(t, ij, y, ik, t, kj, accumulate);
      }
      EXPECT_EQ(std::memcmp(t.data().data(), want.data().data(),
                            t.size() * sizeof(double)),
                0);
    }
  }
}

TEST(ContractTest, ExtentMismatchThrows) {
  Block a = random_block({3, 4}, 13);
  Block b = random_block({5, 2}, 14);  // contracted extents 4 vs 5
  Block c(BlockShape(std::vector<int>{3, 2}));
  EXPECT_THROW(block_contract(c, std::vector<int>{0, 2}, a,
                              std::vector<int>{0, 1}, b,
                              std::vector<int>{1, 2}, false),
               RuntimeError);
}

// ---------------------------------------------------------------------
// block_dot.

TEST(BlockDotTest, MatchesManualSum) {
  Block a = random_block({3, 4}, 15);
  Block b = random_block({3, 4}, 16);
  const double got =
      block_dot(a, std::vector<int>{0, 1}, b, std::vector<int>{0, 1});
  double want = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    want += a.data()[i] * b.data()[i];
  }
  EXPECT_NEAR(got, want, 1e-12);
}

TEST(BlockDotTest, PermutedOperand) {
  // dot of a(i,j) with b(j,i): sum a[i][j]*b[j][i].
  Block a = random_block({3, 4}, 17);
  Block b = random_block({4, 3}, 18);
  const double got =
      block_dot(a, std::vector<int>{0, 1}, b, std::vector<int>{1, 0});
  double want = 0.0;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) {
      want += a.at(std::vector<int>{i, j}) * b.at(std::vector<int>{j, i});
    }
  }
  EXPECT_NEAR(got, want, 1e-12);
}

TEST(BlockDotTest, MismatchedSetsThrow) {
  Block a = random_block({2, 2}, 19);
  Block b = random_block({2, 2}, 20);
  EXPECT_THROW(
      block_dot(a, std::vector<int>{0, 1}, b, std::vector<int>{0, 2}),
      RuntimeError);
}

// ---------------------------------------------------------------------
// Copy / add kernels.

TEST(CopyPermuteTest, AllModes) {
  Block src = random_block({2, 3}, 21);
  Block dst(BlockShape(std::vector<int>{3, 2}));
  block_copy_permute(dst, std::vector<int>{1, 0}, src,
                     std::vector<int>{0, 1}, CopyMode::kAssign);
  EXPECT_EQ(dst.at(std::vector<int>{2, 1}), src.at(std::vector<int>{1, 2}));

  Block acc = dst.clone();
  block_copy_permute(acc, std::vector<int>{1, 0}, src,
                     std::vector<int>{0, 1}, CopyMode::kAccumulate);
  EXPECT_NEAR(acc.at(std::vector<int>{0, 0}),
              2.0 * src.at(std::vector<int>{0, 0}), 1e-12);

  block_copy_permute(acc, std::vector<int>{1, 0}, src,
                     std::vector<int>{0, 1}, CopyMode::kSubtract);
  EXPECT_NEAR(acc.at(std::vector<int>{0, 0}),
              src.at(std::vector<int>{0, 0}), 1e-12);
}

TEST(BlockAddTest, AddAndSubtractWithPermutations) {
  Block a = random_block({2, 3}, 22);
  Block b = random_block({3, 2}, 23);
  Block c(BlockShape(std::vector<int>{2, 3}));
  block_add(c, std::vector<int>{0, 1}, a, std::vector<int>{0, 1}, b,
            std::vector<int>{1, 0}, /*subtract=*/false,
            /*accumulate=*/false);
  EXPECT_NEAR(c.at(std::vector<int>{1, 2}),
              a.at(std::vector<int>{1, 2}) + b.at(std::vector<int>{2, 1}),
              1e-12);
  block_add(c, std::vector<int>{0, 1}, a, std::vector<int>{0, 1}, b,
            std::vector<int>{1, 0}, /*subtract=*/true, /*accumulate=*/true);
  EXPECT_NEAR(c.at(std::vector<int>{1, 2}),
              2.0 * a.at(std::vector<int>{1, 2}), 1e-12);
}

// ---------------------------------------------------------------------
// Property test: block_contract (gather packing, SIMD micro-kernel, plan
// cache) against a naive index-loop reference, across randomized ranks,
// shuffled id orders, unequal extents, and both accumulate modes. This is
// the safety net for the contraction engine.

// Reference contraction: explicit loops over every destination element
// and every assignment of the contracted ids.
void naive_contract(Block& dst, std::span<const int> dst_ids, const Block& a,
                    std::span<const int> a_ids, const Block& b,
                    std::span<const int> b_ids, bool accumulate) {
  std::vector<int> common_ids, common_ext;
  for (std::size_t d = 0; d < a_ids.size(); ++d) {
    if (std::find(b_ids.begin(), b_ids.end(), a_ids[d]) != b_ids.end()) {
      common_ids.push_back(a_ids[d]);
      common_ext.push_back(a.shape().extent(static_cast<int>(d)));
    }
  }
  const auto index_for = [](std::span<const int> ids,
                            const std::map<int, int>& values) {
    std::vector<int> index;
    for (const int id : ids) index.push_back(values.at(id));
    return index;
  };

  std::map<int, int> values;
  std::vector<int> dst_counter(dst_ids.size(), 0);
  const std::size_t dst_total = dst.size();
  for (std::size_t out = 0; out < dst_total; ++out) {
    for (std::size_t d = 0; d < dst_ids.size(); ++d) {
      values[dst_ids[d]] = dst_counter[d];
    }
    double sum = 0.0;
    std::vector<int> k_counter(common_ids.size(), 0);
    std::size_t k_total = 1;
    for (const int e : common_ext) k_total *= static_cast<std::size_t>(e);
    for (std::size_t kk = 0; kk < k_total; ++kk) {
      for (std::size_t d = 0; d < common_ids.size(); ++d) {
        values[common_ids[d]] = k_counter[d];
      }
      sum += a.at(index_for(a_ids, values)) * b.at(index_for(b_ids, values));
      for (int d = static_cast<int>(common_ids.size()) - 1; d >= 0; --d) {
        const std::size_t ud = static_cast<std::size_t>(d);
        if (++k_counter[ud] < common_ext[ud]) break;
        k_counter[ud] = 0;
      }
    }
    const std::vector<int> dst_index = index_for(dst_ids, values);
    if (accumulate) {
      dst.at(dst_index) += sum;
    } else {
      dst.at(dst_index) = sum;
    }
    for (int d = static_cast<int>(dst_ids.size()) - 1; d >= 0; --d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (++dst_counter[ud] < dst.shape().extent(d)) break;
      dst_counter[ud] = 0;
    }
  }
}

TEST(ContractPropertyTest, MatchesNaiveReferenceAcrossRandomCases) {
  constexpr int kCases = 250;
  constexpr double kRelTol = 1e-10;
  const std::vector<int> extent_choices = {1, 2, 3, 4, 5, 7};

  for (int t = 0; t < kCases; ++t) {
    std::mt19937 rng(static_cast<std::uint32_t>(1000 + t));
    const auto pick = [&rng](int lo, int hi) {
      return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
    };
    const int a_rank = pick(1, 4);
    const int b_rank = pick(1, 4);
    // Valid contracted-id counts: dst rank in 1..kMaxRank.
    std::vector<int> valid_c;
    for (int c = 0; c <= std::min(a_rank, b_rank); ++c) {
      const int dst_rank = a_rank + b_rank - 2 * c;
      if (dst_rank >= 1 && dst_rank <= blas::kMaxRank) valid_c.push_back(c);
    }
    ASSERT_FALSE(valid_c.empty());
    const int num_common =
        valid_c[static_cast<std::size_t>(pick(0, static_cast<int>(valid_c.size()) - 1))];

    // Distinct ids with random extents; id numbering shuffled so the axis
    // partition sees arbitrary orders.
    const int num_ids = a_rank + b_rank - num_common;
    std::vector<int> ids(static_cast<std::size_t>(num_ids));
    std::iota(ids.begin(), ids.end(), 10);
    std::shuffle(ids.begin(), ids.end(), rng);
    std::map<int, int> extent_of;
    for (const int id : ids) {
      extent_of[id] =
          extent_choices[rng() % extent_choices.size()];
    }
    const std::vector<int> common(ids.begin(), ids.begin() + num_common);
    std::vector<int> a_ids(common);
    std::vector<int> b_ids(common);
    std::vector<int> dst_ids;
    for (int i = num_common; i < num_ids; ++i) {
      if (i - num_common < a_rank - num_common) {
        a_ids.push_back(ids[static_cast<std::size_t>(i)]);
      } else {
        b_ids.push_back(ids[static_cast<std::size_t>(i)]);
      }
      dst_ids.push_back(ids[static_cast<std::size_t>(i)]);
    }
    std::shuffle(a_ids.begin(), a_ids.end(), rng);
    std::shuffle(b_ids.begin(), b_ids.end(), rng);
    std::shuffle(dst_ids.begin(), dst_ids.end(), rng);

    const auto extents_for = [&extent_of](const std::vector<int>& arr_ids) {
      std::vector<int> extents;
      for (const int id : arr_ids) extents.push_back(extent_of.at(id));
      return extents;
    };
    Block a = random_block(extents_for(a_ids),
                           static_cast<std::uint64_t>(2 * t + 1));
    Block b = random_block(extents_for(b_ids),
                           static_cast<std::uint64_t>(2 * t + 2));
    const bool accumulate = (t % 2) == 1;
    Block got = random_block(extents_for(dst_ids),
                             static_cast<std::uint64_t>(3 * t + 5));
    Block want = got.clone();

    block_contract(got, dst_ids, a, a_ids, b, b_ids, accumulate);
    naive_contract(want, dst_ids, a, a_ids, b, b_ids, accumulate);

    for (std::size_t i = 0; i < got.size(); ++i) {
      const double g = got.data()[i];
      const double w = want.data()[i];
      ASSERT_LE(std::abs(g - w), kRelTol * std::max(1.0, std::abs(w)))
          << "case " << t << " element " << i << ": got " << g << " want "
          << w;
    }
  }
}

// gemm.hpp's rounding rule written out per element: K runs over a's
// contracted ids in a's order (last fastest); each 256-long slab of it is
// one std::fma chain from zero, added into the destination element in
// turn. Assign starts the element at zero.
void fma_reference_contract(Block& dst, std::span<const int> dst_ids,
                            const Block& a, std::span<const int> a_ids,
                            const Block& b, std::span<const int> b_ids,
                            bool accumulate) {
  constexpr std::size_t kSlab = 256;
  // Stride of `id` in x (0 when x lacks it).
  const auto stride_of = [](const Block& x, std::span<const int> ids,
                            int id) {
    std::size_t stride = 1;
    for (int d = x.shape().rank() - 1; d >= 0; --d) {
      if (ids[static_cast<std::size_t>(d)] == id) return stride;
      stride *= static_cast<std::size_t>(x.shape().extent(d));
    }
    return std::size_t{0};
  };
  // Appends `id` as the fastest axis of a list of (a, b) offset pairs.
  const auto expand = [&](std::vector<std::size_t>& a_off,
                          std::vector<std::size_t>& b_off, int id,
                          int extent) {
    const std::size_t as = stride_of(a, a_ids, id);
    const std::size_t bs = stride_of(b, b_ids, id);
    std::vector<std::size_t> next_a, next_b;
    for (std::size_t x = 0; x < a_off.size(); ++x) {
      for (std::size_t v = 0; v < static_cast<std::size_t>(extent); ++v) {
        next_a.push_back(a_off[x] + v * as);
        next_b.push_back(b_off[x] + v * bs);
      }
    }
    a_off = std::move(next_a);
    b_off = std::move(next_b);
  };
  std::vector<std::size_t> a_k = {0}, b_k = {0};
  for (std::size_t d = 0; d < a_ids.size(); ++d) {
    if (std::find(b_ids.begin(), b_ids.end(), a_ids[d]) != b_ids.end()) {
      expand(a_k, b_k, a_ids[d], a.shape().extent(static_cast<int>(d)));
    }
  }
  std::vector<std::size_t> a_e = {0}, b_e = {0};
  for (std::size_t d = 0; d < dst_ids.size(); ++d) {
    expand(a_e, b_e, dst_ids[d], dst.shape().extent(static_cast<int>(d)));
  }
  const std::span<const double> av = a.data(), bv = b.data();
  const std::span<double> out = dst.data();
  for (std::size_t e = 0; e < out.size(); ++e) {
    double c = accumulate ? out[e] : 0.0;
    for (std::size_t s0 = 0; s0 < a_k.size(); s0 += kSlab) {
      double chain = 0.0;
      for (std::size_t p = s0; p < std::min(s0 + kSlab, a_k.size()); ++p) {
        chain = std::fma(av[a_e[e] + a_k[p]], bv[b_e[e] + b_k[p]], chain);
      }
      c += chain;
    }
    out[e] = c;
  }
}

TEST(ContractPropertyTest, MatchesPerElementFmaReference) {
  // block_contract rounds every blocked product by that rule, byte for
  // byte: random rank-1..4 operands with shuffled id orders, extents
  // 1..19, contracted lengths past one slab, assign and accumulate, each
  // SIMD kernel. Products under 32^3 flops take the direct loop, and a
  // product whose b has a free extent product of 1 is a matrix-vector
  // product; both round differently and are left out. a's free extents
  // may multiply to 1, whatever dst's order: a one-row GEMM.
  constexpr int kCases = 300;
  constexpr std::size_t kMinWork = 32 * 32 * 32;  // dst elements x K
  constexpr std::size_t kMaxWork = 200000;
  int kernels_run = 0;
  for (const char* kernel : {"avx2", "avx512"}) {
    if (!blas::select_gemm_kernel(kernel)) continue;
    ++kernels_run;
    int multi_slab = 0;
    for (int t = 0; t < kCases; ++t) {
      std::mt19937 rng(static_cast<std::uint32_t>(7000 + t));
      const auto pick = [&rng](int lo, int hi) {
        return lo +
               static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
      };
      // ids: [common..., a free..., b free...]; redrawn until the product
      // takes the blocked path.
      std::vector<int> a_ids, b_ids, dst_ids;
      std::map<int, int> extent_of;
      std::size_t k = 1;
      for (bool blocked = false; !blocked;) {
        const int a_rank = pick(1, 4);
        const int b_rank = pick(1, 4);
        const int num_common =
            pick(std::max(0, a_rank + b_rank - blas::kMaxRank),
                 std::min(a_rank, b_rank - 1));
        const int num_ids = a_rank + b_rank - num_common;
        std::vector<int> ids(static_cast<std::size_t>(num_ids));
        std::iota(ids.begin(), ids.end(), 20);
        std::shuffle(ids.begin(), ids.end(), rng);
        const auto first = ids.begin();
        a_ids.assign(first, first + a_rank);
        b_ids.assign(first, first + num_common);
        b_ids.insert(b_ids.end(), first + a_rank, ids.end());
        dst_ids.assign(first + num_common, ids.end());
        std::size_t a_free = 1, b_free = 1;
        k = 1;
        extent_of.clear();
        for (int i = 0; i < num_ids; ++i) {
          const int e = pick(1, 19);
          extent_of[ids[static_cast<std::size_t>(i)]] = e;
          const auto ue = static_cast<std::size_t>(e);
          (i < num_common ? k : i < a_rank ? a_free : b_free) *= ue;
        }
        const std::size_t work = a_free * b_free * k;
        blocked = b_free >= 2 && work >= kMinWork && work <= kMaxWork;
      }
      std::shuffle(a_ids.begin(), a_ids.end(), rng);
      std::shuffle(b_ids.begin(), b_ids.end(), rng);
      std::shuffle(dst_ids.begin(), dst_ids.end(), rng);
      if (k > 256) ++multi_slab;

      const auto extents_for = [&extent_of](const std::vector<int>& arr_ids) {
        std::vector<int> extents;
        for (const int id : arr_ids) extents.push_back(extent_of.at(id));
        return extents;
      };
      const Block a = random_block(extents_for(a_ids),
                                   static_cast<std::uint64_t>(4 * t + 1));
      const Block b = random_block(extents_for(b_ids),
                                   static_cast<std::uint64_t>(4 * t + 2));
      const bool accumulate = (t % 2) == 1;
      Block got = random_block(extents_for(dst_ids),
                               static_cast<std::uint64_t>(4 * t + 3));
      Block want = got.clone();
      block_contract(got, dst_ids, a, a_ids, b, b_ids, accumulate);
      fma_reference_contract(want, dst_ids, a, a_ids, b, b_ids, accumulate);
      ASSERT_EQ(std::memcmp(got.data().data(), want.data().data(),
                            got.size() * sizeof(double)),
                0)
          << kernel << " case " << t << " k " << k << " accumulate "
          << accumulate;
    }
    EXPECT_GE(multi_slab, 10) << kernel;
  }
  ASSERT_TRUE(blas::select_gemm_kernel("auto"));
  if (kernels_run == 0) GTEST_SKIP() << "CPU has no SIMD kernel";
}

TEST(ContractPropertyTest, DestinationOrderKeepsBits) {
  // dst(i,j) and dst(j,i) = a(k,i) * b(k,j) hold the same bits,
  // transposed: the operand order follows dst's fastest axis, and the
  // swap changes neither K's order nor which path runs. Free extents of
  // 1 (ragged segments make them) are where one order could turn a
  // matrix-vector product into a one-row GEMM. The shapes reach the
  // direct loop, the matrix-vector path and the blocked driver, with
  // k past one slab.
  for (const char* kernel : {"portable", "avx2", "avx512"}) {
    if (!blas::select_gemm_kernel(kernel)) continue;
    std::uint64_t seed = 9000;
    for (const int ni : {1, 5, 40}) {
      for (const int nj : {1, 7, 70}) {
        for (const int nk : {3, 64, 300}) {
          for (const bool accumulate : {false, true}) {
            const Block a = random_block({nk, ni}, ++seed);
            const Block b = random_block({nk, nj}, ++seed);
            Block ij = random_block({ni, nj}, ++seed);
            Block ji(BlockShape(std::vector<int>{nj, ni}));
            for (int i = 0; i < ni; ++i) {
              for (int j = 0; j < nj; ++j) {
                ji.data()[static_cast<std::size_t>(j * ni + i)] =
                    ij.data()[static_cast<std::size_t>(i * nj + j)];
              }
            }
            block_contract(ij, std::vector<int>{0, 1}, a,
                           std::vector<int>{2, 0}, b, std::vector<int>{2, 1},
                           accumulate);
            block_contract(ji, std::vector<int>{1, 0}, a,
                           std::vector<int>{2, 0}, b, std::vector<int>{2, 1},
                           accumulate);
            std::vector<double> ji_t(ij.size());
            for (int i = 0; i < ni; ++i) {
              for (int j = 0; j < nj; ++j) {
                ji_t[static_cast<std::size_t>(i * nj + j)] =
                    ji.data()[static_cast<std::size_t>(j * ni + i)];
              }
            }
            EXPECT_EQ(std::memcmp(ij.data().data(), ji_t.data(),
                                  ji_t.size() * sizeof(double)),
                      0)
                << kernel << " i " << ni << " j " << nj << " k " << nk
                << " accumulate " << accumulate;
          }
        }
      }
    }
  }
  ASSERT_TRUE(blas::select_gemm_kernel("auto"));
}

TEST(ContractPropertyTest, PortableAndSimdKernelsAgree) {
  // 40 x 70 x 120: large enough for the blocked driver. dst's order makes
  // b the row operand; every kernel stores full tiles through dst's
  // tables and ragged edge tiles through the scratch tile's scatter.
  Block a = random_block({12, 40, 10}, 71);
  Block b = random_block({10, 12, 70}, 72);
  const std::vector<int> a_ids = {0, 1, 2};
  const std::vector<int> b_ids = {2, 0, 3};
  const std::vector<int> dst_ids = {3, 1};
  const auto contract = [&] {
    Block c(BlockShape(std::vector<int>{70, 40}));
    block_contract(c, dst_ids, a, a_ids, b, b_ids, false);
    return c;
  };

  ASSERT_TRUE(blas::select_gemm_kernel("portable"));
  const Block c_portable = contract();

  // The SIMD kernels run the same FMA chains: close to the portable
  // kernel, and byte-identical to each other.
  std::vector<Block> simd;
  for (const char* kernel : {"avx2", "avx512"}) {
    if (!blas::select_gemm_kernel(kernel)) continue;
    simd.push_back(contract());
    const Block& c = simd.back();
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(c.data()[i], c_portable.data()[i], 1e-12)
          << kernel << " element " << i;
    }
    EXPECT_EQ(std::memcmp(c.data().data(), simd.front().data().data(),
                          c.size() * sizeof(double)),
              0)
        << kernel;
  }
  ASSERT_TRUE(blas::select_gemm_kernel("auto"));
  if (simd.empty()) GTEST_SKIP() << "CPU has no SIMD kernel to compare";
}

TEST(ContractPropertyTest, NoOperandPermuteCopies) {
  // Both operands need transposing relative to GEMM layout; the engine
  // must fold that into packing, never materialize a permuted copy.
  Block a = random_block({4, 6, 5}, 73);
  Block b = random_block({7, 6, 4}, 74);  // common ids 0,1 land strided
  Block c(BlockShape(std::vector<int>{5, 7}));
  block_contract(c, std::vector<int>{2, 3}, a, std::vector<int>{1, 0, 2}, b,
                 std::vector<int>{3, 0, 1}, false);
  EXPECT_EQ(contract_operand_permute_count(), 0u);
}

TEST(ContractPropertyTest, PlanCacheHitsOnRepeat) {
  // A shape/id combination no other test uses: first call misses, the
  // rest hit.
  Block a = random_block({3, 2, 7, 2}, 75);
  Block b = random_block({7, 3, 5, 2}, 76);
  Block c(BlockShape(std::vector<int>{2, 5}));
  const std::vector<int> dst_ids = {31, 33};  // free: 31 in a, 33 in b
  const std::vector<int> a_ids = {30, 31, 32, 34};
  const std::vector<int> b_ids = {32, 30, 33, 34};  // common: 30, 32, 34
  blas::reset_plan_cache_stats();
  for (int i = 0; i < 8; ++i) {
    block_contract(c, dst_ids, a, a_ids, b, b_ids, false);
  }
  const blas::PlanCacheStats stats = blas::plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 7u);
}

// ---------------------------------------------------------------------
// Registry.

TEST(RegistryTest, RegisterLookupAndList) {
  auto& registry = SuperInstructionRegistry::global();
  bool called = false;
  registry.register_instruction("test_only_op",
                                [&](SuperInstructionContext&) {
                                  called = true;
                                });
  const SuperInstructionFn* fn = registry.lookup("test_only_op");
  ASSERT_NE(fn, nullptr);
  std::vector<ExecArgValue> args;
  const sial::ResolvedProgram program(sial::CompiledProgram{}, SipConfig{});
  SuperInstructionContext context(program, args, 0, 1);
  (*fn)(context);
  EXPECT_TRUE(called);
  EXPECT_EQ(registry.lookup("no_such_op"), nullptr);

  const auto names = registry.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "test_only_op"),
            names.end());
}

TEST(RegistryTest, BuiltinsRegistered) {
  register_builtin_superinstructions();
  auto& registry = SuperInstructionRegistry::global();
  for (const char* name :
       {"fill_value", "fill_coords", "random_block", "block_nrm2",
        "block_asum", "block_max_abs", "print_block_norm"}) {
    EXPECT_NE(registry.lookup(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace sia::sip
