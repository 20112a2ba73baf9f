// Tests for the synthetic chemistry data and reference implementations.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "chem/integrals.hpp"
#include "chem/reference.hpp"
#include "chem/system.hpp"
#include "sial/compiler.hpp"
#include "sip/io_server.hpp"
#include "sip/superinstr.hpp"

namespace sia::chem {
namespace {

TEST(SystemTest, PresetsHaveSensibleShapes) {
  for (const MolecularSystem& system :
       {luciferin(), water_cluster(), rdx(), hmx(), cytosine_oh(),
        diamond_nv()}) {
    EXPECT_GT(system.nocc, 0) << system.name;
    EXPECT_GT(system.nvirt(), system.nocc) << system.name;
  }
  EXPECT_EQ(diamond_nv().nbasis, 2944);  // stated in the paper's Fig. 6
}

TEST(OrbitalEnergyTest, OccupiedBelowVirtual) {
  const long nocc = 10;
  for (long p = 1; p <= nocc; ++p) {
    EXPECT_LT(orbital_energy(p, nocc), 0.0);
  }
  for (long p = nocc + 1; p <= 30; ++p) {
    EXPECT_GT(orbital_energy(p, nocc), 0.0);
  }
  // Monotone within each class.
  EXPECT_LT(orbital_energy(1, nocc), orbital_energy(2, nocc));
  EXPECT_LT(orbital_energy(11, nocc), orbital_energy(12, nocc));
}

TEST(IntegralTest, PermutationalSymmetry) {
  // (pq|rs) = (qp|rs) = (pq|sr) = (rs|pq).
  const double v = synthetic_integral(3, 7, 2, 9);
  EXPECT_DOUBLE_EQ(synthetic_integral(7, 3, 2, 9), v);
  EXPECT_DOUBLE_EQ(synthetic_integral(3, 7, 9, 2), v);
  EXPECT_DOUBLE_EQ(synthetic_integral(2, 9, 3, 7), v);
}

TEST(IntegralTest, DecaysOffDiagonal) {
  EXPECT_GT(synthetic_integral(5, 5, 5, 5),
            synthetic_integral(5, 9, 5, 5));
  EXPECT_GT(synthetic_integral(5, 9, 5, 5),
            synthetic_integral(5, 20, 5, 5));
  EXPECT_GT(synthetic_integral(2, 2, 2, 2),
            synthetic_integral(2, 2, 30, 30));
}

TEST(IntegralTest, CoreHamiltonianSymmetric) {
  EXPECT_DOUBLE_EQ(synthetic_core_h(3, 8), synthetic_core_h(8, 3));
  EXPECT_LT(synthetic_core_h(4, 4), 0.0);  // diagonal dominated, negative
}

TEST(IntegralTest, DensitySymmetricAndDecaying) {
  EXPECT_DOUBLE_EQ(synthetic_density(2, 6), synthetic_density(6, 2));
  EXPECT_GT(synthetic_density(5, 5), synthetic_density(5, 10));
}

TEST(DenominatorTest, OrientationIndependent) {
  const long nocc = 6;
  // (a,i,b,j) and (i,a,j,b) orders give the same denominator.
  const std::array<long, 4> aibj = {9, 2, 8, 3};
  const std::array<long, 4> iajb = {2, 9, 3, 8};
  EXPECT_DOUBLE_EQ(denominator_from_coords(aibj, nocc),
                   denominator_from_coords(iajb, nocc));
  EXPECT_DOUBLE_EQ(denominator_from_coords(iajb, nocc),
                   mp2_denominator(2, 9, 3, 8, nocc));
}

TEST(DenominatorTest, AlwaysNegativeForExcitations) {
  const long nocc = 6;
  for (long i = 1; i <= nocc; ++i) {
    for (long a = nocc + 1; a <= 20; ++a) {
      EXPECT_LT(mp2_denominator(i, a, i, a, nocc), 0.0);
    }
  }
}

TEST(ReferenceTest, Mp2EnergyIsNegative) {
  const double e2 = ref_mp2_energy(10, 4);
  EXPECT_LT(e2, 0.0);
  EXPECT_GT(e2, -10.0);  // sane magnitude
}

TEST(ReferenceTest, Mp2EnergyGrowsWithBasis) {
  // More virtuals -> more (negative) correlation energy.
  EXPECT_LT(ref_mp2_energy(14, 4), ref_mp2_energy(8, 4));
}

TEST(ReferenceTest, AmplitudeNormPositive) {
  EXPECT_GT(ref_mp2_amp_norm2(10, 4), 0.0);
}

TEST(ReferenceTest, CcdIterationsConverge) {
  // The amplitude norm change between consecutive iteration counts
  // shrinks (the toy CCD is contractive at this size).
  double n3 = 0.0, n4 = 0.0, n5 = 0.0;
  ref_ccd_energy(8, 4, 3, &n3);
  ref_ccd_energy(8, 4, 4, &n4);
  ref_ccd_energy(8, 4, 5, &n5);
  const double d34 = std::abs(n4 - n3);
  const double d45 = std::abs(n5 - n4);
  EXPECT_LT(d45, d34);
}

TEST(ReferenceTest, CcdZeroIterationsUsesT0) {
  // With 0 sweeps the energy is the MP2-like pair energy sum T0.V.
  double norm2 = 0.0;
  const double e0 = ref_ccd_energy(8, 4, 0, &norm2);
  EXPECT_LT(e0, 0.0);
  double want = 0.0;
  for (long i = 1; i <= 4; ++i) {
    for (long j = 1; j <= 4; ++j) {
      for (long a = 5; a <= 8; ++a) {
        for (long b = 5; b <= 8; ++b) {
          const double v = synthetic_integral(a, i, b, j);
          want += v * v / mp2_denominator(i, a, j, b, 4);
        }
      }
    }
  }
  EXPECT_NEAR(e0, want, 1e-12);
}

TEST(ReferenceTest, FockMatrixSymmetric) {
  const long n = 10;
  const std::vector<double> fock = ref_fock_matrix(n);
  for (long mu = 0; mu < n; ++mu) {
    for (long nu = 0; nu < n; ++nu) {
      EXPECT_NEAR(fock[static_cast<std::size_t>(mu * n + nu)],
                  fock[static_cast<std::size_t>(nu * n + mu)], 1e-12);
    }
  }
  EXPECT_GT(ref_fock_norm(n), 0.0);
}

TEST(ReferenceTest, ContractionChecksumDeterministic) {
  EXPECT_DOUBLE_EQ(ref_contraction_rnorm2(6, 3, 7.0),
                   ref_contraction_rnorm2(6, 3, 7.0));
  EXPECT_NE(ref_contraction_rnorm2(6, 3, 7.0),
            ref_contraction_rnorm2(6, 3, 8.0));
}

// A random region of rank 4 (or `rank`): extents 1..20 per axis, first
// element at 1-based offsets up to 300, cut out of a larger containing
// block the way a subindex or slice operand selects its effective region.
sial::BlockSelector random_region(std::mt19937& rng, int rank = 4) {
  std::uniform_int_distribution<int> extent(1, 20);
  std::uniform_int_distribution<int> origin(0, 5);
  std::uniform_int_distribution<long> first(1, 300);
  sial::BlockSelector sel;
  sel.rank = rank;
  sel.sliced = true;
  for (std::size_t d = 0; d < static_cast<std::size_t>(rank); ++d) {
    sel.extents[d] = extent(rng);
    sel.slice_origin[d] = origin(rng);
    sel.block_extents[d] = sel.slice_origin[d] + sel.extents[d] + origin(rng);
    sel.first_element[d] = first(rng);
  }
  return sel;
}

// Calls super instruction `name` with `args` as a worker would.
void run_superinstruction(const std::string& name,
                          std::vector<sip::ExecArgValue>& args) {
  register_chem_superinstructions();
  static const sial::ResolvedProgram program(
      sial::compile_sial("sial chem_test\nendsial\n"), SipConfig{});
  const sip::SuperInstructionFn* fn =
      sip::SuperInstructionRegistry::global().lookup(name);
  ASSERT_NE(fn, nullptr) << name;
  sip::SuperInstructionContext ctx(program, args, 0, 1);
  (*fn)(ctx);
}

sip::ExecArgValue block_arg(const sial::BlockSelector& sel) {
  sip::ExecArgValue arg;
  arg.kind = sial::ExecOperand::Kind::kBlock;
  arg.block = std::make_shared<Block>(sel.shape());
  arg.selector = sel;
  return arg;
}

// Number of elements of `got` whose bits differ from `want` (all of them
// when the sizes differ).
std::size_t bit_mismatches(std::span<const double> got,
                           std::span<const double> want) {
  if (got.size() != want.size()) return want.size();
  std::size_t bad = 0;
  for (std::size_t n = 0; n < want.size(); ++n) {
    if (std::memcmp(&got[n], &want[n], sizeof(double)) != 0) ++bad;
  }
  return bad;
}

// synthetic_integral over `sel`'s region, row-major.
std::vector<double> scalar_integrals(const sial::BlockSelector& sel) {
  std::vector<double> want;
  const auto& f = sel.first_element;
  for (long p = f[0]; p < f[0] + sel.extents[0]; ++p) {
    for (long q = f[1]; q < f[1] + sel.extents[1]; ++q) {
      for (long r = f[2]; r < f[2] + sel.extents[2]; ++r) {
        for (long s = f[3]; s < f[3] + sel.extents[3]; ++s) {
          want.push_back(synthetic_integral(p, q, r, s));
        }
      }
    }
  }
  return want;
}

// Runs `body` once per fill kernel this CPU has (the portable loop and
// each SIMD width), then restores CPU dispatch.
template <typename Body>
void for_each_fill_kernel(Body body) {
  for (const char* kernel : {"portable", "avx512"}) {
    if (!select_fill_kernel(kernel)) continue;
    SCOPED_TRACE(kernel);
    ASSERT_EQ(fill_kernel_name(), kernel);
    body();
  }
  ASSERT_TRUE(select_fill_kernel("auto"));
}

TEST(IntegralFillTest, BlockFillMatchesScalarBitForBit) {
  register_chem_superinstructions();
  const sip::ServerComputeFn* generator =
      sip::ServerComputeRegistry::global().lookup("integral_generator");
  ASSERT_NE(generator, nullptr);
  for_each_fill_kernel([&] {
    std::mt19937 rng(20100601);
    for (int trial = 0; trial < 40; ++trial) {
      const sial::BlockSelector sel = random_region(rng);
      const std::vector<double> want = scalar_integrals(sel);
      const std::span<const long> first(sel.first_element.data(), 4);

      // compute_integrals on an effective-region operand.
      std::vector<sip::ExecArgValue> args = {block_arg(sel)};
      run_superinstruction("compute_integrals", args);
      EXPECT_EQ(bit_mismatches(std::as_const(*args[0].block).data(), want),
                0u)
          << "compute_integrals, trial " << trial << " "
          << sel.shape().to_string();

      // The I/O server's on-demand generator for computed served arrays.
      Block served(sel.shape());
      (*generator)(served, first);
      EXPECT_EQ(bit_mismatches(std::as_const(served).data(), want), 0u)
          << "integral_generator, trial " << trial;
    }
  });
}

TEST(CcUpdateTest, TableDenominatorMatchesPerElement) {
  for_each_fill_kernel([] {
    std::mt19937 rng(20100602);
    std::uniform_real_distribution<double> value(-1.0, 1.0);
    for (int trial = 0; trial < 40; ++trial) {
      const sial::BlockSelector sel = random_region(rng);
      // nocc inside the region's coordinate span, so both occupied (+eps)
      // and virtual (-eps) terms occur.
      const long nocc = std::uniform_int_distribution<long>(1, 320)(rng);
      std::vector<sip::ExecArgValue> args = {block_arg(sel), block_arg(sel),
                                             sip::ExecArgValue{}};
      args[2].number = static_cast<double>(nocc);
      for (double& r : args[1].block->data()) r = value(rng);
      run_superinstruction("cc_update", args);

      const Block& r = *args[1].block;
      std::vector<double> want;
      const auto& f = sel.first_element;
      std::size_t n = 0;
      for (long a = f[0]; a < f[0] + sel.extents[0]; ++a) {
        for (long i = f[1]; i < f[1] + sel.extents[1]; ++i) {
          for (long b = f[2]; b < f[2] + sel.extents[2]; ++b) {
            for (long j = f[3]; j < f[3] + sel.extents[3]; ++j) {
              const std::array<long, 4> c = {a, i, b, j};
              want.push_back(r.data()[n++] /
                             denominator_from_coords(c, nocc));
            }
          }
        }
      }
      EXPECT_EQ(bit_mismatches(std::as_const(*args[0].block).data(), want),
                0u)
          << "trial " << trial << " nocc " << nocc;
    }
  });
}

TEST(RankTwoFillTest, DensityAndCoreHMatchScalarBitForBit) {
  std::mt19937 rng(20100603);
  for (int trial = 0; trial < 40; ++trial) {
    sial::BlockSelector sel = random_region(rng, 2);
    // Half the trials on the diagonal, where core_h has its own term.
    if (trial % 2 == 0) sel.first_element[1] = sel.first_element[0];
    std::vector<double> density, core_h;
    const auto& f = sel.first_element;
    for (long p = f[0]; p < f[0] + sel.extents[0]; ++p) {
      for (long q = f[1]; q < f[1] + sel.extents[1]; ++q) {
        density.push_back(synthetic_density(p, q));
        core_h.push_back(synthetic_core_h(p, q));
      }
    }
    std::vector<sip::ExecArgValue> args = {block_arg(sel)};
    run_superinstruction("compute_density", args);
    EXPECT_EQ(bit_mismatches(std::as_const(*args[0].block).data(), density),
              0u)
        << "compute_density, trial " << trial << " "
        << sel.shape().to_string();
    args = {block_arg(sel)};
    run_superinstruction("compute_core_h", args);
    EXPECT_EQ(bit_mismatches(std::as_const(*args[0].block).data(), core_h),
              0u)
        << "compute_core_h, trial " << trial << " " << sel.shape().to_string();
  }
}

TEST(ChemSuperInstructionsTest, RegistrationIsIdempotent) {
  register_chem_superinstructions();
  register_chem_superinstructions();
  SUCCEED();
}

}  // namespace
}  // namespace sia::chem
