#include "chem/integrals.hpp"

#include <array>
#include <cmath>
#include <mutex>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "sip/io_server.hpp"
#include "sip/superinstr.hpp"

namespace sia::chem {

double orbital_energy(long p, long nocc) {
  if (p <= nocc) {
    return -2.0 + 0.01 * static_cast<double>(p);
  }
  return 1.0 + 0.01 * static_cast<double>(p - nocc);
}

double synthetic_integral(long p, long q, long r, long s) {
  const double dpq = static_cast<double>(p > q ? p - q : q - p);
  const double drs = static_cast<double>(r > s ? r - s : s - r);
  const double cpq = 0.5 * static_cast<double>(p + q);
  const double crs = 0.5 * static_cast<double>(r + s);
  const double dc = cpq > crs ? cpq - crs : crs - cpq;
  // Smooth, decaying, symmetric under p<->q, r<->s, and (pq)<->(rs).
  return 0.25 * std::exp(-0.20 * dpq) * std::exp(-0.20 * drs) /
         (1.0 + 0.10 * dc);
}

void fill_integral_block(std::span<double> data, std::span<const int> extents,
                         std::span<const long> first) {
  SIA_CHECK(extents.size() == 4 && first.size() == 4,
            "fill_integral_block: region must have rank 4");
  const long np = extents[0], nq = extents[1], nr = extents[2],
             ns = extents[3];
  SIA_CHECK(np >= 0 && nq >= 0 && nr >= 0 && ns >= 0 &&
                data.size() == static_cast<std::size_t>(np * nq * nr * ns),
            "fill_integral_block: data size does not match the extents");
  if (data.empty()) return;
  const long p0 = first[0], q0 = first[1], r0 = first[2], s0 = first[3];

  // a(p,q) = 0.25 exp(-0.2|p-q|) and b(r,s) = exp(-0.2|r-s|): the two
  // leading factors of synthetic_integral, computed the same way (scaling
  // b by 1.0 is exact).
  auto decay_table = [](long x0, long nx, long y0, long ny, double scale) {
    std::vector<double> table;
    table.reserve(static_cast<std::size_t>(nx * ny));
    for (long x = x0; x < x0 + nx; ++x) {
      for (long y = y0; y < y0 + ny; ++y) {
        const double d = static_cast<double>(x > y ? x - y : y - x);
        table.push_back(scale * std::exp(-0.20 * d));
      }
    }
    return table;
  };
  const std::vector<double> a = decay_table(p0, np, q0, nq, 0.25);
  const std::vector<double> b = decay_table(r0, nr, s0, ns, 1.0);

  // The denominator depends on k = (p+q)-(r+s) only: synthetic_integral's
  // dc = |(p+q)/2 - (r+s)/2| is a difference of exact half-integers, so it
  // equals |k|/2 exactly. The table runs over kmax..kmin (descending k),
  // so that it ascends with s in the inner loop.
  const long kmax = (p0 + np - 1) + (q0 + nq - 1) - (r0 + s0);
  const long kmin = (p0 + q0) - ((r0 + nr - 1) + (s0 + ns - 1));
  std::vector<double> den(static_cast<std::size_t>(kmax - kmin + 1));
  for (long k = kmax; k >= kmin; --k) {
    const double dc = 0.5 * static_cast<double>(k > 0 ? k : -k);
    den[static_cast<std::size_t>(kmax - k)] = 1.0 + 0.10 * dc;
  }

  double* out = data.data();
  for (long p = 0; p < np; ++p) {
    for (long q = 0; q < nq; ++q) {
      const double apq = a[static_cast<std::size_t>(p * nq + q)];
      // den index of (p,q,r,s) is kmax - k = base + r + s.
      const long base = kmax - ((p0 + p) + (q0 + q)) + r0 + s0;
      for (long r = 0; r < nr; ++r) {
        const double* brs = b.data() + r * ns;
        const double* drs = den.data() + (base + r);
        for (long s = 0; s < ns; ++s) {
          out[s] = apq * brs[s] / drs[s];
        }
        out += ns;
      }
    }
  }
}

double synthetic_core_h(long p, long q) {
  const double d = static_cast<double>(p > q ? p - q : q - p);
  const double diag = p == q ? -2.0 - 0.002 * static_cast<double>(p) : 0.0;
  return diag - 0.5 * std::exp(-0.3 * d) * (p == q ? 0.0 : 1.0);
}

double synthetic_density(long p, long q) {
  const double d = static_cast<double>(p > q ? p - q : q - p);
  return std::exp(-0.25 * d) / (1.0 + 0.002 * static_cast<double>(p + q));
}

double mp2_denominator(long i, long a, long j, long b, long nocc) {
  return orbital_energy(i, nocc) + orbital_energy(j, nocc) -
         orbital_energy(a, nocc) - orbital_energy(b, nocc);
}

double denominator_from_coords(std::span<const long> coords, long nocc) {
  double denom = 0.0;
  for (const long p : coords) {
    const double eps = orbital_energy(p, nocc);
    denom += p <= nocc ? eps : -eps;
  }
  return denom;
}

void divide_by_denominators(std::span<double> t, std::span<const double> r,
                            std::span<const int> extents,
                            std::span<const long> first, long nocc) {
  SIA_CHECK(extents.size() == 4 && first.size() == 4,
            "divide_by_denominators: region must have rank 4");
  // signed_eps[d][x]: the term denominator_from_coords adds for coordinate
  // first[d] + x along axis d.
  std::array<std::vector<double>, 4> signed_eps;
  std::size_t count = 1;
  for (std::size_t d = 0; d < 4; ++d) {
    SIA_CHECK(extents[d] >= 0, "divide_by_denominators: negative extent");
    for (long p = first[d]; p < first[d] + extents[d]; ++p) {
      const double eps = orbital_energy(p, nocc);
      signed_eps[d].push_back(p <= nocc ? eps : -eps);
    }
    count *= static_cast<std::size_t>(extents[d]);
  }
  SIA_CHECK(t.size() == count && r.size() == count,
            "divide_by_denominators: data size does not match the extents");
  const auto& [e0, e1, e2, e3] = signed_eps;
  std::size_t n = 0;
  for (const double t0 : e0) {
    const double d0 = 0.0 + t0;
    for (const double t1 : e1) {
      const double d1 = d0 + t1;
      for (const double t2 : e2) {
        const double d2 = d1 + t2;
        for (const double t3 : e3) {
          t[n] = r[n] / (d2 + t3);
          ++n;
        }
      }
    }
  }
}

namespace {

using sia::sip::SuperInstructionContext;

// Visits element `value` of block argument `arg` together with its
// absolute 1-based coordinates.
template <typename Fn>
void visit_block(SuperInstructionContext& ctx, int arg, Fn&& fn) {
  Block& block = ctx.block_arg(arg);
  const sial::BlockSelector& sel = ctx.selector(arg);
  const int rank = sel.rank;
  std::array<int, blas::kMaxRank> counter{};
  std::array<long, blas::kMaxRank> coords{};
  auto data = block.data();
  for (std::size_t n = 0; n < data.size(); ++n) {
    for (int d = 0; d < rank; ++d) {
      coords[static_cast<std::size_t>(d)] =
          sel.first_element[static_cast<std::size_t>(d)] +
          counter[static_cast<std::size_t>(d)];
    }
    fn(data[n], std::span<const long>(coords.data(),
                                      static_cast<std::size_t>(rank)));
    for (int d = rank - 1; d >= 0; --d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (++counter[ud] < sel.extents[ud]) break;
      counter[ud] = 0;
    }
  }
}

void require_rank(SuperInstructionContext& ctx, int arg, int rank,
                  const char* who) {
  if (ctx.selector(arg).rank != rank) {
    throw RuntimeError(std::string(who) + ": block argument " +
                       std::to_string(arg) + " must have rank " +
                       std::to_string(rank));
  }
}

// compute_integrals V(p,q,r,s): fill the block with synthetic (pq|rs).
void si_compute_integrals(SuperInstructionContext& ctx) {
  require_rank(ctx, 0, 4, "compute_integrals");
  const sial::BlockSelector& sel = ctx.selector(0);
  fill_integral_block(ctx.block_arg(0).data(), {sel.extents.data(), 4},
                      {sel.first_element.data(), 4});
}

// compute_core_h H(p,q).
void si_compute_core_h(SuperInstructionContext& ctx) {
  require_rank(ctx, 0, 2, "compute_core_h");
  visit_block(ctx, 0, [](double& value, std::span<const long> c) {
    value = synthetic_core_h(c[0], c[1]);
  });
}

// compute_density D(p,q).
void si_compute_density(SuperInstructionContext& ctx) {
  require_rank(ctx, 0, 2, "compute_density");
  visit_block(ctx, 0, [](double& value, std::span<const long> c) {
    value = synthetic_density(c[0], c[1]);
  });
}

// mp2_block_energy V1(i,a,j,b) V2(i,b,j,a) <esum scalar> <nocc scalar>:
//   esum += sum over the block of V1 * (2 V1 - V2(swapped)) / D(iajb).
void si_mp2_block_energy(SuperInstructionContext& ctx) {
  require_rank(ctx, 0, 4, "mp2_block_energy");
  require_rank(ctx, 1, 4, "mp2_block_energy");
  const long nocc = static_cast<long>(ctx.number_arg(3));
  const Block& v2 = ctx.block_arg(1);
  const sial::BlockSelector& sel1 = ctx.selector(0);
  const sial::BlockSelector& sel2 = ctx.selector(1);

  double sum = 0.0;
  visit_block(ctx, 0, [&](double& v1, std::span<const long> c) {
    // c = (i, a, j, b) absolute; the exchange integral lives in the V2
    // block laid out as (i, b, j, a).
    const std::array<int, 4> swapped = {
        static_cast<int>(c[0] - sel2.first_element[0]),
        static_cast<int>(c[3] - sel2.first_element[1]),
        static_cast<int>(c[2] - sel2.first_element[2]),
        static_cast<int>(c[1] - sel2.first_element[3]),
    };
    const double exchange = v2.at(swapped);
    const double denom = denominator_from_coords(c, nocc);
    sum += v1 * (2.0 * v1 - exchange) / denom;
  });
  (void)sel1;
  ctx.scalar_arg(2) += sum;
}

// cc_update T(a,i,b,j) R(a,i,b,j) <nocc scalar>:
//   T = R / (eps(i) + eps(j) - eps(a) - eps(b)).
void si_cc_update(SuperInstructionContext& ctx) {
  require_rank(ctx, 0, 4, "cc_update");
  require_rank(ctx, 1, 4, "cc_update");
  const long nocc = static_cast<long>(ctx.number_arg(2));
  const Block& r = ctx.block_arg(1);
  if (r.size() != ctx.block_arg(0).size()) {
    throw RuntimeError("cc_update: T and R shapes differ");
  }
  const sial::BlockSelector& sel = ctx.selector(0);
  divide_by_denominators(ctx.block_arg(0).data(), r.data(),
                         {sel.extents.data(), 4},
                         {sel.first_element.data(), 4}, nocc);
}

}  // namespace

void register_chem_superinstructions() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto& registry = sip::SuperInstructionRegistry::global();
    registry.register_instruction("compute_integrals", si_compute_integrals);
    registry.register_instruction("compute_core_h", si_compute_core_h);
    registry.register_instruction("compute_density", si_compute_density);
    registry.register_instruction("mp2_block_energy", si_mp2_block_energy);
    registry.register_instruction("cc_update", si_cc_update);

    // Server-side on-demand integral generation for computed served
    // arrays (paper §V-B: I/O servers compute integral blocks instead of
    // storing them). Enable per array via
    // SipConfig::computed_served[array] = "integral_generator".
    sip::ServerComputeRegistry::global().register_generator(
        "integral_generator",
        [](Block& block, std::span<const long> first) {
          if (block.shape().rank() != 4) {
            throw RuntimeError("integral_generator needs a rank-4 array");
          }
          fill_integral_block(block.data(), block.shape().extents(), first);
        });
  });
}

}  // namespace sia::chem
