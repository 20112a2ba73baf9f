#include "chem/integrals.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <iterator>
#include <mutex>
#include <span>
#include <vector>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SIA_X86_FILLS 1
#include <immintrin.h>
#else
#define SIA_X86_FILLS 0
#endif

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

namespace {

// One (p,q) plane of an integral block, nr x ns elements row-major:
//   out[r][s] = apq * b[s - r] / den[r + s]
// `b` may be indexed down to -(nr - 1). The product and the quotient are
// the two roundings synthetic_integral makes after its exponentials.
using IntegralPlaneFn = void (*)(double* out, double apq, const double* b,
                                 const double* den, long nr, long ns);

// One (t0,t1) plane of cc_update, n2 x n3 elements row-major:
//   t[x][s] = r[x][s] / ((d1 + e2[x]) + e3[s])
// which sums the four signed orbital energies in denominator_from_coords'
// order.
using DenominatorPlaneFn = void (*)(double* t, const double* r, double d1,
                                    const double* e2, long n2,
                                    const double* e3, long n3);

void integral_plane_portable(double* out, double apq, const double* b,
                             const double* den, long nr, long ns) {
  for (long r = 0; r < nr; ++r, out += ns) {
    const double* brow = b - r;
    const double* drow = den + r;
    for (long s = 0; s < ns; ++s) {
      out[s] = apq * brow[s] / drow[s];
    }
  }
}

void denominator_plane_portable(double* t, const double* r, double d1,
                                const double* e2, long n2, const double* e3,
                                long n3) {
  for (long x = 0; x < n2; ++x, t += n3, r += n3) {
    const double d2 = d1 + e2[x];
    for (long s = 0; s < n3; ++s) {
      t[s] = r[s] / (d2 + e3[s]);
    }
  }
}

// AVX-512 planes: eight elements per instruction with the same IEEE
// multiply, add and divide (vmulpd, vaddpd, vdivpd), so every lane
// rounds exactly as the portable loop does. A row's ragged tail is one
// masked vector; its dead lanes divide 0 by 1.
#if SIA_X86_FILLS
__attribute__((target("avx512f"))) void integral_plane_avx512(
    double* out, double apq, const double* b, const double* den, long nr,
    long ns) {
  const __m512d a = _mm512_set1_pd(apq);
  const __m512d one = _mm512_set1_pd(1.0);
  const long full = ns - ns % 8;
  const __mmask8 tail = static_cast<__mmask8>((1u << (ns % 8)) - 1);
  for (long r = 0; r < nr; ++r, out += ns) {
    const double* brow = b - r;
    const double* drow = den + r;
    for (long s = 0; s < full; s += 8) {
      const __m512d num = _mm512_mul_pd(a, _mm512_loadu_pd(brow + s));
      _mm512_storeu_pd(out + s, _mm512_div_pd(num, _mm512_loadu_pd(drow + s)));
    }
    if (tail != 0) {
      const __m512d num =
          _mm512_mul_pd(a, _mm512_maskz_loadu_pd(tail, brow + full));
      const __m512d d = _mm512_mask_loadu_pd(one, tail, drow + full);
      _mm512_mask_storeu_pd(out + full, tail, _mm512_div_pd(num, d));
    }
  }
}

__attribute__((target("avx512f"))) void denominator_plane_avx512(
    double* t, const double* r, double d1, const double* e2, long n2,
    const double* e3, long n3) {
  const __m512d one = _mm512_set1_pd(1.0);
  const long full = n3 - n3 % 8;
  const __mmask8 tail = static_cast<__mmask8>((1u << (n3 % 8)) - 1);
  for (long x = 0; x < n2; ++x, t += n3, r += n3) {
    const __m512d d2 = _mm512_set1_pd(d1 + e2[x]);
    for (long s = 0; s < full; s += 8) {
      const __m512d den = _mm512_add_pd(d2, _mm512_loadu_pd(e3 + s));
      _mm512_storeu_pd(t + s, _mm512_div_pd(_mm512_loadu_pd(r + s), den));
    }
    if (tail != 0) {
      const __m512d den = _mm512_mask_add_pd(
          one, tail, d2, _mm512_maskz_loadu_pd(tail, e3 + full));
      const __m512d num = _mm512_maskz_loadu_pd(tail, r + full);
      _mm512_mask_storeu_pd(t + full, tail, _mm512_div_pd(num, den));
    }
  }
}
#endif  // SIA_X86_FILLS

struct FillKernel {
  const char* name;  // reported by fill_kernel_name(), accepted by select
  IntegralPlaneFn integral_plane;
  DenominatorPlaneFn denominator_plane;
  bool (*supported)();  // runtime CPU check
};

// Every fill kernel, in dispatch order (the GEMM micro-kernel table's
// scheme): the first one the CPU supports is the default.
constexpr FillKernel kFillKernels[] = {
#if SIA_X86_FILLS
    {"avx512", integral_plane_avx512, denominator_plane_avx512,
     [] { return __builtin_cpu_supports("avx512f") != 0; }},
#endif
    {"portable", integral_plane_portable, denominator_plane_portable,
     [] { return true; }},
};

const FillKernel* detect_fill_kernel() {
  for (const FillKernel& kernel : kFillKernels) {
    if (kernel.supported()) return &kernel;
  }
  return &kFillKernels[std::size(kFillKernels) - 1];
}

std::atomic<const FillKernel*> g_fill_kernel{nullptr};

const FillKernel& active_fill_kernel() {
  const FillKernel* kernel = g_fill_kernel.load(std::memory_order_acquire);
  if (kernel == nullptr) {
    kernel = detect_fill_kernel();
    g_fill_kernel.store(kernel, std::memory_order_release);
  }
  return *kernel;
}

// scale * exp(-rate |y - x|) over x in [x0, x0 + nx) and y in [y0, y0 + ny),
// stored by y - x ascending: row x (0-based) starts at table[nx - 1 - x]
// and runs with y. Each value is computed the way the per-element
// functions compute their decay factor, so it is the same double.
std::vector<double> decay_table(long x0, long nx, long y0, long ny,
                                double scale, double rate) {
  const long lo = y0 - (x0 + nx - 1);
  std::vector<double> table(static_cast<std::size_t>(nx + ny - 1));
  for (std::size_t j = 0; j < table.size(); ++j) {
    const long k = lo + static_cast<long>(j);
    const double d = static_cast<double>(k > 0 ? k : -k);
    table[j] = scale * std::exp(-rate * d);
  }
  return table;
}

}  // namespace

std::string_view fill_kernel_name() { return active_fill_kernel().name; }

bool select_fill_kernel(std::string_view name) {
  if (name == "auto") {
    g_fill_kernel.store(detect_fill_kernel(), std::memory_order_release);
    return true;
  }
  for (const FillKernel& kernel : kFillKernels) {
    if (name == kernel.name) {
      if (!kernel.supported()) return false;
      g_fill_kernel.store(&kernel, std::memory_order_release);
      return true;
    }
  }
  return false;
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
  // leading factors of synthetic_integral (scaling b by 1.0 is exact).
  const std::vector<double> a = decay_table(p0, np, q0, nq, 0.25, 0.20);
  const std::vector<double> b = decay_table(r0, nr, s0, ns, 1.0, 0.20);

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

  const IntegralPlaneFn plane = active_fill_kernel().integral_plane;
  double* out = data.data();
  for (long p = 0; p < np; ++p) {
    const double* arow = a.data() + (np - 1 - p);
    for (long q = 0; q < nq; ++q) {
      // den index of (p,q,r,s) is kmax - k = (np-1-p) + (nq-1-q) + r + s.
      plane(out, arow[q], b.data() + (nr - 1),
            den.data() + (np - 1 - p) + (nq - 1 - q), nr, ns);
      out += nr * ns;
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
  const DenominatorPlaneFn plane = active_fill_kernel().denominator_plane;
  const long n2 = extents[2], n3 = extents[3];
  double* out = t.data();
  const double* in = r.data();
  for (const double t0 : e0) {
    const double d0 = 0.0 + t0;
    for (const double t1 : e1) {
      plane(out, in, d0 + t1, e2.data(), n2, e3.data(), n3);
      out += n2 * n3;
      in += n2 * n3;
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

// Rank-2 fills: the one exponential depends only on p - q, so each
// block builds one decay table (decay_table) and reads its rows.
double* rank2_output(SuperInstructionContext& ctx, const char* who) {
  require_rank(ctx, 0, 2, who);
  const sial::BlockSelector& sel = ctx.selector(0);
  const std::span<double> data = ctx.block_arg(0).data();
  SIA_CHECK(data.size() == static_cast<std::size_t>(sel.extents[0]) *
                               static_cast<std::size_t>(sel.extents[1]),
            std::string(who) + ": block size does not match the region");
  return data.data();
}

// compute_core_h H(p,q).
void si_compute_core_h(SuperInstructionContext& ctx) {
  double* out = rank2_output(ctx, "compute_core_h");
  const sial::BlockSelector& sel = ctx.selector(0);
  const long np = sel.extents[0], nq = sel.extents[1];
  const long p0 = sel.first_element[0], q0 = sel.first_element[1];
  // 0.5 exp(-0.3|p-q|), the off-diagonal factor of synthetic_core_h.
  const std::vector<double> decay = decay_table(p0, np, q0, nq, 0.5, 0.3);
  for (long p = 0; p < np; ++p) {
    const double* row = decay.data() + (np - 1 - p);
    const long pa = p0 + p;
    for (long q = 0; q < nq; ++q) {
      const bool on_diagonal = pa == q0 + q;
      const double diag =
          on_diagonal ? -2.0 - 0.002 * static_cast<double>(pa) : 0.0;
      *out++ = diag - row[q] * (on_diagonal ? 0.0 : 1.0);
    }
  }
}

// compute_density D(p,q).
void si_compute_density(SuperInstructionContext& ctx) {
  double* out = rank2_output(ctx, "compute_density");
  const sial::BlockSelector& sel = ctx.selector(0);
  const long np = sel.extents[0], nq = sel.extents[1];
  const long p0 = sel.first_element[0], q0 = sel.first_element[1];
  // exp(-0.25|p-q|) by q - p (scaling by 1.0 is exact), and
  // 1 + 0.002 (p+q) by (p - p0) + (q - q0): synthetic_density's numerator
  // and denominator.
  const std::vector<double> decay = decay_table(p0, np, q0, nq, 1.0, 0.25);
  std::vector<double> den(static_cast<std::size_t>(np + nq - 1));
  for (std::size_t j = 0; j < den.size(); ++j) {
    den[j] = 1.0 + 0.002 * static_cast<double>(p0 + q0 + static_cast<long>(j));
  }
  for (long p = 0; p < np; ++p) {
    const double* row = decay.data() + (np - 1 - p);
    for (long q = 0; q < nq; ++q) {
      *out++ = row[q] / den[static_cast<std::size_t>(p + q)];
    }
  }
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
