#include "chem/programs.hpp"

namespace sia::chem {

std::string contraction_demo_source() {
  return R"SIAL(
sial contraction_demo
# The paper's section IV-D fragment: R(M,N,I,J) = sum_LS V(M,N,L,S)*T(L,S,I,J)
aoindex mu = 1, norb
aoindex nu = 1, norb
aoindex la = 1, norb
aoindex si = 1, norb
moindex i = 1, nocc
moindex j = 1, nocc

distributed T(la,si,i,j)
distributed R(mu,nu,i,j)
temp t(la,si,i,j)
temp v(mu,nu,la,si)
temp tmp(mu,nu,i,j)
temp tmpsum(mu,nu,i,j)
scalar rsum
scalar rnorm2

# Fill the amplitude array with deterministic pseudo-random blocks.
pardo la, si, i, j
  execute random_block t(la,si,i,j) 7
  put T(la,si,i,j) = t(la,si,i,j)
endpardo la, si, i, j
sip_barrier

# The contraction itself, integrals computed on demand.
pardo mu, nu, i, j
  tmpsum(mu,nu,i,j) = 0.0
  do la
    do si
      get T(la,si,i,j)
      execute compute_integrals v(mu,nu,la,si)
      tmp(mu,nu,i,j) = v(mu,nu,la,si) * T(la,si,i,j)
      tmpsum(mu,nu,i,j) += tmp(mu,nu,i,j)
    enddo si
  enddo la
  put R(mu,nu,i,j) = tmpsum(mu,nu,i,j)
endpardo mu, nu, i, j
sip_barrier

# Validation checksum ||R||^2.
rsum = 0.0
pardo mu, nu, i, j
  get R(mu,nu,i,j)
  tmp(mu,nu,i,j) = R(mu,nu,i,j)
  rsum += tmp(mu,nu,i,j) * tmp(mu,nu,i,j)
endpardo mu, nu, i, j
rnorm2 = 0.0
collective rnorm2 += rsum
endsial
)SIAL";
}

std::string mp2_energy_source() {
  return R"SIAL(
sial mp2_energy
moindex i = 1, nocc
moindex j = 1, nocc
moindex a = nocc+1, norb
moindex b = nocc+1, norb

temp v1(i,a,j,b)
temp v2(i,b,j,a)
scalar esum
scalar e2
scalar noccs

noccs = nocc
esum = 0.0
pardo i, j
  do a
    do b
      execute compute_integrals v1(i,a,j,b)
      execute compute_integrals v2(i,b,j,a)
      execute mp2_block_energy v1(i,a,j,b) v2(i,b,j,a) esum noccs
    enddo b
  enddo a
endpardo i, j
e2 = 0.0
collective e2 += esum
endsial
)SIAL";
}

std::string ccd_energy_source() {
  return R"SIAL(
sial ccd_energy
# CCD-like doubles iteration: particle-particle ladder, hole-hole ladder,
# and a ring diagram, with on-demand integrals, distributed amplitudes,
# and an orbital-energy-denominator update (see DESIGN.md for the
# substitution relative to full CCSD).
index iter = 1, maxiter
moindex i = 1, nocc
moindex j = 1, nocc
moindex k = 1, nocc
moindex l = 1, nocc
moindex a = nocc+1, norb
moindex b = nocc+1, norb
moindex c = nocc+1, norb
moindex d = nocc+1, norb

distributed T(a,i,b,j)
distributed Tnew(a,i,b,j)
temp v(a,i,b,j)
temp vp(a,c,b,d)
temp vh(k,i,l,j)
temp vr(k,a,c,i)
temp t0(a,i,b,j)
temp t2(c,i,d,j)
temp t3(a,k,b,l)
temp t4(a,i,b,j)
temp tmp(a,i,b,j)
temp r(a,i,b,j)
temp tnew(a,i,b,j)
scalar noccs
scalar esum
scalar energy
scalar rlocal
scalar rnorm2

noccs = nocc

# T0 = V / D
pardo a, i, b, j
  execute compute_integrals v(a,i,b,j)
  execute cc_update t0(a,i,b,j) v(a,i,b,j) noccs
  put T(a,i,b,j) = t0(a,i,b,j)
endpardo a, i, b, j
sip_barrier

do iter
  pardo a, i, b, j
    execute compute_integrals v(a,i,b,j)
    r(a,i,b,j) = v(a,i,b,j)
    # particle-particle ladder: sum_cd V(a,c,b,d) T(c,i,d,j)
    do c
      do d
        execute compute_integrals vp(a,c,b,d)
        get T(c,i,d,j)
        tmp(a,i,b,j) = vp(a,c,b,d) * T(c,i,d,j)
        r(a,i,b,j) += tmp(a,i,b,j)
      enddo d
    enddo c
    # hole-hole ladder: sum_kl V(k,i,l,j) T(a,k,b,l)
    do k
      do l
        execute compute_integrals vh(k,i,l,j)
        get T(a,k,b,l)
        tmp(a,i,b,j) = vh(k,i,l,j) * T(a,k,b,l)
        r(a,i,b,j) += tmp(a,i,b,j)
      enddo l
    enddo k
    # ring: sum_kc V(k,a,c,i) T(c,k,b,j)
    do k
      do c
        execute compute_integrals vr(k,a,c,i)
        get T(c,k,b,j)
        tmp(a,i,b,j) = vr(k,a,c,i) * T(c,k,b,j)
        r(a,i,b,j) += tmp(a,i,b,j)
      enddo c
    enddo k
    execute cc_update tnew(a,i,b,j) r(a,i,b,j) noccs
    put Tnew(a,i,b,j) = tnew(a,i,b,j)
  endpardo a, i, b, j
  sip_barrier

  # T <- Tnew, and track the amplitude norm of this sweep.
  rlocal = 0.0
  pardo a, i, b, j
    get Tnew(a,i,b,j)
    t4(a,i,b,j) = Tnew(a,i,b,j)
    put T(a,i,b,j) = t4(a,i,b,j)
    rlocal += t4(a,i,b,j) * t4(a,i,b,j)
  endpardo a, i, b, j
  sip_barrier
  rnorm2 = 0.0
  collective rnorm2 += rlocal
enddo iter

# Correlation-like energy E = sum T . V for the converged amplitudes.
esum = 0.0
pardo a, i, b, j
  execute compute_integrals v(a,i,b,j)
  get T(a,i,b,j)
  t4(a,i,b,j) = T(a,i,b,j)
  esum += t4(a,i,b,j) * v(a,i,b,j)
endpardo a, i, b, j
energy = 0.0
collective energy += esum
endsial
)SIAL";
}

std::string fock_build_source() {
  return R"SIAL(
sial fock_build
aoindex mu = 1, norb
aoindex nu = 1, norb
aoindex la = 1, norb
aoindex si = 1, norb

distributed F(mu,nu)
temp f(mu,nu)
temp jmat(mu,nu)
temp kmat(mu,nu)
temp v(mu,nu,la,si)
temp vx(mu,la,nu,si)
temp dmat(la,si)
temp t(mu,nu)
scalar fsum
scalar fnorm2
scalar fnorm

# F = Hcore + sum_ls D(l,s) * (2 V(mu,nu,l,s) - V(mu,l,nu,s))
pardo mu, nu
  execute compute_core_h f(mu,nu)
  do la
    do si
      execute compute_integrals v(mu,nu,la,si)
      execute compute_density dmat(la,si)
      jmat(mu,nu) = v(mu,nu,la,si) * dmat(la,si)
      f(mu,nu) += 2.0 * jmat(mu,nu)
      execute compute_integrals vx(mu,la,nu,si)
      kmat(mu,nu) = vx(mu,la,nu,si) * dmat(la,si)
      f(mu,nu) -= kmat(mu,nu)
    enddo si
  enddo la
  put F(mu,nu) = f(mu,nu)
endpardo mu, nu
sip_barrier

fsum = 0.0
pardo mu, nu
  get F(mu,nu)
  t(mu,nu) = F(mu,nu)
  fsum += t(mu,nu) * t(mu,nu)
endpardo mu, nu
fnorm2 = 0.0
collective fnorm2 += fsum
fnorm = sqrt(fnorm2)
endsial
)SIAL";
}

std::string comm_storm_source() {
  return R"SIAL(
sial comm_storm
# Communication-bound Gram-matrix sweep C = A * A^T. The inner do loop
# re-accumulates into the same C(a,b) block every iteration, so almost
# all traffic is gets of A rows plus repeated put+= of C blocks — the
# pattern the runtime's write combining and zero-copy transfers target.
aoindex a = 1, norb
aoindex b = 1, norb
aoindex k = 1, norb

distributed A(a,k)
distributed C(a,b)
temp t(a,k)
temp tmp(a,b)
temp cfin(a,b)
scalar csum
scalar cnorm2

pardo a, k
  execute random_block t(a,k) 11
  put A(a,k) = t(a,k)
endpardo a, k
sip_barrier

pardo a, b
  do k
    get A(a,k)
    get A(b,k)
    tmp(a,b) = A(a,k) * A(b,k)
    put C(a,b) += tmp(a,b)
  enddo k
endpardo a, b
sip_barrier

csum = 0.0
pardo a, b
  get C(a,b)
  cfin(a,b) = C(a,b)
  csum += cfin(a,b) * cfin(a,b)
endpardo a, b
cnorm2 = 0.0
collective cnorm2 += csum
endsial
)SIAL";
}

std::string io_storm_source() {
  return R"SIAL(
sial io_storm
# Disk-bound served-array sweep: phase 1 prepares a norb x norb block
# matrix to the I/O servers; the sweep loop then requests every block back
# nsweeps times. The server cache is configured much smaller than the
# array, so most requests miss and go to disk — the workload the threaded
# disk service, request look-ahead, and batched write-behind target.
# fill_coords writes integer-valued elements, so the checksum is a sum of
# integer squares and bit-identical under any request order.
index sweep = 1, nsweeps
aoindex a = 1, norb
aoindex k = 1, norb
aoindex r = 1, nshared

served S(a,k)
temp t(a,k)
temp u(a,k)
scalar lsum
scalar snorm2

pardo a, k
  execute fill_coords t(a,k)
  prepare S(a,k) = t(a,k)
endpardo a, k
server_barrier

lsum = 0.0
do sweep
  pardo a
    do k
      request S(a,k)
      u(a,k) = S(a,k)
      lsum += u(a,k) * u(a,k)
    enddo k
  endpardo a
  server_barrier
enddo sweep

# Shared-read phase: a plain do nest runs on every worker, so all workers
# scan the same blocks of the first nshared rows in the same order. Cold
# requests from different workers land on the server while the first read
# is still in flight (the in-flight-table coalescing path); the rest hit
# the server cache.
do r
  do k
    request S(r,k)
    u(r,k) = S(r,k)
    lsum += u(r,k) * u(r,k)
  enddo k
enddo r
server_barrier
snorm2 = 0.0
collective snorm2 += lsum
endsial
)SIAL";
}

std::string mp2_served_source() {
  return R"SIAL(
sial mp2_served
# Two-phase MP2 exercising served (disk-backed) arrays: phase 1 builds
# first-order amplitudes and prepares them to the I/O servers; phase 2
# requests them back and assembles the energy.
moindex i = 1, nocc
moindex j = 1, nocc
moindex a = nocc+1, norb
moindex b = nocc+1, norb

served TAmp(i,a,j,b)
temp v1(i,a,j,b)
temp v2(i,b,j,a)
temp t(i,a,j,b)
scalar noccs
scalar esum
scalar e2
scalar tsum
scalar tnorm2

noccs = nocc

# Phase 1: T(i,a,j,b) = V(i,a,j,b) / D, prepared to disk.
pardo i, j
  do a
    do b
      execute compute_integrals v1(i,a,j,b)
      execute cc_update t(i,a,j,b) v1(i,a,j,b) noccs
      prepare TAmp(i,a,j,b) = t(i,a,j,b)
    enddo b
  enddo a
endpardo i, j
server_barrier

# Phase 2: request the amplitudes back and contract with the integrals.
esum = 0.0
tsum = 0.0
pardo i, j
  do a
    do b
      request TAmp(i,a,j,b)
      execute compute_integrals v1(i,a,j,b)
      execute compute_integrals v2(i,b,j,a)
      t(i,a,j,b) = TAmp(i,a,j,b)
      esum += 2.0 * t(i,a,j,b) * v1(i,a,j,b) - t(i,a,j,b) * v2(i,b,j,a)
      tsum += t(i,a,j,b) * t(i,a,j,b)
    enddo b
  enddo a
endpardo i, j
e2 = 0.0
collective e2 += esum
tnorm2 = 0.0
collective tnorm2 += tsum
endsial
)SIAL";
}

std::string sparse_fock_source() {
  return R"SIAL(
sial sparse_fock
# Banded Fock-like build F = D * G with sparse operands. fill_decay
# writes blocks whose elements decay as exp(-rate * |mu - la|), so block
# norms fall off exponentially with the distance from the diagonal: the
# tridiagonal blocks stay dense while everything further out drops below
# any practical screening threshold. With sparse_threshold > 0 the
# runtime never stores, moves, or multiplies the far blocks.
aoindex mu = 1, norb
aoindex nu = 1, norb
aoindex la = 1, norb

sparse distributed D(mu,la)
sparse distributed G(la,nu)
distributed F(mu,nu)
temp d(mu,la)
temp g(la,nu)
temp f(mu,nu)
temp t(mu,nu)
scalar fsum
scalar fnorm2

# Phase 1: banded fills. Screened blocks are dropped at the sender.
pardo mu, la
  execute fill_decay d(mu,la) 0.75 13
  put D(mu,la) = d(mu,la)
endpardo mu, la
pardo la, nu
  execute fill_decay g(la,nu) 0.75 29
  put G(la,nu) = g(la,nu)
endpardo la, nu
sip_barrier

# Phase 2: F(mu,nu) = sum_la D(mu,la) * G(la,nu), fused accumulate form.
pardo mu, nu
  f(mu,nu) = 0.0
  do la
    get D(mu,la)
    get G(la,nu)
    f(mu,nu) += D(mu,la) * G(la,nu)
  enddo la
  put F(mu,nu) = f(mu,nu)
endpardo mu, nu
sip_barrier

# Validation checksum ||F||^2.
fsum = 0.0
pardo mu, nu
  get F(mu,nu)
  t(mu,nu) = F(mu,nu)
  fsum += t(mu,nu) * t(mu,nu)
endpardo mu, nu
fnorm2 = 0.0
collective fnorm2 += fsum
endsial
)SIAL";
}

std::string sparse_mp2_source() {
  return R"SIAL(
sial sparse_mp2
# Served-array screening workload: amplitudes T(i,a,j,b) decay in
# |i - j| (localized-orbital style), so most (i,j)-off-diagonal blocks
# screen out. Phase 1 prepares them to the I/O servers — screened
# prepares send a norm marker instead of the payload and the servers
# record them in the presence map without a disk write. Phase 2 requests
# every block back — screened requests get norm-only replies satisfied
# by the canonical zero block — and reduces e2 = sum T.T.
moindex i = 1, nocc
moindex j = 1, nocc
moindex a = nocc+1, norb
moindex b = nocc+1, norb

sparse served T(i,a,j,b)
temp t(i,a,j,b)
temp u(i,a,j,b)
scalar esum
scalar e2

pardo i, j
  do a
    do b
      execute fill_decay t(i,a,j,b) 3.0 17
      prepare T(i,a,j,b) = t(i,a,j,b)
    enddo b
  enddo a
endpardo i, j
server_barrier

esum = 0.0
pardo i, j
  do a
    do b
      request T(i,a,j,b)
      u(i,a,j,b) = T(i,a,j,b)
      esum += u(i,a,j,b) * u(i,a,j,b)
    enddo b
  enddo a
endpardo i, j
e2 = 0.0
collective e2 += esum
endsial
)SIAL";
}

}  // namespace sia::chem
