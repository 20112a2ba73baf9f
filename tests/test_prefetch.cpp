// Unit tests for the look-ahead prefetcher (paper §V-A: "the SIP looks
// ahead and requests several blocks that it expects will be needed
// soon") and for batched get issue (all operand fetches of an
// instruction go out before the first blocking read).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "sial/compiler.hpp"
#include "sip/launch.hpp"
#include "sip/prefetch.hpp"

namespace sia::sip {
namespace {

struct Fixture {
  explicit Fixture(const std::string& body) {
    SipConfig config;
    config.default_segment = 4;
    config.constants = {{"n", 16}};
    program = std::make_unique<sial::ResolvedProgram>(
        sial::compile_sial("sial test\n" + body + "\nendsial\n"), config);
    values.assign(program->indices().size(), sial::kUndefinedIndexValue);
  }

  sial::BlockOperand get_operand() const {
    for (const sial::Instruction& instr : program->code().code) {
      if (instr.op == sial::Opcode::kGet) return instr.blocks[0];
    }
    throw sia::Error("no get in program");
  }

  std::unique_ptr<sial::ResolvedProgram> program;
  std::vector<long> values;
};

constexpr const char* kDoLoopGet = R"(
moindex i = 1, n
moindex j = 1, n
distributed d(i,j)
temp t(i,j)
pardo i
  do j
    get d(i,j)
    t(i,j) = d(i,j)
  enddo j
endpardo i
)";

TEST(PrefetchTest, DoLoopLookaheadAdvancesTheLoopIndex) {
  Fixture fx(kDoLoopGet);
  fx.values[0] = 2;  // i
  fx.values[1] = 1;  // j (current)
  LoopContext loop;
  loop.is_pardo = false;
  loop.index_id = fx.program->code().index_id("j");
  loop.current = 1;
  loop.last = 4;
  const auto ids = prefetch_candidates(*fx.program, fx.get_operand(),
                                       fx.values, {&loop, 1}, 2);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], BlockId(0, std::vector<int>{2, 2}));
  EXPECT_EQ(ids[1], BlockId(0, std::vector<int>{2, 3}));
}

TEST(PrefetchTest, PredictionMatchesActualFutureReads) {
  // Identity property behind both consumers of the look-ahead: the
  // predicted stream must equal the ids the interpreter will really
  // resolve when it advances the loop.
  Fixture fx(kDoLoopGet);
  fx.values[0] = 3;  // i
  fx.values[1] = 1;  // j
  LoopContext loop;
  loop.is_pardo = false;
  loop.index_id = fx.program->code().index_id("j");
  loop.current = 1;
  loop.last = 4;
  const auto predicted = prefetch_candidates(*fx.program, fx.get_operand(),
                                             fx.values, {&loop, 1}, 3);
  ASSERT_EQ(predicted.size(), 3u);
  for (long j = 2; j <= 4; ++j) {
    std::vector<long> values(fx.values.begin(), fx.values.end());
    values[1] = j;  // what the loop body will actually see at iteration j
    EXPECT_EQ(predicted[static_cast<std::size_t>(j - 2)],
              fx.program->resolve_operand(fx.get_operand(), values).id());
  }
}

TEST(PrefetchTest, LookaheadStopsAtLoopEnd) {
  Fixture fx(kDoLoopGet);
  fx.values[0] = 1;
  fx.values[1] = 4;
  LoopContext loop;
  loop.is_pardo = false;
  loop.index_id = fx.program->code().index_id("j");
  loop.current = 4;
  loop.last = 4;  // last iteration: nothing ahead
  EXPECT_TRUE(prefetch_candidates(*fx.program, fx.get_operand(), fx.values,
                                  {&loop, 1}, 3)
                  .empty());
}

TEST(PrefetchTest, DepthZeroDisables) {
  Fixture fx(kDoLoopGet);
  fx.values[0] = 1;
  fx.values[1] = 1;
  LoopContext loop;
  loop.is_pardo = false;
  loop.index_id = fx.program->code().index_id("j");
  loop.current = 1;
  loop.last = 4;
  EXPECT_TRUE(prefetch_candidates(*fx.program, fx.get_operand(), fx.values,
                                  {&loop, 1}, 0)
                  .empty());
}

TEST(PrefetchTest, LoopNotDrivingOperandIsSkipped) {
  // The innermost loop runs over an index the operand does not use; the
  // prefetcher must look at the next loop out.
  Fixture fx(R"(
moindex i = 1, n
moindex j = 1, n
moindex k = 1, n
distributed d(i,j)
temp t(i,j)
pardo i
  do j
    do k
      get d(i,j)
      t(i,j) = d(i,j)
    enddo k
  enddo j
endpardo i
)");
  fx.values[0] = 1;  // i
  fx.values[1] = 2;  // j
  fx.values[2] = 1;  // k
  LoopContext inner;  // over k: irrelevant to d(i,j)
  inner.is_pardo = false;
  inner.index_id = fx.program->code().index_id("k");
  inner.current = 1;
  inner.last = 4;
  LoopContext outer;  // over j: drives the operand
  outer.is_pardo = false;
  outer.index_id = fx.program->code().index_id("j");
  outer.current = 2;
  outer.last = 4;
  const LoopContext loops[] = {inner, outer};
  const auto ids = prefetch_candidates(*fx.program, fx.get_operand(),
                                       fx.values, loops, 2);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], BlockId(0, std::vector<int>{1, 3}));
  EXPECT_EQ(ids[1], BlockId(0, std::vector<int>{1, 4}));
}

TEST(PrefetchTest, PardoChunkLookaheadUsesFilteredPositions) {
  Fixture fx(R"(
moindex i = 1, n
moindex j = 1, n
distributed d(i,j)
temp t(i,j)
pardo i, j where i < j
  get d(i,j)
  t(i,j) = d(i,j)
endpardo i, j
)");
  const sial::PardoInfo& pardo = fx.program->code().pardos[0];
  const auto filtered = fx.program->pardo_filtered_space(pardo, fx.values);
  ASSERT_EQ(filtered.size(), 6u);  // i<j over a 4x4 segment grid

  // Current iteration is position 0 (i=1,j=2); chunk covers 0..3.
  std::vector<long> decoded(2);
  fx.program->pardo_decode(pardo, fx.values, filtered[0], decoded);
  fx.values[0] = decoded[0];
  fx.values[1] = decoded[1];

  LoopContext loop;
  loop.is_pardo = true;
  loop.pardo = &pardo;
  loop.filtered = &filtered;
  loop.next_pos = 1;
  loop.end_pos = 4;
  const auto ids = prefetch_candidates(*fx.program, fx.get_operand(),
                                       fx.values, {&loop, 1}, 8);
  // Depth 8 clipped to the chunk end: positions 1..3.
  ASSERT_EQ(ids.size(), 3u);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    fx.program->pardo_decode(pardo, fx.values,
                             filtered[k + 1], decoded);
    EXPECT_EQ(ids[k],
              BlockId(0, std::vector<int>{static_cast<int>(decoded[0]),
                                          static_cast<int>(decoded[1])}));
  }
}

TEST(PrefetchTest, NoLoopsMeansNoCandidates) {
  Fixture fx(kDoLoopGet);
  fx.values[0] = 1;
  fx.values[1] = 1;
  EXPECT_TRUE(
      prefetch_candidates(*fx.program, fx.get_operand(), fx.values, {}, 4)
          .empty());
}

TEST(PrefetchTest, HypotheticalValueOutsideArrayIsDropped) {
  // The loop index range extends past the array (narrower decl index):
  // candidates falling outside the array grid are skipped, not errors.
  Fixture fx(R"(
moindex i = 1, n
moindex h = 1, n+8
distributed d(i)
temp t(i)
do h
  get d(h)
  t(h) = d(h)
enddo h
)");
  fx.values[1] = 4;  // h at the last segment that maps into d
  LoopContext loop;
  loop.is_pardo = false;
  loop.index_id = fx.program->code().index_id("h");
  loop.current = 4;
  loop.last = 6;
  const auto ids = prefetch_candidates(*fx.program, fx.get_operand(),
                                       fx.values, {&loop, 1}, 3);
  EXPECT_TRUE(ids.empty());  // 5 and 6 fall outside d's grid
}

// ---------------------------------------------------------------------
// Batched get issue.

// Two implicit remote reads per statement: both requests are in flight
// before the worker blocks on the first reply.
constexpr const char* kTwoReadsPerStatement = R"(
moindex a = 1, n
moindex b = 1, n
moindex k = 1, n
distributed A(a,k)
distributed C(a,b)
temp t(a,k)
temp tmp(a,b)
temp cfin(a,b)
scalar lsum
scalar total
pardo a, k
  execute fill_coords t(a,k)
  put A(a,k) = t(a,k)
endpardo a, k
sip_barrier
pardo a, b
  do k
    tmp(a,b) = A(a,k) * A(b,k)
    put C(a,b) += tmp(a,b)
  enddo k
endpardo a, b
sip_barrier
pardo a, b
  get C(a,b)
  cfin(a,b) = C(a,b)
  lsum += cfin(a,b) * cfin(a,b)
endpardo a, b
total = 0.0
collective total += lsum
)";

TEST(BatchGetsTest, MatchesClosedFormAndReportsPerWorkerWait) {
  constexpr long kN = 24;
  SipConfig config;
  config.workers = 4;
  config.io_servers = 0;
  config.default_segment = 4;
  config.constants = {{"n", kN}};
  config.prefetch_depth = 0;  // isolate batching from look-ahead
  Sip sip(config);
  const RunResult result = sip.run_source(
      std::string("sial test\n") + kTwoReadsPerStatement + "\nendsial\n");
  // A(a,k) = 100a + k, so C(a,b) = Σ_k (100a+k)(100b+k) is an exact
  // integer and total = Σ_{a,b} C(a,b)². The squares pass 2^53, so the
  // reduction order moves the last bits; n² positive terms summed in any
  // order stay within n²·2^-53 of the exact value.
  long double expected = 0.0L;
  for (long a = 1; a <= kN; ++a) {
    for (long b = 1; b <= kN; ++b) {
      long c = 0;
      for (long k = 1; k <= kN; ++k) c += (100 * a + k) * (100 * b + k);
      expected += static_cast<long double>(c) * static_cast<long double>(c);
    }
  }
  EXPECT_NEAR(result.scalar("total"), static_cast<double>(expected),
              static_cast<double>(expected) * 1e-13);
  // The report carries one get/request wait entry per worker.
  ASSERT_EQ(result.profile.worker_block_wait.size(), 4u);
  for (const double wait : result.profile.worker_block_wait) {
    EXPECT_GE(wait, 0.0);
  }
}

// ---------------------------------------------------------------------
// Request look-ahead (served arrays): exec_request reuses the same
// prefetch_candidates walk as exec_get, so blocks stream toward the
// worker while the current iteration is still computing.
//
// The sweep reads two served arrays so that at least some look-ahead
// hits are certain, not a race against the server thread. Every block
// sits in the server's cache after the barrier, so the server answers
// each request in arrival order, and one server-to-worker stream keeps
// that order. In the first k iteration the worker sends: demand S(a,1),
// look-ahead S(a,2..5), demand R(a,1), look-ahead R(a,2..5). Waiting for
// R(a,1) therefore adopts the S(a,2..5) replies first, and iterations
// 2..5 find those blocks cached without a demand request.

constexpr const char* kServedSweep = R"(
moindex a = 1, n
moindex k = 1, n
served S(a,k)
served R(a,k)
temp t(a,k)
temp u(a,k)
temp w(a,k)
scalar lsum
scalar total
pardo a, k
  execute fill_coords t(a,k)
  prepare S(a,k) = t(a,k)
  prepare R(a,k) = t(a,k)
endpardo a, k
server_barrier
pardo a
  do k
    request S(a,k)
    request R(a,k)
    u(a,k) = S(a,k)
    w(a,k) = R(a,k)
    lsum += u(a,k) * u(a,k)
    lsum += w(a,k) * w(a,k)
  enddo k
endpardo a
total = 0.0
collective total += lsum
)";

double total_block_wait(const RunResult& result) {
  return std::accumulate(result.profile.worker_block_wait.begin(),
                         result.profile.worker_block_wait.end(), 0.0);
}

RunResult run_served(int prefetch_depth) {
  SipConfig config;
  config.workers = 4;
  config.io_servers = 1;
  config.default_segment = 4;
  config.server_disk_threads = 2;
  config.prefetch_depth = prefetch_depth;
  config.constants = {{"n", 24}};
  Sip sip(config);
  return sip.run_source(std::string("sial test\n") + kServedSweep +
                        "\nendsial\n");
}

TEST(RequestLookaheadTest, LookaheadIssuesAndResultUnchanged) {
  const RunResult off = run_served(0);
  const RunResult on = run_served(4);
  // Identical result regardless of speculative request order.
  EXPECT_DOUBLE_EQ(off.scalar("total"), on.scalar("total"));
  // The client actually speculated, the server saw the flagged requests,
  // and no speculation was wasted on absent blocks.
  EXPECT_GT(on.profile.served.client_lookahead_issued, 0);
  EXPECT_GT(on.profile.served.server_lookahead_requests, 0);
  EXPECT_EQ(on.profile.served.client_lookahead_misses, 0);
  EXPECT_EQ(off.profile.served.client_lookahead_issued, 0);
  // Look-ahead turns demand requests into local cache hits, so far
  // fewer blocking demand round trips are issued.
  EXPECT_LT(on.profile.served.client_requests_issued,
            off.profile.served.client_requests_issued);
}

TEST(RequestLookaheadTest, LookaheadDoesNotIncreaseRequestWait) {
  // Wall-clock based, so compare the best of three runs; look-ahead
  // must not make request waits worse, and usually shrinks them (the
  // block is local before it is needed).
  double min_off = 1e9, min_on = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    min_off = std::min(min_off, total_block_wait(run_served(0)));
    min_on = std::min(min_on, total_block_wait(run_served(4)));
  }
  EXPECT_LE(min_on, min_off * 1.5 + 0.01)
      << "request look-ahead waited longer than blocking requests";
}

}  // namespace
}  // namespace sia::sip
