// SIP interpreter tests: scalar machinery, control flow, node-local block
// operations — everything that needs no inter-worker communication.
#include <gtest/gtest.h>

#include <cmath>

#include "sip/launch.hpp"
#include "sip/superinstr.hpp"

namespace sia::sip {
namespace {

SipConfig small_config(int workers = 2) {
  SipConfig config;
  config.workers = workers;
  config.io_servers = 0;
  config.default_segment = 3;
  config.constants = {{"n", 6}, {"m", 9}};
  return config;
}

RunResult run(const std::string& body, SipConfig config = small_config()) {
  Sip sip(config);
  return sip.run_source("sial test\n" + body + "\nendsial\n");
}

TEST(SipBasicTest, ScalarArithmetic) {
  const RunResult result = run(R"(
scalar x
scalar y
x = 2.0 + 3.0 * 4.0
y = (2.0 + 3.0) * 4.0
x += 1.0
y -= 2.0
)");
  EXPECT_DOUBLE_EQ(result.scalar("x"), 15.0);
  EXPECT_DOUBLE_EQ(result.scalar("y"), 18.0);
}

TEST(SipBasicTest, ScalarFunctionsAndDivision) {
  const RunResult result = run(R"(
scalar x
x = sqrt(16.0) + abs(0.0 - 2.0) + exp(0.0)
x = x / 7.0
x *= 2.0
)");
  EXPECT_DOUBLE_EQ(result.scalar("x"), 2.0);
}

TEST(SipBasicTest, ConstantsResolveFromConfig) {
  const RunResult result = run("scalar x\nx = n + m\n");
  EXPECT_DOUBLE_EQ(result.scalar("x"), 15.0);
}

TEST(SipBasicTest, IfElseBothBranches) {
  const RunResult result = run(R"(
scalar a
scalar b
a = 1.0
if a < 2.0
  b = 10.0
else
  b = 20.0
endif
if a > 2.0
  a = 100.0
endif
)");
  EXPECT_DOUBLE_EQ(result.scalar("b"), 10.0);
  EXPECT_DOUBLE_EQ(result.scalar("a"), 1.0);
}

TEST(SipBasicTest, ComparisonOperators) {
  const RunResult result = run(R"(
scalar t
t = 0.0
if 1.0 <= 1.0
  t += 1.0
endif
if 1.0 == 1.0
  t += 1.0
endif
if 1.0 != 2.0
  t += 1.0
endif
if 2.0 >= 3.0
  t += 100.0
endif
)");
  EXPECT_DOUBLE_EQ(result.scalar("t"), 3.0);
}

TEST(SipBasicTest, DoLoopIteratesSegments) {
  // n = 6 elements, segment 3 -> 2 segments; i takes values 1, 2.
  const RunResult result = run(R"(
moindex i = 1, n
scalar count
scalar sum
do i
  count += 1.0
  sum += i
enddo i
)");
  EXPECT_DOUBLE_EQ(result.scalar("count"), 2.0);
  EXPECT_DOUBLE_EQ(result.scalar("sum"), 3.0);
}

TEST(SipBasicTest, SimpleIndexIteratesElements) {
  const RunResult result = run(R"(
index k = 1, 10
scalar count
do k
  count += 1.0
enddo k
)");
  EXPECT_DOUBLE_EQ(result.scalar("count"), 10.0);
}

TEST(SipBasicTest, NestedDoLoops) {
  const RunResult result = run(R"(
index a = 1, 4
index b = 1, 5
scalar count
do a
  do b
    count += 1.0
  enddo b
enddo a
)");
  EXPECT_DOUBLE_EQ(result.scalar("count"), 20.0);
}

TEST(SipBasicTest, ExitLeavesInnermostLoop) {
  const RunResult result = run(R"(
index a = 1, 4
index b = 1, 100
scalar count
do a
  do b
    count += 1.0
    if b >= 3
      exit
    endif
  enddo b
enddo a
)");
  EXPECT_DOUBLE_EQ(result.scalar("count"), 12.0);
}

TEST(SipBasicTest, ProceduresExecuteAndReturn) {
  const RunResult result = run(R"(
scalar x
proc add_two
  x += 2.0
endproc
x = 1.0
call add_two
call add_two
)");
  EXPECT_DOUBLE_EQ(result.scalar("x"), 5.0);
}

TEST(SipBasicTest, ProcCalledInsideLoop) {
  const RunResult result = run(R"(
index k = 1, 3
scalar x
proc bump
  x += k
endproc
do k
  call bump
enddo k
)");
  EXPECT_DOUBLE_EQ(result.scalar("x"), 6.0);
}

TEST(SipBasicTest, BlockFillAndDot) {
  // t is a 3x3 block (one segment per dim); sum of ones = 9.
  const RunResult result = run(R"(
moindex i = 1, n
moindex j = 1, n
temp t(i,j)
scalar s
do i
  do j
    t(i,j) = 1.0
    s += t(i,j) * t(i,j)
  enddo j
enddo i
)");
  EXPECT_DOUBLE_EQ(result.scalar("s"), 4.0 * 9.0);
}

TEST(SipBasicTest, BlockScalarOperations) {
  const RunResult result = run(R"(
moindex i = 1, n
temp t(i)
scalar s
do i
  t(i) = 2.0
  t(i) += 1.0
  t(i) *= 3.0
  t(i) -= 4.0
  s += t(i) * t(i)
enddo i
)");
  // Each element: ((2+1)*3)-4 = 5; 3 elements per block, 2 blocks.
  EXPECT_DOUBLE_EQ(result.scalar("s"), 2.0 * 3.0 * 25.0);
}

TEST(SipBasicTest, BlockCopyWithPermutation) {
  const RunResult result = run(R"(
moindex i = 1, n
moindex j = 1, m
temp t(i,j)
temp u(j,i)
scalar s
do i
  do j
    execute fill_coords t(i,j)
    u(j,i) = t(i,j)
    s += u(j,i) * u(j,i) - t(i,j) * t(i,j)
  enddo j
enddo i
)");
  // Permuted copy preserves the norm.
  EXPECT_NEAR(result.scalar("s"), 0.0, 1e-9);
}

TEST(SipBasicTest, BlockAddSubAndScaledCopy) {
  const RunResult result = run(R"(
moindex i = 1, n
temp a(i)
temp b(i)
temp c(i)
scalar s
do i
  a(i) = 3.0
  b(i) = 1.0
  c(i) = a(i) + b(i)
  c(i) = c(i) - b(i)
  c(i) += 0.5 * a(i)
  c(i) -= 0.5 * a(i)
  b(i) = 2.0 * a(i)
  s += c(i) * b(i)
enddo i
)");
  // c = 3, b = 6 per element; 3 elements x 2 blocks.
  EXPECT_DOUBLE_EQ(result.scalar("s"), 6.0 * 18.0);
}

TEST(SipBasicTest, BlockContractionMatmul) {
  const RunResult result = run(R"(
moindex i = 1, n
moindex j = 1, n
moindex k = 1, n
temp a(i,k)
temp b(k,j)
temp c(i,j)
scalar s
do i
  do j
    c(i,j) = 0.0
    do k
      a(i,k) = 1.0
      b(k,j) = 2.0
      c(i,j) += a(i,k) * b(k,j)
    enddo k
    s += c(i,j) * c(i,j)
  enddo j
enddo i
)");
  // Each c element = sum over 6 k-elements of 1*2 = 12; 9 elements per
  // block, 4 (i,j) block pairs.
  EXPECT_DOUBLE_EQ(result.scalar("s"), 4.0 * 9.0 * 144.0);
}

TEST(SipBasicTest, ContractionIntoItsOwnOperand) {
  // At j == k the destination t(i,j) is the very block t(i,k) (or t(k,j))
  // being read. Every product element is 1 * 1 summed over a 2-wide
  // segment, 2; each of the 8 (i,j,k) block triples adds 4 * 2^2 = 16.
  SipConfig config = small_config(1);
  config.default_segment = 2;
  config.constants = {{"norb", 4}};
  for (const char* product : {"t(i,k) * y(k,j)", "y(i,k) * t(k,j)"}) {
    SCOPED_TRACE(product);
    const RunResult result = run(std::string(R"(
aoindex i = 1, norb
aoindex j = 1, norb
aoindex k = 1, norb
temp t(i,j)
temp y(i,j)
scalar s
scalar total
do i
  do j
    do k
      t(i,k) = 1.0
      t(k,j) = 1.0
      y(i,k) = 1.0
      y(k,j) = 1.0
      t(i,j) = )") + product + R"(
      s = t(i,j) * t(i,j)
      total += s
    enddo k
  enddo j
enddo i
)",
                                 config);
    EXPECT_EQ(result.scalar("total"), 128.0);
  }
}

TEST(SipBasicTest, StaticArrayPersistsAcrossLoops) {
  const RunResult result = run(R"(
moindex i = 1, n
static acc(i)
scalar s
do i
  acc(i) += 1.0
enddo i
do i
  acc(i) += 1.0
enddo i
do i
  s += acc(i) * acc(i)
enddo i
)");
  EXPECT_DOUBLE_EQ(result.scalar("s"), 6.0 * 4.0);
}

TEST(SipBasicTest, TempsResetEachPardoIteration) {
  // A temp assigned with = in every iteration; accumulating across
  // iterations must NOT happen. n = 6, segment 3 -> 2 iterations; each
  // block holds 3 elements of value 2.0, so each dot adds 12.
  const RunResult result = run(R"(
moindex i = 1, n
temp t(i)
scalar s
scalar total
pardo i
  t(i) = 1.0
  t(i) += 1.0
  s += t(i) * t(i)
endpardo i
total = 0.0
collective total += s
)");
  EXPECT_DOUBLE_EQ(result.scalar("total"), 2.0 * 12.0);
}

TEST(SipBasicTest, ExecuteBuiltins) {
  const RunResult result = run(R"(
moindex i = 1, n
temp t(i)
scalar nrm
scalar mx
do i
  execute fill_value t(i) 3.0
  execute block_nrm2 t(i) nrm
  execute block_max_abs t(i) mx
enddo i
)");
  EXPECT_NEAR(result.scalar("nrm"), std::sqrt(27.0), 1e-12);
  EXPECT_DOUBLE_EQ(result.scalar("mx"), 3.0);
}

TEST(SipBasicTest, PardoDistributesAllIterations) {
  for (int workers : {1, 2, 3, 5}) {
    const RunResult result = run(R"(
moindex i = 1, m
moindex j = 1, m
scalar lsum
scalar total
pardo i, j
  lsum += 1.0
endpardo i, j
total = 0.0
collective total += lsum
)",
                                 small_config(workers));
    EXPECT_DOUBLE_EQ(result.scalar("total"), 9.0) << workers << " workers";
  }
}

TEST(SipBasicTest, PardoWhereClauses) {
  const RunResult result = run(R"(
moindex i = 1, m
moindex j = 1, m
scalar lsum
scalar total
pardo i, j where i < j
  lsum += 1.0
endpardo i, j
total = 0.0
collective total += lsum
)");
  EXPECT_DOUBLE_EQ(result.scalar("total"), 3.0);  // (1,2),(1,3),(2,3)
}

TEST(SipBasicTest, WhereAgainstConstantExpression) {
  const RunResult result = run(R"(
moindex i = 1, m
scalar lsum
scalar total
pardo i where i <= 2
  lsum += 1.0
endpardo i
total = 0.0
collective total += lsum
)");
  EXPECT_DOUBLE_EQ(result.scalar("total"), 2.0);
}

TEST(SipBasicTest, EmptyPardoIsFine) {
  const RunResult result = run(R"(
moindex i = 1, m
scalar total
scalar lsum
pardo i where i > 100
  lsum += 1.0
endpardo i
total = 0.0
collective total += lsum
)");
  EXPECT_DOUBLE_EQ(result.scalar("total"), 0.0);
}

TEST(SipBasicTest, SequentialPardosWithoutBarrier) {
  const RunResult result = run(R"(
moindex i = 1, m
scalar lsum
scalar total
pardo i
  lsum += 1.0
endpardo i
pardo i
  lsum += 1.0
endpardo i
total = 0.0
collective total += lsum
)");
  EXPECT_DOUBLE_EQ(result.scalar("total"), 6.0);
}

TEST(SipBasicTest, CollectiveSumsAcrossWorkers) {
  const RunResult result = run(R"(
scalar one
scalar total
one = 1.0
total = 0.0
collective total += one
)",
                               small_config(4));
  // Every worker contributes 1.0.
  EXPECT_DOUBLE_EQ(result.scalar("total"), 4.0);
}

TEST(SipBasicTest, ProfilerReportsPardoIterations) {
  SipConfig config = small_config(2);
  const RunResult result = run(R"(
moindex i = 1, m
scalar lsum
pardo i
  lsum += 1.0
endpardo i
)",
                               config);
  ASSERT_EQ(result.profile.pardos.size(), 1u);
  EXPECT_EQ(result.profile.pardos[0].iterations, 3);
  EXPECT_GT(result.profile.total_elapsed, 0.0);
  EXPECT_FALSE(result.profile.to_string().empty());
}

}  // namespace
}  // namespace sia::sip
