// SIP error-detection tests: the runtime must turn misuse into clear
// errors rather than hangs or wrong answers — including the paper's
// "runtime system detects most improper uses of barriers".
#include <gtest/gtest.h>

#include "sial/compiler.hpp"
#include "sip/launch.hpp"

namespace sia::sip {
namespace {

SipConfig base_config() {
  SipConfig config;
  config.workers = 2;
  config.io_servers = 1;
  config.default_segment = 3;
  config.constants = {{"n", 9}};
  return config;
}

void expect_error(const std::string& body, const std::string& fragment,
                  SipConfig config = base_config()) {
  Sip sip(config);
  try {
    sip.run_source("sial test\n" + body + "\nendsial\n");
    FAIL() << "expected RuntimeError mentioning '" << fragment << "'";
  } catch (const RuntimeError& error) {
    EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
        << "actual: " << error.what();
  }
}

TEST(SipErrorTest, TempReadBeforeAssignment) {
  expect_error(R"(
moindex i = 1, n
temp t(i)
temp u(i)
scalar x
do i
  u(i) = t(i)
  x += u(i) * u(i)
enddo i
)",
               "before being assigned");
}

TEST(SipErrorTest, LocalUsedBeforeAllocate) {
  expect_error(R"(
moindex i = 1, n
local l(i)
do i
  l(i) = 1.0
enddo i
)",
               "allocate");
}

TEST(SipErrorTest, DoubleAllocateRejected) {
  expect_error(R"(
moindex i = 1, n
local l(i)
do i
  allocate l(i)
  allocate l(i)
enddo i
)",
               "already allocated");
}

TEST(SipErrorTest, GetOfNeverPutBlock) {
  expect_error(R"(
moindex i = 1, n
distributed d(i)
temp u(i)
scalar x
pardo i
  get d(i)
  u(i) = d(i)
  x += u(i) * u(i)
endpardo i
)",
               "never been put");
}

TEST(SipErrorTest, ConflictingPutsWithoutBarrierDetected) {
  // Every worker puts every block: with >= 2 workers the home worker sees
  // plain puts from different writers in one epoch.
  expect_error(R"(
moindex i = 1, n
distributed d(i)
temp t(i)
scalar x
x = 1.0
do i
  t(i) = x
  put d(i) = t(i)
enddo i
)",
               "sip_barrier");
}

TEST(SipErrorTest, MixedPutAndAccumulateDetected) {
  expect_error(R"(
moindex i = 1, n
distributed d(i)
temp t(i)
pardo i
  t(i) = 1.0
  put d(i) = t(i)
  put d(i) += t(i)
endpardo i
)",
               "conflicting put");
}

TEST(SipErrorTest, UnknownSuperInstruction) {
  expect_error(R"(
moindex i = 1, n
temp t(i)
do i
  execute definitely_not_registered t(i)
enddo i
)",
               "not registered");
}

TEST(SipErrorTest, DivisionByZero) {
  expect_error("scalar x\nx = 1.0 / 0.0\n", "division by zero");
}

// The served protocol keeps the distributed-array write rules, with
// server_barrier in the role of sip_barrier.
TEST(SipErrorTest, MixedPrepareAndAccumulateDetected) {
  expect_error(R"(
moindex i = 1, n
served s(i)
temp t(i)
pardo i
  t(i) = 1.0
  prepare s(i) = t(i)
  prepare s(i) += t(i)
endpardo i
server_barrier
)",
               "conflicting prepare");
}

TEST(SipErrorTest, ConflictingPreparesWithoutBarrierDetected) {
  // Every worker prepares every block: with >= 2 workers the server sees
  // replaces from different writers in one epoch.
  expect_error(R"(
moindex i = 1, n
served s(i)
temp t(i)
do i
  t(i) = 1.0
  prepare s(i) = t(i)
enddo i
server_barrier
)",
               "without a server_barrier");
}

TEST(SipErrorTest, InfeasibleMemoryReportsWorkerCount) {
  SipConfig config = base_config();
  config.worker_memory_bytes = 2048;  // absurdly small
  config.constants["n"] = 99;
  Sip sip(config);
  try {
    sip.run_source(R"(
sial test
moindex i = 1, n
moindex j = 1, n
distributed d(i,j)
temp t(i,j)
pardo i, j
  t(i,j) = 1.0
  put d(i,j) = t(i,j)
endpardo i, j
endsial
)");
    FAIL() << "expected InfeasibleError";
  } catch (const InfeasibleError& error) {
    EXPECT_NE(std::string(error.what()).find("workers"), std::string::npos);
  }
}

TEST(SipErrorTest, AnalyzeSkipsExecution) {
  // Running this program fails on its division by zero; analyzing it
  // executes nothing, so it returns the dry-run report instead.
  Sip sip(base_config());
  DryRunReport report;
  EXPECT_NO_THROW(report = sip.analyze(sial::compile_sial(R"(
sial test
moindex i = 1, n
distributed d(i)
temp t(i)
scalar x
pardo i
  t(i) = 1.0
  put d(i) = t(i)
endpardo i
x = 1.0 / 0.0
endsial
)")));
  EXPECT_GT(report.per_worker_bytes(), 0u);
}

TEST(SipErrorTest, ErrorInOneWorkerAbortsWholeLaunch) {
  // Only iteration (1) divides by zero; other workers' iterations are
  // fine, yet the whole run must fail.
  expect_error(R"(
moindex i = 1, n
scalar x
pardo i
  if i == 1
    x = 1.0 / 0.0
  endif
endpardo i
)",
               "division");
}

TEST(SipErrorTest, ErrorMessageCarriesSourceLine) {
  SipConfig config = base_config();
  Sip sip(config);
  try {
    sip.run_source("sial test\nscalar x\nx = 1.0 / 0.0\nendsial\n");
    FAIL();
  } catch (const RuntimeError& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }
}

TEST(SipErrorTest, IndexValueOutsideArrayGrid) {
  // h ranges past the extent of the array it addresses; the resolver
  // rejects the access at runtime with a named index and array.
  SipConfig config = base_config();
  config.constants["m"] = 18;
  expect_error(R"(
moindex i = 1, n
moindex h = 1, m
temp t(i)
do h
  t(h) = 1.0
enddo h
)",
               "outside", config);
}

TEST(SipErrorTest, PardoNestedViaProcedureRejectedAtRuntime) {
  // Syntactic nesting is a compile error; nesting smuggled through a
  // procedure call must still fail, at runtime.
  expect_error(R"(
moindex i = 1, n
moindex j = 1, n
scalar x
proc inner_loop
  pardo j
    x += 1.0
  endpardo j
endproc
pardo i
  call inner_loop
endpardo i
)",
               "nested");
}

TEST(SipErrorTest, CompileErrorsPropagateFromRunSource) {
  Sip sip(base_config());
  EXPECT_THROW(sip.run_source("sial test\nbogus statement here\nendsial\n"),
               CompileError);
}

TEST(SipErrorTest, MissingConstantFailsBeforeLaunch) {
  SipConfig config = base_config();
  config.constants.clear();
  Sip sip(config);
  EXPECT_THROW(
      sip.run_source("sial test\nmoindex i = 1, n\nendsial\n"), Error);
}

}  // namespace
}  // namespace sia::sip
