// Launch-time planner and guided-schedule work stealing.
//
// Covers the closed autotuning loop (deterministic DES sweep, pinned
// knobs, serial-baseline floor, calibration persistence and learning)
// and the runtime half: stealing the tail of a straggler's chunk must
// leave every result bit-identical, including under chaos fault plans.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/config.hpp"
#include "sial/compiler.hpp"
#include "sial/opt/optimizer.hpp"
#include "sip/launch.hpp"
#include "sip/planner.hpp"

namespace sia::sip {
namespace {

// A calibration path no other process (a concurrent ctest run on the
// same host) and no other test in this process uses.
std::string temp_calibration_path(const char* name) {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          (std::string(name) + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++)))
      .string();
}

// A small but non-trivial program for the sweep: two pardo phases with
// distributed traffic and a contraction, so the workload model has real
// flops and fetch volumes to trade off.
std::string sweep_source() {
  return R"SIAL(
sial sweep_probe
moindex i = 1, n
moindex j = 1, n
moindex k = 1, n
distributed a(i,k)
distributed c(i,j)
temp t(i,k)
temp u(k,j)
temp p(i,j)
temp acc(i,j)
scalar lsum
scalar total

pardo i, k
  execute fill_coords t(i,k)
  put a(i,k) = t(i,k)
endpardo i, k
sip_barrier

# The checksum is ||A*U||_F^2 — a property of the matrices, not of the
# block decomposition, so it survives the planner changing the segment
# size (up to rounding).
pardo i, j
  acc(i,j) = 0.0
  do k
    get a(i,k)
    execute fill_coords u(k,j)
    p(i,j) = a(i,k) * u(k,j)
    acc(i,j) += p(i,j)
  enddo k
  lsum += acc(i,j) * acc(i,j)
endpardo i, j
total = 0.0
collective total += lsum
endsial
)SIAL";
}

sial::CompiledProgram optimized_sweep(const SipConfig& config) {
  return sial::opt::optimize(sial::compile_sial(sweep_source()),
                             config.opt_level)
      .program;
}

SipConfig sweep_config() {
  SipConfig config;
  config.workers = 2;
  config.io_servers = 0;
  config.constants = {{"n", 24}};
  return config;
}

// ---------------------------------------------------------------------
// The sweep.

TEST(PlannerTest, SweepIsDeterministic) {
  const SipConfig base = sweep_config();
  const Calibration cal;
  const HostModel host{4};
  const sial::CompiledProgram program = optimized_sweep(base);
  const PlanChoice first = plan_launch(program, base, cal, host);
  const PlanChoice second = plan_launch(program, base, cal, host);
  EXPECT_EQ(first.summary, second.summary);
  EXPECT_EQ(first.candidates, second.candidates);
  EXPECT_DOUBLE_EQ(first.predicted_seconds, second.predicted_seconds);
  EXPECT_EQ(first.config.default_segment, second.config.default_segment);
  EXPECT_EQ(first.config.chunk_divisor, second.config.chunk_divisor);
  EXPECT_EQ(first.config.prefetch_depth, second.config.prefetch_depth);
  EXPECT_GT(first.candidates, 1);
}

TEST(PlannerTest, NeverPredictedSlowerThanSerial) {
  const SipConfig base = sweep_config();
  for (const int cores : {1, 2, 8}) {
    const PlanChoice choice = plan_launch(optimized_sweep(base), base,
                                          Calibration{}, HostModel{cores});
    ASSERT_TRUE(std::isfinite(choice.predicted_seconds)) << cores;
    if (std::isfinite(choice.baseline_seconds)) {
      EXPECT_LE(choice.predicted_seconds, choice.baseline_seconds)
          << cores << " cores";
    }
  }
}

TEST(PlannerTest, PinnedKnobsAreNeverOverridden) {
  SipConfig base = sweep_config();
  base.chunk_divisor = 3;      // differs from default 2 -> pinned
  base.prefetch_depth = 7;     // differs from default 2 -> pinned
  base.default_segment = 6;    // differs from the default -> pinned
  const PlanChoice choice =
      plan_launch(optimized_sweep(base), base, Calibration{}, HostModel{4});
  EXPECT_EQ(choice.config.chunk_divisor, 3);
  EXPECT_EQ(choice.config.prefetch_depth, 7);
  EXPECT_EQ(choice.config.default_segment, 6);
  const auto pinned_has = [&](const char* name) {
    for (const std::string& knob : choice.pinned) {
      if (knob == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(pinned_has("chunk_divisor"));
  EXPECT_TRUE(pinned_has("prefetch_depth"));
  EXPECT_TRUE(pinned_has("segment"));
}

// ---------------------------------------------------------------------
// Calibration persistence and learning.

TEST(PlannerTest, CalibrationRoundTripsThroughDisk) {
  Calibration cal;
  cal.gemm_gflops = 17.25;
  cal.latency_s = 3.5e-6;
  cal.link_bw = 7.5e9;
  cal.disk_bw = 123e6;
  cal.time_scale = 0.625;
  cal.runs = 3;
  cal.last_error_percent = -12.5;
  const std::string path = temp_calibration_path("sia_cal_roundtrip");
  ASSERT_TRUE(cal.save(path));
  const Calibration back = Calibration::load(path);
  EXPECT_DOUBLE_EQ(back.gemm_gflops, cal.gemm_gflops);
  EXPECT_DOUBLE_EQ(back.latency_s, cal.latency_s);
  EXPECT_DOUBLE_EQ(back.link_bw, cal.link_bw);
  EXPECT_DOUBLE_EQ(back.disk_bw, cal.disk_bw);
  EXPECT_DOUBLE_EQ(back.time_scale, cal.time_scale);
  EXPECT_EQ(back.runs, cal.runs);
  EXPECT_DOUBLE_EQ(back.last_error_percent, cal.last_error_percent);
  std::filesystem::remove(path);
}

TEST(PlannerTest, ConcurrentLoadNeverSeesATornSave) {
  // save() replaces the file atomically, so a reader racing a writer
  // sees the old or the new calibration, never a torn one that would
  // silently fall back to defaults (runs == 0).
  const std::string path = temp_calibration_path("sia_cal_concurrent");
  Calibration cal;
  cal.runs = 1;
  ASSERT_TRUE(cal.save(path));
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (!done.load()) {
      if (Calibration::load(path).runs == 0) ++torn;
    }
  });
  for (int i = 0; i < 300; ++i) {
    cal.runs = 1 + i;
    cal.gemm_gflops = 10.0 + i;
    EXPECT_TRUE(cal.save(path));
  }
  done = true;
  reader.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(Calibration::load(path).runs, 300);
  std::filesystem::remove(path);
}

TEST(PlannerTest, CorruptCalibrationFallsBackToDefaults) {
  const std::string path = temp_calibration_path("sia_cal_corrupt");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "sia_calibration v1\ngemm_gflops banana\n";
  }
  const Calibration defaults;
  Calibration cal = Calibration::load(path);
  EXPECT_DOUBLE_EQ(cal.gemm_gflops, defaults.gemm_gflops);
  EXPECT_EQ(cal.runs, 0);
  // Wrong magic, negative constants, and a missing file all fall back.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "not a calibration file\n";
  }
  cal = Calibration::load(path);
  EXPECT_EQ(cal.runs, 0);
  {
    std::ofstream out(path, std::ios::trunc);
    out << "sia_calibration v1\ngemm_gflops -4\n";
  }
  cal = Calibration::load(path);
  EXPECT_DOUBLE_EQ(cal.gemm_gflops, defaults.gemm_gflops);
  std::filesystem::remove(path);
  cal = Calibration::load(path);
  EXPECT_DOUBLE_EQ(cal.gemm_gflops, defaults.gemm_gflops);
}

TEST(PlannerTest, CalibrationUpdateShrinksModelError) {
  // With a stable actual time, the damped time_scale correction must
  // strictly shrink the prediction error run over run.
  Calibration cal;
  const double actual = 1.0;
  double predicted = 5.0;  // model 5x optimistic... err, pessimistic
  double previous_error = std::abs(predicted - actual);
  for (int run = 0; run < 4; ++run) {
    update_calibration(&cal, predicted, actual, 10.0, 0.0, 0, 0.0);
    // The next plan's raw model output is unchanged; only the bias
    // term moves, so the next prediction is raw * time_scale.
    predicted = 5.0 * cal.time_scale;
    const double error = std::abs(predicted - actual);
    EXPECT_LT(error, previous_error) << "run " << run;
    previous_error = error;
  }
  EXPECT_EQ(cal.runs, 4);
}

TEST(PlannerTest, MeasuredGemmRateIsPositive) {
  const double gflops = measure_gemm_gflops();
  EXPECT_GT(gflops, 0.0);
  EXPECT_LT(gflops, 10000.0);  // sanity: < 10 TFLOP/s on one core
}

// ---------------------------------------------------------------------
// End-to-end autotuned runs.

TEST(PlannerTest, AutotunedRunRecordsPlanAndPersistsCalibration) {
  const std::string cal_path = temp_calibration_path("sia_cal_e2e");
  std::filesystem::remove(cal_path);
  SipConfig config = sweep_config();
  config.autotune = true;
  config.calibration_file = cal_path;
  Sip sip(config);
  const RunResult result = sip.run_source(sweep_source());
  EXPECT_TRUE(result.profile.plan.planned);
  EXPECT_FALSE(result.profile.plan.calibrated);  // first run is cold
  EXPECT_GT(result.profile.plan.candidates, 0);
  EXPECT_GT(result.profile.plan.predicted_seconds, 0.0);
  EXPECT_GT(result.profile.plan.actual_seconds, 0.0);
  const Calibration cal = Calibration::load(cal_path);
  EXPECT_EQ(cal.runs, 1);

  // Second run sees the calibration and reports itself calibrated.
  Sip second(config);
  const RunResult again = second.run_source(sweep_source());
  EXPECT_TRUE(again.profile.plan.planned);
  EXPECT_TRUE(again.profile.plan.calibrated);
  EXPECT_EQ(Calibration::load(cal_path).runs, 2);
  std::filesystem::remove(cal_path);
}

TEST(PlannerTest, AutotunePreservesResults) {
  // The tuned run must compute the same answer as the untuned run (the
  // collective total is partition-independent only up to rounding, so
  // compare against a tolerance scaled to the value).
  SipConfig plain = sweep_config();
  Sip base_sip(plain);
  const double expected = base_sip.run_source(sweep_source()).scalar("total");

  const std::string cal_path = temp_calibration_path("sia_cal_results");
  std::filesystem::remove(cal_path);
  SipConfig tuned = sweep_config();
  tuned.autotune = true;
  tuned.calibration_file = cal_path;
  Sip sip(tuned);
  const double got = sip.run_source(sweep_source()).scalar("total");
  EXPECT_NEAR(got, expected, 1e-9 * std::abs(expected));
  std::filesystem::remove(cal_path);
}

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_ = false;
};

TEST(PlannerTest, AutotuneEnvOverridesConfigBothWays) {
  {
    ScopedEnv env("SIA_AUTOTUNE", "0");
    SipConfig config = sweep_config();
    config.autotune = true;  // env wins: no planning
    Sip sip(config);
    const RunResult result = sip.run_source(sweep_source());
    EXPECT_FALSE(result.profile.plan.planned);
  }
  {
    ScopedEnv env("SIA_AUTOTUNE", "1");
    const std::string cal_path = temp_calibration_path("sia_cal_env");
    std::filesystem::remove(cal_path);
    SipConfig config = sweep_config();
    config.autotune = false;  // env wins: planning on
    config.calibration_file = cal_path;
    Sip sip(config);
    const RunResult result = sip.run_source(sweep_source());
    EXPECT_TRUE(result.profile.plan.planned);
    std::filesystem::remove(cal_path);
  }
}

// ---------------------------------------------------------------------
// Work stealing.

// A deliberately skewed pardo: segments are [48, 1], so iteration (1,1)
// carries a 48x48x48 contraction swept `reps` times while the other
// three iterations are slivers. min_chunk with the fair-share clamp
// hands worker 0 the two front (heavy-led) iterations in one chunk;
// worker 1 races through its own chunk and must steal the tail of
// worker 0's to balance. fill_coords writes integer elements and the
// final checksum is computed by a sequential do loop every worker
// executes in the same order, so the result is bitwise independent of
// which worker ran which iteration.
std::string skew_source() {
  return R"SIAL(
sial steal_skew
aoindex i = 1, n
aoindex j = 1, n
aoindex k = 1, n
index r = 1, reps
distributed c(i,j)
temp t(i,k)
temp u(k,j)
temp p(i,j)
temp acc(i,j)
temp v(i,j)
scalar lsum

pardo i, j
  acc(i,j) = 0.0
  do k
    execute fill_coords t(i,k)
    execute fill_coords u(k,j)
    do r
      p(i,j) = t(i,k) * u(k,j)
      acc(i,j) += p(i,j)
    enddo r
  enddo k
  put c(i,j) = acc(i,j)
endpardo i, j
sip_barrier

lsum = 0.0
do i
  do j
    get c(i,j)
    v(i,j) = c(i,j)
    lsum += v(i,j) * v(i,j)
  enddo j
enddo i
endsial
)SIAL";
}

SipConfig skew_config(bool work_stealing) {
  SipConfig config;
  config.workers = 2;
  config.io_servers = 0;
  config.default_segment = 48;
  config.segment_overrides["index"] = 1;  // `do r` sweeps reps times
  config.chunk_divisor = 1;
  config.min_chunk = 4;  // clamped to the fair share: 2 per worker
  config.work_stealing = work_stealing;
  config.constants = {{"n", 49}, {"reps", 400}};
  return config;
}

TEST(PlannerStealTest, StealingIsBitIdenticalOnSkewedPardo) {
  Sip no_steal(skew_config(false));
  const RunResult baseline = no_steal.run_source(skew_source());
  EXPECT_EQ(baseline.profile.scheduling.steals_granted, 0);

  // The steal itself is a race against the victim finishing its heavy
  // iteration; the skew makes it all but certain, but on a loaded
  // machine allow a few attempts. Bit-identity must hold on EVERY run,
  // stolen or not.
  std::int64_t steals = 0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    Sip sip(skew_config(true));
    const RunResult result = sip.run_source(skew_source());
    EXPECT_EQ(result.scalar("lsum"), baseline.scalar("lsum"))
        << "attempt " << attempt;
    EXPECT_GT(result.profile.scheduling.chunks_served, 0);
    steals += result.profile.scheduling.steals_granted;
    if (steals > 0 && attempt >= 1) break;
  }
  EXPECT_GT(steals, 0) << "skewed pardo never triggered a steal";
}

TEST(PlannerStealTest, SerialAndStolenRunsAgree) {
  SipConfig serial = skew_config(false);
  serial.workers = 1;
  Sip one(serial);
  const double expected = one.run_source(skew_source()).scalar("lsum");
  Sip sip(skew_config(true));
  EXPECT_EQ(sip.run_source(skew_source()).scalar("lsum"), expected);
}

TEST(PlannerStealTest, StealingStaysExactlyOnceUnderChaos) {
  // Chaos drop/dup plans perturb the data plane while steals shuffle
  // the schedule underneath; a lost put or a double-applied accumulate
  // would shift the integer-valued checksum. Bit-equality against the
  // fault-free baseline is the exactly-once assertion.
  Sip clean(skew_config(true));
  const double baseline = clean.run_source(skew_source()).scalar("lsum");
  for (const char* plan : {"drop=0.01,seed=7", "dup=0.02,seed=11"}) {
    SipConfig config = skew_config(true);
    config.retry_timeout_ms = 50;
    config.fault_plan = FaultPlan::parse(plan);
    Sip sip(config);
    const RunResult result = sip.run_source(skew_source());
    EXPECT_EQ(result.scalar("lsum"), baseline) << plan;
  }
}

}  // namespace
}  // namespace sia::sip
