// Launch-time planner and guided-schedule work stealing.
//
// Covers the closed autotuning loop (deterministic segment sweep, pinned
// knobs, serial-baseline floor, the cost table's persistence and fit)
// and the runtime half: stealing the tail of a straggler's chunk must
// leave every result bit-identical, including under chaos fault plans.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "shipped_programs.hpp"
#include "sial/compiler.hpp"
#include "sial/opt/optimizer.hpp"
#include "sial/program.hpp"
#include "sim/program_model.hpp"
#include "sip/launch.hpp"
#include "sip/master.hpp"
#include "sip/planner.hpp"
#include "sip/profiler.hpp"

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

TEST(PlannerTest, SweepsOnlySegmentSize) {
  // Segment is the one swept dimension: one candidate per segment size,
  // and the untuned knobs come back exactly as the user set them.
  SipConfig base = sweep_config();
  base.chunk_divisor = 3;
  base.prefetch_depth = 7;
  base.opt_level = 0;
  base.min_chunk = 2;
  const PlanChoice choice =
      plan_launch(optimized_sweep(base), base, Calibration{}, HostModel{4});
  EXPECT_LE(choice.candidates, 13);
  EXPECT_TRUE(choice.pinned.empty());
  EXPECT_EQ(choice.config.chunk_divisor, 3);
  EXPECT_EQ(choice.config.prefetch_depth, 7);
  EXPECT_EQ(choice.config.opt_level, 0);
  EXPECT_EQ(choice.config.min_chunk, 2);
  EXPECT_EQ(choice.summary.rfind("segment=", 0), 0u) << choice.summary;
  std::vector<std::string> dimensions;
  SipConfig::fields([&](const char*, const Knob& knob, const auto&) {
    if (knob.tuned != nullptr &&
        std::find(dimensions.begin(), dimensions.end(), knob.tuned) ==
            dimensions.end()) {
      dimensions.emplace_back(knob.tuned);
    }
  }, base);
  EXPECT_EQ(dimensions, (std::vector<std::string>{
                            "segment", "server_cache_bytes",
                            "server_disk_threads"}));
}

TEST(PlannerTest, PinnedSegmentIsNeverOverridden) {
  SipConfig base = sweep_config();
  base.default_segment = 6;  // differs from the default -> pinned
  const PlanChoice choice =
      plan_launch(optimized_sweep(base), base, Calibration{}, HostModel{4});
  EXPECT_EQ(choice.config.default_segment, 6);
  EXPECT_EQ(choice.pinned, std::vector<std::string>{"segment"});
  EXPECT_EQ(choice.candidates, 1);
}

TEST(PlannerTest, PricesWithTheTransportsTable) {
  // Each transport keeps its own fitted table; others plan cold.
  Calibration cal;
  CostTable slow;
  for (ClassCost& cost : slow.classes) cost.fixed_s *= 4.0;
  cal.tables["loopback"] = slow;
  cal.runs = 1;
  SipConfig base = sweep_config();
  const PlanChoice thread =
      plan_launch(optimized_sweep(base), base, cal, HostModel{4});
  base.transport = "loopback";
  const PlanChoice loopback =
      plan_launch(optimized_sweep(base), base, cal, HostModel{4});
  for (std::size_t c = 0; c < sim::kCostClassCount; ++c) {
    EXPECT_DOUBLE_EQ(thread.costs.classes[c].fixed_s,
                     CostTable{}.classes[c].fixed_s);
    EXPECT_DOUBLE_EQ(loopback.costs.classes[c].fixed_s,
                     slow.classes[c].fixed_s);
  }
  EXPECT_TRUE(loopback.calibrated);
}

// ---------------------------------------------------------------------
// The cost table: prices, persistence and the fit.

TEST(PlannerTest, TablePricesFixedPlusPerUnit) {
  CostTable table;
  sim::Load load{};
  load[static_cast<std::size_t>(sim::CostClass::kExecute)] = {3.0, 1000.0};
  load[static_cast<std::size_t>(sim::CostClass::kSync)] = {2.0, 0.0};
  const ClassCost& execute =
      table.classes[static_cast<std::size_t>(sim::CostClass::kExecute)];
  const ClassCost& sync =
      table.classes[static_cast<std::size_t>(sim::CostClass::kSync)];
  EXPECT_DOUBLE_EQ(table.price(load), 3.0 * execute.fixed_s +
                                          1000.0 * execute.per_unit_s +
                                          2.0 * sync.fixed_s);
}

TEST(PlannerTest, CalibrationRoundTripsThroughDisk) {
  Calibration cal;
  CostTable spawn;
  spawn.classes[0] = {3.5e-6, 1.25e-9};
  spawn.classes[4] = {7.5e-4, 0.0};
  cal.tables["spawn"] = spawn;
  cal.runs = 3;
  cal.last_error_percent = -12.5;
  const std::string path = temp_calibration_path("sia_cal_roundtrip");
  ASSERT_TRUE(cal.save(path));
  const Calibration back = Calibration::load(path);
  ASSERT_EQ(back.tables.size(), 1u);
  for (std::size_t c = 0; c < sim::kCostClassCount; ++c) {
    EXPECT_DOUBLE_EQ(back.table("spawn").classes[c].fixed_s,
                     spawn.classes[c].fixed_s);
    EXPECT_DOUBLE_EQ(back.table("spawn").classes[c].per_unit_s,
                     spawn.classes[c].per_unit_s);
  }
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
    cal.tables["thread"].classes[0].fixed_s = 1e-6 * (1 + i);
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
  const auto write = [&path](const char* text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  };
  const auto is_cold = [](const Calibration& cal) {
    return cal.runs == 0 && cal.tables.empty();
  };
  write("sia_calibration v2\nruns 4\ncost thread execute banana 1\n");
  EXPECT_TRUE(is_cold(Calibration::load(path)));
  // Wrong magic, negative costs, and a missing file all fall back.
  write("not a calibration file\n");
  EXPECT_TRUE(is_cold(Calibration::load(path)));
  write("sia_calibration v2\nruns 4\ncost thread execute -4 1e-9\n");
  EXPECT_TRUE(is_cold(Calibration::load(path)));
  std::filesystem::remove(path);
  EXPECT_TRUE(is_cold(Calibration::load(path)));
  // A well-formed file does load.
  write("sia_calibration v2\nruns 4\ncost thread execute 2e-6 1e-9\n");
  EXPECT_EQ(Calibration::load(path).runs, 4);
  std::filesystem::remove(path);
}

TEST(PlannerTest, VersionOneCalibrationFallsBackToColdTable) {
  // A version-1 file (GEMM rate, model bias) carries no cost table; it
  // must not seed a plan.
  const std::string path = temp_calibration_path("sia_cal_v1");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "sia_calibration v1\ngemm_gflops 17.25\nruns 9\n";
  }
  const Calibration cal = Calibration::load(path);
  EXPECT_EQ(cal.runs, 0);
  EXPECT_TRUE(cal.tables.empty());
  EXPECT_DOUBLE_EQ(cal.table("thread").classes[0].fixed_s,
                   CostTable{}.classes[0].fixed_s);
  std::filesystem::remove(path);
}

// Samples a class would produce if it cost exactly `truth`.
std::vector<CostSample> exact_samples(sim::CostClass cls,
                                      const ClassCost& truth,
                                      const std::vector<double>& units) {
  std::vector<CostSample> samples;
  for (std::size_t i = 0; i < units.size(); ++i) {
    const double count = 10.0 * static_cast<double>(i + 1);
    samples.push_back({cls, count,
                       count * (truth.fixed_s + truth.per_unit_s * units[i]),
                       units[i]});
  }
  return samples;
}

TEST(PlannerTest, FitRecoversTheCostsThatProducedTheSamples) {
  const CostTable cold;
  const ClassCost truth{2e-6, 3e-9};
  const std::vector<CostSample> samples = exact_samples(
      sim::CostClass::kExecute, truth, {64.0, 256.0, 4096.0, 65536.0});
  const ClassCost fitted =
      fit_costs(samples, cold)
          .classes[static_cast<std::size_t>(sim::CostClass::kExecute)];
  EXPECT_NEAR(fitted.fixed_s, truth.fixed_s, 1e-3 * truth.fixed_s);
  EXPECT_NEAR(fitted.per_unit_s, truth.per_unit_s, 1e-3 * truth.per_unit_s);
}

TEST(PlannerTest, FitIgnoresAnOutlierInstruction) {
  // One instruction that ran 5x slow (a block that waited on a peer) does
  // not bend the line: the split stays the one the other sizes agree on.
  const CostTable cold;
  const ClassCost truth{1e-6, 2e-9};
  std::vector<CostSample> samples = exact_samples(
      sim::CostClass::kElementwise, truth, {16.0, 64.0, 256.0, 1024.0, 4096.0});
  samples[2].seconds *= 5.0;
  const ClassCost fitted =
      fit_costs(samples, cold)
          .classes[static_cast<std::size_t>(sim::CostClass::kElementwise)];
  EXPECT_NEAR(fitted.per_unit_s / fitted.fixed_s,
              truth.per_unit_s / truth.fixed_s,
              0.05 * truth.per_unit_s / truth.fixed_s);
}

TEST(PlannerTest, FitKeepsThePriorSplitForOneSize) {
  // One size cannot separate fixed from per-unit cost: the prior's split
  // stands, scaled so the class total is what the run measured.
  const CostTable cold;
  const std::size_t c = static_cast<std::size_t>(sim::CostClass::kContract);
  const ClassCost& prior = cold.classes[c];
  const double units = 8192.0;
  const double per_execution = 2.0 * (prior.fixed_s + prior.per_unit_s * units);
  const CostTable fitted = fit_costs(
      {{sim::CostClass::kContract, 100.0, 100.0 * per_execution, units}},
      cold);
  EXPECT_DOUBLE_EQ(fitted.classes[c].fixed_s, 2.0 * prior.fixed_s);
  EXPECT_DOUBLE_EQ(fitted.classes[c].per_unit_s, 2.0 * prior.per_unit_s);
  // Classes the run did not execute keep their prior costs.
  const std::size_t sync = static_cast<std::size_t>(sim::CostClass::kSync);
  EXPECT_DOUBLE_EQ(fitted.classes[sync].fixed_s, cold.classes[sync].fixed_s);
}

TEST(PlannerTest, FitIsBoundedAroundTheColdTable) {
  // One run may move a coefficient 20x (a program whose contractions run
  // far faster than the cold table's), but a garbage profile (a stalled
  // host) stops at 100x the cold default.
  const CostTable cold;
  const std::size_t c = static_cast<std::size_t>(sim::CostClass::kChunk);
  const double fixed = cold.classes[c].fixed_s;
  const auto fit_at = [&](double factor) {
    return fit_costs({{sim::CostClass::kChunk, 10.0, 10.0 * factor * fixed,
                       0.0}},
                     cold)
        .classes[c];
  };
  EXPECT_DOUBLE_EQ(fit_at(1.0 / 20.0).fixed_s, fixed / 20.0);
  EXPECT_DOUBLE_EQ(fit_at(1e4).fixed_s, 100.0 * fixed);
  EXPECT_DOUBLE_EQ(fit_at(1e4).per_unit_s, 0.0);
}

TEST(PlannerTest, UnprofiledRunLeavesTheTableUnchanged) {
  const SipConfig config = sweep_config();
  const sial::ResolvedProgram resolved(optimized_sweep(config), config);
  Calibration cal;
  ProfileReport profile;  // no per-pc costs
  profile.plan.predicted_seconds = 2.0;
  profile.plan.actual_seconds = 1.0;
  update_calibration(&cal, "thread", profile, resolved);
  EXPECT_EQ(cal.runs, 1);
  EXPECT_DOUBLE_EQ(cal.last_error_percent, 100.0);
  EXPECT_TRUE(cal.tables.empty());
}

// Per index: its first segment and every segment's extent. Segment sizes
// with equal keys tile the program alike.
std::vector<std::vector<long>> extents_of(
    const sial::ResolvedProgram& program) {
  std::vector<std::vector<long>> key;
  for (const sial::ResolvedIndex& index : program.indices()) {
    key.push_back({index.seg_lo});
    for (int s = index.seg_lo; s <= index.seg_hi; ++s) {
      key.back().push_back(index.segment_extent(s));
    }
  }
  return key;
}

std::string bits(double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%a", value);
  return text;
}

TEST(PlannerTest, PlanMatchesAnExhaustiveSweepOnShippedPrograms) {
  // plan_launch walks each distinct tiling once. Re-derive its choice the
  // long way, walking and pricing every segment, and check that a
  // repeated tiling prices exactly as its first segment did.
  constexpr double kSwitchMargin = 0.25;  // the planner's, for the baseline
  const Calibration cal;
  const HostModel host{4};
  for (const ShippedProgram& shipped : shipped_programs()) {
    for (int workers = 1; workers <= 3; ++workers) {
      SipConfig base = shipped.config;
      base.workers = workers;
      base.default_segment = SipConfig{}.default_segment;  // unpinned
      const std::string where =
          shipped.name + " workers=" + std::to_string(workers);
      const sial::CompiledProgram optimized =
          sial::opt::optimize(sial::compile_sial(shipped.source),
                              base.opt_level)
              .program;
      const CostTable costs = cal.table(base.transport);

      // Tiling -> its first segment's dry run and prediction.
      std::map<std::vector<std::vector<long>>, std::pair<std::string, double>>
          tilings;
      int best_segment = 0;
      double best_seconds = std::numeric_limits<double>::infinity();
      double best_score = best_seconds;
      for (const int segment : {base.default_segment, 2, 4, 6, 12, 16, 24,
                                32, 48, 64, 96, 128}) {
        SipConfig cfg = base;
        cfg.default_segment = segment;
        std::optional<sial::ResolvedProgram> resolved;
        try {
          resolved.emplace(optimized, cfg);
        } catch (const std::exception&) {
          continue;  // a segment the index ranges reject
        }
        const sim::WorkloadModel workload = sim::model_program(*resolved);
        const DryRunReport dry = dry_run(workload.memory, cfg);
        if (!dry.feasible) continue;
        const double seconds = predict_seconds(workload, cfg, costs);
        const auto [first, fresh] = tilings.emplace(
            extents_of(*resolved), std::make_pair(dry.to_string(), seconds));
        if (!fresh) {
          EXPECT_EQ(dry.to_string(), first->second.first)
              << where << " segment " << segment;
          EXPECT_EQ(bits(seconds), bits(first->second.second))
              << where << " segment " << segment;
        }
        const double score =
            segment == base.default_segment ? seconds * (1.0 - kSwitchMargin)
                                            : seconds;
        if (score < best_score) {
          best_score = score;
          best_seconds = seconds;
          best_segment = segment;
        }
      }
      const PlanChoice choice = plan_launch(optimized, base, cal, host);
      EXPECT_EQ(choice.candidates, static_cast<int>(tilings.size())) << where;
      if (best_segment == 0) {  // e.g. nocc 3: no swept segment fits
        EXPECT_EQ(choice.config.default_segment, base.default_segment);
        continue;
      }
      EXPECT_EQ(bits(choice.predicted_seconds), bits(best_seconds)) << where;
      EXPECT_EQ(choice.config.default_segment, best_segment) << where;
      EXPECT_EQ(choice.summary.rfind(
                    "segment=" + std::to_string(best_segment) + " ", 0),
                0u)
          << where << ": " << choice.summary;
      // The same plan with the winning segment pinned: one walk, the same
      // server knobs and prediction.
      SipConfig at_best = base;
      at_best.default_segment = best_segment;
      const PlanChoice pinned = plan_launch(optimized, at_best, cal, host);
      EXPECT_EQ(choice.summary, pinned.summary) << where;
      EXPECT_EQ(bits(choice.predicted_seconds), bits(pinned.predicted_seconds))
          << where;
    }
  }
}

// ---------------------------------------------------------------------
// End-to-end autotuned runs.

TEST(PlannerTest, AutotunedRunRecordsPlanAndPersistsCalibration) {
  const std::string cal_path = temp_calibration_path("sia_cal_e2e");
  std::filesystem::remove(cal_path);
  SipConfig config = sweep_config();
  config.autotune = true;
  config.calibration_file = cal_path;
  std::string transport;
  {
    Sip sip(config);
    const RunResult result = sip.run_source(sweep_source());
    EXPECT_TRUE(result.profile.plan.planned);
    EXPECT_FALSE(result.profile.plan.calibrated);  // first run is cold
    EXPECT_GT(result.profile.plan.candidates, 0);
    EXPECT_GT(result.profile.plan.predicted_seconds, 0.0);
    EXPECT_GT(result.profile.plan.actual_seconds, 0.0);
    // The SIA_TRANSPORT environment variable may have replaced "thread".
    transport = sip.config().transport;
  }
  // The save is durable once the Sip is gone.
  const Calibration cal = Calibration::load(cal_path);
  EXPECT_EQ(cal.runs, 1);
  // Fitted from the profile, under the transport the run used.
  EXPECT_EQ(cal.tables.count(transport), 1u);

  // Second run sees the calibration and reports itself calibrated.
  {
    Sip second(config);
    const RunResult again = second.run_source(sweep_source());
    EXPECT_TRUE(again.profile.plan.planned);
    EXPECT_TRUE(again.profile.plan.calibrated);
  }
  EXPECT_EQ(Calibration::load(cal_path).runs, 2);
  std::filesystem::remove(cal_path);
}

TEST(PlannerTest, SecondRunOnTheSameSipIsCalibrated) {
  // The first run's save may still be in flight when run() returns; the
  // next run() waits for it before it loads the file.
  const std::string cal_path = temp_calibration_path("sia_cal_same");
  std::filesystem::remove(cal_path);
  SipConfig config = sweep_config();
  config.autotune = true;
  config.calibration_file = cal_path;
  {
    Sip sip(config);
    EXPECT_FALSE(sip.run_source(sweep_source()).profile.plan.calibrated);
    const RunResult again = sip.run_source(sweep_source());
    EXPECT_TRUE(again.profile.plan.planned);
    EXPECT_TRUE(again.profile.plan.calibrated);
    // plan() waits for the second run's save the same way.
    EXPECT_TRUE(sip.plan(optimized_sweep(config)).calibrated);
    EXPECT_EQ(Calibration::load(cal_path).runs, 2);
  }
  std::filesystem::remove(cal_path);
}

TEST(PlannerTest, SaveToAnUnwritablePathNeitherThrowsNorTerminates) {
  // The calibration's parent is a regular file, so no directory can be
  // made there and the save fails on the save thread.
  const std::string blocker = temp_calibration_path("sia_cal_blocker");
  std::ofstream(blocker) << "not a directory\n";
  SipConfig config = sweep_config();
  config.autotune = true;
  config.calibration_file = blocker + "/calibration";
  {
    Sip sip(config);
    EXPECT_NO_THROW(sip.run_source(sweep_source()));
    const RunResult again = sip.run_source(sweep_source());
    EXPECT_TRUE(again.profile.plan.planned);
    EXPECT_FALSE(again.profile.plan.calibrated);  // nothing was saved
  }
  EXPECT_FALSE(std::filesystem::exists(config.calibration_file));
  std::filesystem::remove(blocker);
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
  {
    Sip sip(tuned);
    const double got = sip.run_source(sweep_source()).scalar("total");
    EXPECT_NEAR(got, expected, 1e-9 * std::abs(expected));
  }
  std::filesystem::remove(cal_path);  // after ~Sip: the save is done
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
    {
      Sip sip(config);
      const RunResult result = sip.run_source(sweep_source());
      EXPECT_TRUE(result.profile.plan.planned);
    }
    std::filesystem::remove(cal_path);  // after ~Sip: the save is done
  }
}

// ---------------------------------------------------------------------
// Work stealing.

// A deliberately skewed pardo. i's segments are [48, 1] and j's are eight
// of 48, so the pardo's 16 iterations run i-major: the first eight (i=1)
// each carry a 48x48x48 contraction swept `reps` times, the last eight
// (i=2) are 48x slimmer. The guided schedule (chunk_divisor 1) hands each
// worker half the space in one chunk, so one worker holds all eight heavy
// iterations and the other races through the light ones and asks for
// more while the heavy holder still has about six unstarted: the steal
// does not depend on when the request lands. fill_coords writes integer
// elements and the final checksum is computed by a sequential do loop
// every worker executes in the same order, so the result is bitwise
// independent of which worker ran which iteration.
std::string skew_source() {
  return R"SIAL(
sial steal_skew
aoindex i = 1, n
aoindex j = 1, m
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

SipConfig skew_config() {
  SipConfig config;
  config.workers = 2;
  config.io_servers = 0;
  config.default_segment = 48;
  config.segment_overrides["index"] = 1;  // `do r` sweeps reps times
  config.chunk_divisor = 1;  // first chunks: half the space per worker
  config.constants = {{"n", 49}, {"m", 384}, {"reps", 100}};
  return config;
}

// skew_source's lsum in closed form: c(i,j) = reps·Σ_k (100i+k)(100k+j).
// The squares pass 2^53, so this is exact only up to the rounding of
// summing n·m positive terms, n·m·2^-53 relative.
double skew_lsum_closed_form(const SipConfig& config) {
  const long n = config.constants.at("n");
  const long m = config.constants.at("m");
  const long reps = config.constants.at("reps");
  long double sum = 0.0L;
  for (long i = 1; i <= n; ++i) {
    for (long j = 1; j <= m; ++j) {
      long c = 0;
      for (long k = 1; k <= n; ++k) c += (100 * i + k) * (100 * k + j);
      const long double v = static_cast<long double>(reps * c);
      sum += v * v;
    }
  }
  return static_cast<double>(sum);
}

TEST(PlannerStealTest, StealingIsBitIdenticalOnSkewedPardo) {
  const SipConfig config = skew_config();
  const double expected = skew_lsum_closed_form(config);

  // The skew leaves the victim several unstarted heavy iterations when
  // the thief asks, so a steal does not hinge on timing; a second run
  // checks it again. Bit-identity must hold on EVERY run, stolen or not.
  std::optional<double> first;
  std::int64_t steals = 0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    Sip sip(config);
    const RunResult result = sip.run_source(skew_source());
    const double lsum = result.scalar("lsum");
    EXPECT_NEAR(lsum, expected, expected * 1e-11) << "attempt " << attempt;
    if (!first) first = lsum;
    EXPECT_EQ(lsum, *first) << "attempt " << attempt;
    EXPECT_GT(result.profile.scheduling.chunks_served, 0);
    steals += result.profile.scheduling.steals_granted;
    if (steals > 0 && attempt >= 1) break;
  }
  EXPECT_GT(steals, 0) << "skewed pardo never triggered a steal";
}

TEST(PlannerStealTest, SerialAndStolenRunsAgree) {
  SipConfig serial = skew_config();
  serial.workers = 1;
  Sip one(serial);
  const double expected = one.run_source(skew_source()).scalar("lsum");
  Sip sip(skew_config());
  EXPECT_EQ(sip.run_source(skew_source()).scalar("lsum"), expected);
}

TEST(PlannerStealTest, StealingStaysExactlyOnceUnderChaos) {
  // Chaos drop/dup plans perturb the data plane while steals shuffle
  // the schedule underneath; a lost put or a double-applied accumulate
  // would shift the integer-valued checksum. Bit-equality against the
  // fault-free baseline is the exactly-once assertion.
  Sip clean(skew_config());
  const double baseline = clean.run_source(skew_source()).scalar("lsum");
  for (const char* plan : {"drop=0.01,seed=7", "dup=0.02,seed=11"}) {
    SipConfig config = skew_config();
    config.retry_timeout_ms = 50;
    config.fault_plan = FaultPlan::parse(plan);
    Sip sip(config);
    const RunResult result = sip.run_source(skew_source());
    EXPECT_EQ(result.scalar("lsum"), baseline) << plan;
  }
}

}  // namespace
}  // namespace sia::sip
