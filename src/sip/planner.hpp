// Launch-time autotuning: the DES simulator becomes the planner.
//
// The paper calls the segment size "the most significant tuning factor"
// and §VIII promises a performance model. At launch the planner derives a
// WorkloadModel from the compiled program at each candidate segment size,
// prices every iteration's instructions from a per-opcode-class cost
// table, lets the discrete-event simulator schedule the priced pardos,
// and applies the fastest segment to the SipConfig before resolution.
// Segment is the one swept dimension; the I/O-server knobs come from
// dry-run sizing. Tuned knobs moved off their default (SipConfig::fields
// names each one's dimension) are pinned and never overridden.
//
// After the run, predicted-vs-actual lands in the ProfileReport, and the
// cost table is refitted from the run's own per-pc profile and persisted
// per transport, so the next plan prices instructions as this host ran
// them.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sial/bytecode.hpp"
#include "sim/workload.hpp"

namespace sia::sial {
class ResolvedProgram;
}

namespace sia::sip {

struct ProfileReport;

// What one instruction of a cost class costs: a fixed time plus a time
// per unit (sim::CostClass names each class's unit). Measured times
// include the waits the instruction absorbed, except barrier and
// collective waits, which the simulator derives from the schedule.
struct ClassCost {
  double fixed_s = 0.0;
  double per_unit_s = 0.0;
};

struct CostTable {
  // Cold defaults: the fit over thread-transport runs on a 4-core x86-64
  // host (docs/RUNTIME.md, "Autotuning and the planner", names the runs).
  std::array<ClassCost, sim::kCostClassCount> classes{{
      {1.1e-6, 1.1e-9},    // contract, per flop
      {1.1e-6, 4.2e-9},    // execute, per element
      {3.9e-7, 7.9e-9},    // elementwise, per element
      {8.5e-5, 0.0},       // chunk, per request
      {2.0e-5, 0.0},       // sync
      {1.9e-6, 2.3e-9},    // transfer, per byte
  }};

  // Seconds for `load` at these prices.
  double price(const sim::Load& load) const;
};

// Per-host planner state, serialized as a small text file. A missing or
// corrupt file, or one from an older format, falls back to the cold
// table.
struct Calibration {
  std::map<std::string, CostTable> tables;  // fitted tables, by transport
  int runs = 0;                   // planned runs folded in so far
  double last_error_percent = 0.0;

  // The fitted table for `transport`, else the cold defaults.
  CostTable table(const std::string& transport) const;

  // Missing/corrupt file -> defaults (never throws). Unknown keys are
  // ignored for forward compatibility.
  static Calibration load(const std::string& path);
  // Durable replace: temp file, fdatasync, rename. Best effort.
  bool save(const std::string& path) const;
};

// Calibration file location: config.calibration_file, else the
// SIA_CALIBRATION environment variable, else ~/.cache/sia/calibration.
std::string calibration_path(const SipConfig& config);

// The host the plan is for. cores == 0 means hardware_concurrency; tests
// pass explicit values to model other machines (e.g. the 1-core case).
struct HostModel {
  int cores = 0;
  int resolved_cores() const;
};

// The planner's output: a tuned configuration plus the prediction record.
struct PlanChoice {
  SipConfig config;
  double predicted_seconds = 0.0;
  double baseline_seconds = 0.0;  // predicted time of the untuned config
  int candidates = 0;             // feasible distinct tilings priced
  bool calibrated = false;        // calibration had prior runs
  CostTable costs;                // the table the candidates were priced by
  std::string summary;            // tuned knobs, "dimension=value ..."
  std::vector<std::string> pinned;  // dimensions moved off their default
  sim::WorkloadModel workload;  // the chosen candidate's walk
};

// Predicted wall seconds for one candidate configuration against a
// workload already modeled at that configuration's segment size.
double predict_seconds(const sim::WorkloadModel& workload,
                       const SipConfig& candidate, const CostTable& costs);

// The planner. `optimized` is the mid-end output (the same program the
// launch resolves); `base` is the user's configuration, whose tuned
// fields that differ from a default-constructed SipConfig are pinned.
// Segment sizes that tile every index alike walk and price alike, so
// each distinct tiling is walked once. Pure function of its arguments —
// same inputs, same plan.
PlanChoice plan_launch(const sial::CompiledProgram& optimized,
                       const SipConfig& base, const Calibration& cal,
                       const HostModel& host);

// One instruction's profile in a run: its class, executions, summed
// seconds, and units per execution.
struct CostSample {
  sim::CostClass cls;
  double count = 0.0;
  double seconds = 0.0;
  double units = 0.0;
};

// Refits `prior` to `samples`, class by class. Where a class's samples
// span a range of sizes, a Theil-Sen line through their per-execution
// means sets the fixed/per-unit split; otherwise the prior's split
// stands. Both terms are then scaled so the class's modeled total matches
// its measured total, and each stays within a factor of 100 of its cold
// default. Classes without samples keep their prior costs.
CostTable fit_costs(const std::vector<CostSample>& samples,
                    const CostTable& prior);

// Post-run learning: records the plan's error and, when the run was
// profiled, refits `transport`'s table from the merged per-pc costs of
// `profile` against `program`'s units per pc. `walked` is `program`'s
// workload when the caller has it (the plan's walk); otherwise the
// program is walked here.
void update_calibration(Calibration* cal, const std::string& transport,
                        const ProfileReport& profile,
                        const sial::ResolvedProgram& program,
                        const sim::WorkloadModel* walked = nullptr);

}  // namespace sia::sip
