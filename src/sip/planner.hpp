// Launch-time autotuning: the DES simulator becomes the planner.
//
// The paper calls the segment size "the most significant tuning factor"
// and §VIII promises a performance model; src/sim already implements that
// model but only regenerated figures. The planner closes the loop: at
// launch it derives a WorkloadModel from the compiled program's static
// block read/write sets, sweeps the runtime's tunable knobs through the
// discrete-event simulator in milliseconds, and applies the winning plan
// to the SipConfig before resolution. Tuned knobs moved off their
// default (SipConfig::fields names each one's dimension) are pinned and
// never overridden.
//
// After the run, predicted-vs-actual lands in the ProfileReport and the
// per-host calibration constants (measured GEMM rate, fabric bandwidth,
// disk bandwidth, a model-bias term) are persisted to a calibration file
// that seeds the next plan — the model self-corrects run over run.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "sial/bytecode.hpp"
#include "sim/workload.hpp"

namespace sia::sip {

// Per-host measured constants feeding the machine model. Serialized as a
// small "key value" text file; a missing or corrupt file falls back to
// these defaults (cold calibration).
struct Calibration {
  double gemm_gflops = 8.0;       // sustained block-GEMM rate (measured)
  double latency_s = 2e-6;        // fabric point-to-point latency
  double link_bw = 4e9;           // fabric bandwidth, B/s
  double disk_bw = 200e6;         // per-I/O-server disk bandwidth, B/s
  double master_service_s = 3e-6; // serialized chunk-service time
  double kernel_knee = 6.0;       // GEMM efficiency half-point (segment)
  double execute_gflops = 2.0;    // superinstruction per-element rate
  double time_scale = 1.0;        // model bias: EWMA of actual/predicted
  int runs = 0;                   // planned runs folded in so far
  double last_error_percent = 0.0;

  std::string serialize() const;
  // Parses serialize() output; *ok is false (and defaults returned) on
  // malformed input. Unknown keys are ignored for forward compatibility.
  static Calibration parse(const std::string& text, bool* ok);
  // Missing/corrupt file -> defaults (never throws).
  static Calibration load(const std::string& path);
  bool save(const std::string& path) const;  // best effort
};

// Calibration file location: config.calibration_file, else the
// SIA_CALIBRATION environment variable, else ~/.cache/sia/calibration.
std::string calibration_path(const SipConfig& config);

// Measures the sustained GEMM rate with the real kernel (a few ms).
double measure_gemm_gflops();

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
  int candidates = 0;             // configurations evaluated
  bool calibrated = false;        // calibration had prior runs
  std::string summary;            // tuned knobs, "dimension=value ..."
  std::vector<std::string> pinned;  // dimensions moved off their default
};

// Predicted wall seconds for one candidate configuration against a
// workload already modeled at that configuration's segment size.
// Exposed for tests and the bench.
double predict_seconds(const sim::WorkloadModel& workload,
                       const SipConfig& candidate, const Calibration& cal,
                       const HostModel& host);

// The planner. `optimized` is the mid-end output (the same program the
// launch resolves); `base` is the user's configuration, whose tuned
// fields that differ from a default-constructed SipConfig are pinned.
// Pure function of its arguments — same inputs, same plan.
PlanChoice plan_launch(const sial::CompiledProgram& optimized,
                       const SipConfig& base, const Calibration& cal,
                       const HostModel& host);

// Post-run learning: folds predicted-vs-actual, the measured GEMM rate,
// and observed fabric/disk throughput back into the calibration.
// bytes_moved/messages come from TrafficStats, disk_bytes from the
// DiskStore counters; pass 0 for signals that did not occur.
void update_calibration(Calibration* cal, double predicted_seconds,
                        double actual_seconds, double measured_gflops,
                        double bytes_moved, std::int64_t messages,
                        double disk_bytes);

}  // namespace sia::sip
