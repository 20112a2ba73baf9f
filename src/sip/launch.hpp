// SIP launch: the public entry point of the runtime.
//
// A Sip object owns a scratch directory (served arrays and checkpoints
// persist there across runs, which is how chained SIAL programs pass data
// to each other, paper §IV-C) and runs compiled SIAL programs on a fresh
// fabric of master + worker + I/O-server ranks each time.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/config.hpp"
#include "msg/fabric.hpp"
#include "sial/bytecode.hpp"
#include "sip/master.hpp"
#include "sip/planner.hpp"
#include "sip/profiler.hpp"

namespace sia::sip {

// Aggregated statistics from one run.
struct RunResult {
  // Final scalar values (worker 0's copy; collectives synchronize them).
  std::map<std::string, double> scalars;
  ProfileReport profile;
  DryRunReport dry_run;
  msg::TrafficStats traffic;  // whole-fabric totals

  struct WorkerTotals {
    std::int64_t gets_issued = 0;
    std::int64_t gets_local = 0;
    std::int64_t gets_cached = 0;
    std::int64_t implicit_gets = 0;
    std::int64_t puts_remote = 0;
    std::int64_t puts_local = 0;
    // Write combining: accumulate-puts/prepares merged into a shadow
    // block instead of sent, and the messages that eventually carried the
    // merged blocks out.
    std::int64_t puts_coalesced = 0;
    std::int64_t prepares_coalesced = 0;
    std::int64_t coalesce_flushes = 0;
    std::int64_t cache_hits = 0;
    std::int64_t cache_misses = 0;
    std::int64_t cache_evictions = 0;
    std::int64_t pool_heap_fallbacks = 0;
    // Pool size class (doubles) -> high water of live slots, the max
    // over workers (BlockPool::Stats::class_high_water).
    std::map<std::size_t, std::size_t> pool_class_high_water;
    std::size_t peak_local_doubles = 0;  // max over workers
  } workers;

  double scalar(const std::string& name) const;
};

class Sip {
 public:
  // Creates the runtime. If config.scratch_dir is empty a fresh temp
  // directory is created and removed on destruction.
  explicit Sip(SipConfig config);
  ~Sip();
  Sip(const Sip&) = delete;
  Sip& operator=(const Sip&) = delete;

  // Compiles and runs SIAL source (front end errors throw CompileError).
  RunResult run_source(const std::string& source);
  // Runs an already compiled program.
  RunResult run(const sial::CompiledProgram& program);

  // Dry run only: resolve, analyze, and return the report without
  // executing (does not throw on infeasibility).
  DryRunReport analyze(const sial::CompiledProgram& program) const;

  // Runs the launch-time planner without executing: loads calibration,
  // sweeps the knobs through the DES model, and returns the tuned
  // configuration with its prediction record. This is exactly the plan
  // run(...) would apply with config.autotune set.
  PlanChoice plan(const sial::CompiledProgram& program) const;

  const SipConfig& config() const { return config_; }
  const std::string& scratch_dir() const { return scratch_dir_; }

 private:
  SipConfig config_;
  std::string scratch_dir_;
  bool owns_scratch_ = false;
  // SIAL source of the program currently in run_source(): spawn mode
  // ships it to child processes, which recompile it deterministically.
  std::string pending_source_;
  // An autotuned run() returns before its refit calibration is on disk:
  // this thread writes it. The next run() or plan() and ~Sip join it, so
  // the file is durable by then.
  mutable std::thread calibration_save_;
  void save_calibration(Calibration calibration, std::string path);
  void finish_calibration_save() const;
};

}  // namespace sia::sip
