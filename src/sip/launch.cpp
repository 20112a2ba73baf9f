#include "sip/launch.hpp"

#include <cstdlib>
#include <filesystem>
#include <thread>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "sial/compiler.hpp"
#include "sial/opt/optimizer.hpp"
#include "msg/socket_fabric.hpp"
#include "sip/interpreter.hpp"
#include "sip/io_server.hpp"
#include "sip/rank_report.hpp"
#include "sip/shared.hpp"
#include "sip/spawn.hpp"
#include "sip/superinstr.hpp"

namespace sia::sip {

double RunResult::scalar(const std::string& name) const {
  auto it = scalars.find(name);
  if (it == scalars.end()) {
    throw Error("run result has no scalar named '" + name + "'");
  }
  return it->second;
}

Sip::Sip(SipConfig config) : config_(std::move(config)) {
  config_.validate();
  register_builtin_superinstructions();
  if (config_.scratch_dir.empty()) {
    // Unique directory under the system temp dir.
    const auto base = std::filesystem::temp_directory_path();
    const std::uint64_t tag =
        splitmix64(static_cast<std::uint64_t>(wall_seconds() * 1e9) ^
                   reinterpret_cast<std::uintptr_t>(this));
    scratch_dir_ = (base / ("sia_" + std::to_string(tag))).string();
    std::filesystem::create_directories(scratch_dir_);
    owns_scratch_ = true;
  } else {
    scratch_dir_ = config_.scratch_dir;
    std::filesystem::create_directories(scratch_dir_);
  }
}

Sip::~Sip() {
  if (owns_scratch_) {
    std::error_code ec;
    std::filesystem::remove_all(scratch_dir_, ec);
  }
}

RunResult Sip::run_source(const std::string& source) {
  pending_source_ = source;
  try {
    RunResult result = run(sial::compile_sial(source));
    pending_source_.clear();
    return result;
  } catch (...) {
    pending_source_.clear();
    throw;
  }
}

DryRunReport Sip::analyze(const sial::CompiledProgram& program) const {
  const sial::ResolvedProgram resolved(
      sial::opt::optimize(program, config_.opt_level).program, config_);
  return dry_run(resolved);
}

namespace {

// SIA_AUTOTUNE wins over config.autotune in both directions, so test
// suites can force planning off (or on) without touching code.
bool autotune_enabled(const SipConfig& config) {
  if (const char* env = std::getenv("SIA_AUTOTUNE")) {
    if (env[0] == '0' && env[1] == '\0') return false;
    if (env[0] == '1' && env[1] == '\0') return true;
  }
  return config.autotune;
}

}  // namespace

RunResult Sip::run(const sial::CompiledProgram& program) {
  // Fault-plan pickup: an explicit plan in the config wins; otherwise
  // SIA_FAULT_PLAN lets a harness inject faults without touching code.
  if (!config_.fault_plan.active()) {
    config_.fault_plan = FaultPlan::from_env();
    config_.fault_plan.validate();
  }
  // Transport pickup, same precedence: SIA_TRANSPORT=loopback|spawn runs
  // any existing suite over the socket fabric without touching code
  // (e.g. SIA_TRANSPORT=loopback ctest -R 'test_opt|test_sparse' for the
  // bit-identity suites over the wire codec).
  if (config_.transport == "thread") {
    if (const char* env = std::getenv("SIA_TRANSPORT")) {
      config_.transport = env;
      config_.validate();
    }
  }
  // The mid-end runs between the compiler and program finalization; at
  // -O0 `optimize` returns an untouched copy.
  sial::CompiledProgram optimized =
      sial::opt::optimize(program, config_.opt_level).program;

  // Launch-time autotuning: sweep the segment size through the priced
  // DES model and apply the winning plan to config_ *before* resolution,
  // so segment size takes effect and spawn mode ships the tuned values in
  // its bundle (the bundle carries autotune too, but children never plan).
  ProfileReport::Plan plan_record;
  Calibration calibration;
  std::string cal_path;
  if (autotune_enabled(config_) && !config_.dry_run_only) {
    cal_path = calibration_path(config_);
    calibration = Calibration::load(cal_path);
    const PlanChoice choice =
        plan_launch(optimized, config_, calibration, HostModel{});
    config_ = choice.config;
    plan_record.planned = true;
    plan_record.calibrated = choice.calibrated;
    plan_record.predicted_seconds = choice.predicted_seconds;
    plan_record.candidates = choice.candidates;
    plan_record.summary = choice.summary;
    plan_record.pinned = choice.pinned;
  }

  const sial::ResolvedProgram resolved(std::move(optimized), config_);

  // "The master inspects the SIAL program in dry-run mode" before any
  // resources are committed (paper §V-B).
  RunResult result;
  result.dry_run = dry_run(resolved);
  if (config_.dry_run_only) return result;
  if (!result.dry_run.feasible) {
    throw InfeasibleError(
        "program '" + program.name + "' needs " +
            std::to_string(result.dry_run.per_worker_bytes() / 1024) +
            " KiB per worker but only " +
            std::to_string(config_.worker_memory_bytes / 1024) +
            " KiB are configured",
        result.dry_run.workers_needed);
  }

  // Closes the autotuning loop after execution: records predicted vs
  // actual in the profile and refits the transport's cost table from the
  // run's per-pc profile into the calibration file that seeds the next
  // plan.
  auto finish_plan = [&](RunResult& r, double actual_seconds) {
    if (!plan_record.planned) return;
    plan_record.actual_seconds = actual_seconds;
    r.profile.plan = plan_record;
    update_calibration(&calibration, config_.transport, r.profile, resolved);
    calibration.save(cal_path);  // best effort; a read-only HOME is fine
  };

  // Spawn mode: every worker and I/O-server rank is its own OS process
  // wired to this process's socket hub. The children recompile the SIAL
  // source, so only run_source() launches can spawn.
  if (config_.spawn_processes()) {
    if (pending_source_.empty()) {
      throw Error(
          "transport=spawn requires run_source(): spawned ranks recompile "
          "the SIAL source, which run(CompiledProgram) does not carry");
    }
    const double spawn_start = wall_seconds();
    RunResult spawned = run_spawned(config_, scratch_dir_, pending_source_,
                                    resolved, std::move(result));
    finish_plan(spawned, wall_seconds() - spawn_start);
    return spawned;
  }

  const double exec_start = wall_seconds();

  const bool fault_tolerant = config_.fault_tolerance_enabled();
  // Transport: plain in-process mailboxes, or the loopback socket fabric
  // that frames every cross-rank message over a real socketpair (the
  // transport-parity mode socket tests and benches use). Fault plans
  // decorate either with the chaos layer.
  std::unique_ptr<msg::Fabric> fabric;
  if (config_.socket_transport()) {
    msg::SocketOptions sopts;
    sopts.role = msg::SocketOptions::Role::kLoopback;
    sopts.connect_timeout_ms = config_.connect_timeout_ms;
    fabric =
        std::make_unique<msg::SocketFabric>(config_.total_ranks(), sopts);
  } else {
    fabric = std::make_unique<msg::Fabric>(config_.total_ranks());
  }
  if (config_.fault_plan.active()) {
    fabric = std::make_unique<msg::ChaosFabric>(std::move(fabric),
                                                config_.fault_plan);
  }

  SipShared shared(resolved, config_, scratch_dir_, result.dry_run.pool_plan);
  shared.fabric = fabric.get();
  IoServer::clear_ack_journals(shared);

  Master master(shared);
  std::vector<std::unique_ptr<Interpreter>> workers;
  workers.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    workers.push_back(std::make_unique<Interpreter>(shared, w));
  }
  std::vector<std::unique_ptr<IoServer>> servers;
  servers.reserve(static_cast<std::size_t>(config_.io_servers));
  for (int s = 0; s < config_.io_servers; ++s) {
    servers.push_back(
        std::make_unique<IoServer>(shared, 1 + config_.workers + s));
  }

  std::vector<std::thread> threads;
  // Reports of server incarnations retired by a respawn; like `threads`,
  // only the master thread touches it until the join.
  std::vector<RankReport> reports;
  // The respawn closure indexes `threads` by rank from the master's
  // heartbeat thread. Size the vector once and fill it by rank with the
  // master started last, so every write happens-before the master thread
  // exists; after launch only the master mutates it, and the join loop
  // reads the other slots only after the master (joined first) exits.
  threads.resize(static_cast<std::size_t>(config_.total_ranks()));
  if (fault_tolerant && config_.server_recovery) {
    shared.respawn_server = [&](int rank) -> bool {
      const int s = rank - 1 - config_.workers;
      if (s < 0 || s >= static_cast<int>(servers.size())) return false;
      const std::size_t t = static_cast<std::size_t>(rank);
      if (t >= threads.size()) return false;
      if (threads[t].joinable()) threads[t].join();
      // The dead incarnation's counters merge as one more report. Its
      // census is not a counter: the successor rebuilds the same blocks
      // from the durable files and reports them.
      reports.push_back(make_rank_report(shared, rank, nullptr, nullptr,
                                         servers[s].get(), false));
      reports.back().resident.clear();
      // The dead incarnation abandoned its stores, so destroying it cannot
      // clobber the durable files. The fresh server rebuilds from those
      // files and the ack journal; clients' retransmits refill the rest.
      servers[s].reset();
      servers[s] = std::make_unique<IoServer>(shared, rank);
      fabric->revive(rank);
      threads[t] = std::thread([srv = servers[s].get()] { srv->run(); });
      return true;
    };
  }
  for (int w = 0; w < config_.workers; ++w) {
    Interpreter* interp = workers[static_cast<std::size_t>(w)].get();
    threads[static_cast<std::size_t>(1 + w)] =
        std::thread([interp] { interp->run(); });
  }
  for (int s = 0; s < config_.io_servers; ++s) {
    IoServer* srv = servers[static_cast<std::size_t>(s)].get();
    threads[static_cast<std::size_t>(1 + config_.workers + s)] =
        std::thread([srv] { srv->run(); });
  }
  threads[0] = std::thread([&master] { master.run(); });
  for (std::thread& thread : threads) thread.join();
  const double exec_seconds = wall_seconds() - exec_start;

  {
    std::lock_guard<std::mutex> lock(shared.error_mutex);
    if (!shared.first_error.empty()) {
      throw RuntimeError(shared.first_error);
    }
  }

  reports.push_back(make_rank_report(shared, 0, &master, nullptr, nullptr,
                                     /*process_counters=*/true));
  for (const auto& worker : workers) {
    reports.push_back(make_rank_report(shared, 1 + worker->worker_index(),
                                       nullptr, worker.get(), nullptr, false));
  }
  for (int s = 0; s < config_.io_servers; ++s) {
    reports.push_back(make_rank_report(shared, config_.first_server_rank() + s,
                                       nullptr, nullptr, servers[s].get(),
                                       false));
  }
  merge_reports(reports, resolved, result);
  finish_plan(result, exec_seconds);
  return result;
}

PlanChoice Sip::plan(const sial::CompiledProgram& program) const {
  return plan_launch(sial::opt::optimize(program, config_.opt_level).program,
                     config_, Calibration::load(calibration_path(config_)),
                     HostModel{});
}

}  // namespace sia::sip
