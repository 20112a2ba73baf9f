#include "sip/launch.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <set>
#include <system_error>
#include <thread>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "msg/tags.hpp"
#include "sial/compiler.hpp"
#include "sial/opt/optimizer.hpp"
#include "sip/io_server.hpp"
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
  finish_calibration_save();
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

// Waits for every child's end-of-run kResultReport and appends it to
// `reports`. The master has returned, so nothing else reads rank 0's
// mailbox, and the hub still accepts the children's one-shot
// connections. Returns the first error: a child's kAbort text, or a
// malformed or duplicate report.
std::string collect_child_reports(msg::Fabric& fabric, int ranks,
                                  std::vector<RankReport>& reports) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  std::set<int> reported;
  while (static_cast<int>(reported.size()) < ranks - 1 &&
         std::chrono::steady_clock::now() < deadline) {
    bool got = false;
    while (auto m = fabric.try_recv_tag(0, msg::kResultReport)) {
      got = true;
      try {
        RankReport report = RankReport::decode(*m);
        if (report.rank != m->src || !reported.insert(m->src).second) {
          throw Error("unexpected result report");
        }
        reports.push_back(std::move(report));
      } catch (const Error& error) {
        return "spawn: rank " + std::to_string(m->src) + ": " + error.what();
      }
    }
    if (auto m = fabric.try_recv_tag(0, msg::kAbort)) return abort_text(*m);
    if (!got) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return "";
}

// The launch driver, for every transport: builds the shared state and
// the fabric, starts ranks 1..N as threads or child processes, runs the
// master on this thread, and merges every rank's report into `result`.
void drive(const sial::ResolvedProgram& resolved, SipConfig config,
           const std::string& scratch_dir, const std::string& source,
           RunResult& result) {
  const bool processes = config.spawn_processes();
  if (processes) {
    if (source.empty()) {
      throw Error(
          "transport=spawn requires run_source(): spawned ranks recompile "
          "the SIAL source, which run(CompiledProgram) does not carry");
    }
    // Real processes die for real even without injected faults. Keep the
    // heartbeat watchdog on so a lost child becomes a diagnosed abort
    // instead of a hang (a thread cannot vanish without taking the
    // process with it, so thread ranks leave it off in fault-free runs).
    if (config.heartbeat_ms == 0 && !config.fault_tolerance_enabled()) {
      config.heartbeat_ms = SipConfig::kAutoHeartbeatMs;
    }
  }
  const int total = config.total_ranks();
  LaunchProcess launch(resolved, config, scratch_dir,
                       result.dry_run.pool_plan, 0);
  SipShared& shared = launch.shared;
  const LaunchFabric& fabric = launch.fabric;
  IoServer::clear_ack_journals(shared);

  // Thread ranks hand their reports back in memory, by rank; only this
  // thread (the master's) starts and joins them.
  std::vector<std::thread> threads(static_cast<std::size_t>(total));
  std::vector<RankReport> thread_reports(static_cast<std::size_t>(total));
  std::optional<ChildRanks> children;
  if (processes) {
    children.emplace(shared, source, fabric.socket->listen_address());
  }
  const auto start = [&](int rank, int incarnation) {
    if (children) return children->start(rank, incarnation);
    const std::size_t r = static_cast<std::size_t>(rank);
    threads[r] = std::thread([&shared, &report = thread_reports[r], rank] {
      report = run_rank(shared, rank);
    });
    return true;
  };

  // Reports of server incarnations retired by a respawn, then every
  // rank's final one.
  std::vector<RankReport> reports;
  if (config.fault_tolerance_enabled()) {
    // Called from the master's watchdog, on this thread. The fresh server
    // rebuilds from the durable files and the ack journal; clients'
    // retransmits refill the rest.
    shared.respawn_server = [&](int rank) {
      if (!shared.is_server(rank)) return false;
      if (children) {
        // Drop the dead process's stale connection so the respawned
        // one's hello is not shadowed.
        fabric.socket->disconnect(rank);
      } else {
        // The dead incarnation abandoned its stores and returned. Its
        // counters merge as one more report; its census is not a
        // counter, since the successor rebuilds and reports the same
        // blocks.
        const std::size_t r = static_cast<std::size_t>(rank);
        threads[r].join();
        reports.push_back(std::move(thread_reports[r]));
        reports.back().resident.clear();
      }
      fabric.fabric->revive(rank);
      return start(rank, 1);
    };
  }
  Master master(shared);
  for (int r = 1; r < total; ++r) {
    if (!start(r, 0)) {
      throw Error("spawn: fork failed for rank " + std::to_string(r) + ": " +
                  std::strerror(errno));
    }
  }
  if (children && !fabric.socket->wait_for_peers(config.connect_timeout_ms)) {
    std::string missing;
    for (int r = 1; r < total; ++r) {
      if (!fabric.socket->peer_connected(r)) {
        missing += (missing.empty() ? "" : ", ") + std::to_string(r);
      }
    }
    fabric.fabric->stop();
    throw RuntimeError("spawn: ranks {" + missing + "} never connected to " +
                       fabric.socket->listen_address() + " within " +
                       std::to_string(config.connect_timeout_ms) + " ms");
  }

  master.run();  // this thread is rank 0

  std::string error;
  if (children) {
    // On abort the children's reports are moot: the error already
    // arrived through the live fabric.
    error = shared.error();
    if (error.empty()) {
      error = collect_child_reports(*fabric.fabric, total, reports);
    }
    fabric.fabric->stop();
    children->reap();
  } else {
    for (int r = 1; r < total; ++r) {
      const std::size_t slot = static_cast<std::size_t>(r);
      threads[slot].join();
      reports.push_back(std::move(thread_reports[slot]));
    }
    error = shared.error();
  }
  if (!error.empty()) throw RuntimeError(error);
  reports.push_back(make_rank_report(shared, 0, &master, nullptr, nullptr,
                                     /*process_counters=*/true));
  merge_reports(reports, resolved, result);
}

}  // namespace

void Sip::save_calibration(Calibration calibration, std::string path) {
  // Best effort: a read-only HOME is fine, so a failure is only logged,
  // and nothing may escape the thread.
  const auto save = [calibration = std::move(calibration),
                     path = std::move(path)] {
    std::string error = "write failed";
    try {
      if (calibration.save(path)) return;
    } catch (const std::exception& e) {
      error = e.what();
    }
    SIA_INFO(-1) << "calibration not saved to " << path << ": " << error;
  };
  finish_calibration_save();
  try {
    calibration_save_ = std::thread(save);
  } catch (const std::system_error&) {
    save();  // no thread to spare: save on this one
  }
}

void Sip::finish_calibration_save() const {
  if (calibration_save_.joinable()) calibration_save_.join();
}

RunResult Sip::run(const sial::CompiledProgram& program) {
  finish_calibration_save();
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
  std::optional<sim::WorkloadModel> walked;  // the plan's walk, if any
  if (autotune_enabled(config_)) {
    cal_path = calibration_path(config_);
    calibration = Calibration::load(cal_path);
    PlanChoice choice =
        plan_launch(optimized, config_, calibration, HostModel{});
    config_ = choice.config;
    plan_record.planned = true;
    plan_record.calibrated = choice.calibrated;
    plan_record.predicted_seconds = choice.predicted_seconds;
    plan_record.candidates = choice.candidates;
    plan_record.summary = choice.summary;
    plan_record.pinned = choice.pinned;
    if (choice.candidates > 0) walked = std::move(choice.workload);
  }

  const sial::ResolvedProgram resolved(std::move(optimized), config_);

  // "The master inspects the SIAL program in dry-run mode" before any
  // resources are committed (paper §V-B).
  RunResult result;
  result.dry_run =
      walked ? dry_run(walked->memory, config_) : dry_run(resolved);
  if (!result.dry_run.feasible) {
    throw InfeasibleError(
        "program '" + program.name + "' needs " +
            std::to_string(result.dry_run.per_worker_bytes() / 1024) +
            " KiB per worker but only " +
            std::to_string(config_.worker_memory_bytes / 1024) +
            " KiB are configured",
        result.dry_run.workers_needed);
  }

  const double exec_start = wall_seconds();
  drive(resolved, config_, scratch_dir_, pending_source_, result);
  if (plan_record.planned) {
    // Closes the autotuning loop: records predicted vs actual in the
    // profile and refits the transport's cost table from the run's
    // per-pc profile into the calibration file that seeds the next plan.
    plan_record.actual_seconds = wall_seconds() - exec_start;
    result.profile.plan = plan_record;
    update_calibration(&calibration, config_.transport, result.profile,
                       resolved, walked ? &*walked : nullptr);
    save_calibration(std::move(calibration), std::move(cal_path));
  }
  return result;
}

PlanChoice Sip::plan(const sial::CompiledProgram& program) const {
  finish_calibration_save();
  return plan_launch(sial::opt::optimize(program, config_.opt_level).program,
                     config_, Calibration::load(calibration_path(config_)),
                     HostModel{});
}

}  // namespace sia::sip
