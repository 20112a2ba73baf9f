#include "sip/planner.hpp"

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
#include <memory>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "blas/gemm.hpp"
#include "common/timer.hpp"
#include "sial/program.hpp"
#include "sim/des.hpp"
#include "sim/machine.hpp"
#include "sim/program_model.hpp"
#include "sip/master.hpp"

namespace sia::sip {

// ---------------------------------------------------------------------
// Calibration persistence.

namespace {

constexpr const char* kCalibrationMagic = "sia_calibration v1";

}  // namespace

std::string Calibration::serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << kCalibrationMagic << "\n";
  out << "gemm_gflops " << gemm_gflops << "\n";
  out << "latency_s " << latency_s << "\n";
  out << "link_bw " << link_bw << "\n";
  out << "disk_bw " << disk_bw << "\n";
  out << "master_service_s " << master_service_s << "\n";
  out << "kernel_knee " << kernel_knee << "\n";
  out << "execute_gflops " << execute_gflops << "\n";
  out << "time_scale " << time_scale << "\n";
  out << "runs " << runs << "\n";
  out << "last_error_percent " << last_error_percent << "\n";
  return out.str();
}

Calibration Calibration::parse(const std::string& text, bool* ok) {
  *ok = false;
  Calibration cal;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kCalibrationMagic) return Calibration{};
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    double value = 0.0;
    if (!(fields >> key >> value) || !std::isfinite(value)) {
      return Calibration{};
    }
    if (key == "gemm_gflops") {
      cal.gemm_gflops = value;
    } else if (key == "latency_s") {
      cal.latency_s = value;
    } else if (key == "link_bw") {
      cal.link_bw = value;
    } else if (key == "disk_bw") {
      cal.disk_bw = value;
    } else if (key == "master_service_s") {
      cal.master_service_s = value;
    } else if (key == "kernel_knee") {
      cal.kernel_knee = value;
    } else if (key == "execute_gflops") {
      cal.execute_gflops = value;
    } else if (key == "time_scale") {
      cal.time_scale = value;
    } else if (key == "runs") {
      cal.runs = static_cast<int>(value);
    } else if (key == "last_error_percent") {
      cal.last_error_percent = value;
    }
    // Unknown keys: ignored (newer writers may add constants).
  }
  // Sanity bounds: a file full of zeros or negatives would divide the
  // model by nonsense; treat it as corrupt.
  if (cal.gemm_gflops <= 0.0 || cal.latency_s <= 0.0 || cal.link_bw <= 0.0 ||
      cal.disk_bw <= 0.0 || cal.master_service_s <= 0.0 ||
      cal.kernel_knee <= 0.0 || cal.execute_gflops <= 0.0 ||
      cal.time_scale <= 0.0 || cal.runs < 0) {
    return Calibration{};
  }
  *ok = true;
  return cal;
}

Calibration Calibration::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Calibration{};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  bool ok = false;
  Calibration cal = parse(buffer.str(), &ok);
  return ok ? cal : Calibration{};
}

bool Calibration::save(const std::string& path) const {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  // Write a private temp file beside the target and rename it into
  // place, so a concurrent load sees the old or the new file, never a
  // truncated one.
  static std::atomic<std::uint64_t> counter{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) +
                           "." + std::to_string(counter++);
  std::ofstream out(temp, std::ios::trunc);
  out << serialize();
  out.close();
  if (out && std::rename(temp.c_str(), path.c_str()) == 0) return true;
  std::filesystem::remove(temp, ec);
  return false;
}

std::string calibration_path(const SipConfig& config) {
  if (!config.calibration_file.empty()) return config.calibration_file;
  if (const char* env = std::getenv("SIA_CALIBRATION")) {
    if (env[0] != '\0') return env;
  }
  const char* home = std::getenv("HOME");
  const std::filesystem::path base =
      home != nullptr && home[0] != '\0'
          ? std::filesystem::path(home)
          : std::filesystem::temp_directory_path();
  return (base / ".cache" / "sia" / "calibration").string();
}

// ---------------------------------------------------------------------
// GEMM microbenchmark.

double measure_gemm_gflops() {
  // One block-sized multiply, repeated until a few milliseconds of work
  // accumulate. 64^3 sits in the regime real contractions run in.
  constexpr std::size_t kDim = 64;
  constexpr double kFlopsPerCall = 2.0 * kDim * kDim * kDim;
  std::vector<double> a(kDim * kDim), b(kDim * kDim), c(kDim * kDim, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.5 + static_cast<double>(i % 17) * 0.03125;
    b[i] = 0.25 + static_cast<double>(i % 13) * 0.0625;
  }
  // Warm up (kernel dispatch, caches), then time.
  for (int rep = 0; rep < 2; ++rep) {
    blas::dgemm_packed(kDim, kDim, kDim, 1.0, a.data(), b.data(), 0.0,
                       c.data());
  }
  const double t0 = wall_seconds();
  int calls = 0;
  double elapsed = 0.0;
  do {
    blas::dgemm_packed(kDim, kDim, kDim, 1.0, a.data(), b.data(), 0.0,
                       c.data());
    ++calls;
    elapsed = wall_seconds() - t0;
  } while (elapsed < 3e-3 && calls < 256);
  if (elapsed <= 0.0) return Calibration{}.gemm_gflops;
  return kFlopsPerCall * static_cast<double>(calls) / elapsed * 1e-9;
}

// ---------------------------------------------------------------------
// The prediction model.

int HostModel::resolved_cores() const {
  if (cores > 0) return cores;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, hw);
}

namespace {

// GEMM efficiency as a function of segment size: small blocks cannot
// amortize packing and micro-kernel startup. Normalized to the segment
// the microbenchmark measures at (64), so gemm_gflops stays the rate at
// that size.
double segment_efficiency(int segment, double knee) {
  const auto eff = [&](double s) { return s / (s + knee); };
  return eff(static_cast<double>(std::max(segment, 1))) / eff(64.0);
}

// Compute threads a candidate actually gets on this host (the runtime's
// -1 auto rule, resolved against the modeled core count).
int resolved_threads(const SipConfig& cfg, int cores) {
  if (cfg.worker_threads >= 0) return cfg.worker_threads;
  return std::max(0, cores / std::max(1, cfg.total_ranks()));
}

}  // namespace

double predict_seconds(const sim::WorkloadModel& workload,
                       const SipConfig& candidate, const Calibration& cal,
                       const HostModel& host) {
  const int cores = host.resolved_cores();
  const int workers = candidate.workers;
  const int threads = resolved_threads(candidate, cores);

  // Per-worker compute rate. Each worker exposes max(1, threads) compute
  // lanes; all lanes across workers time-slice the host's cores. The
  // windowed engine pays bookkeeping overhead, threads >= 2 pay
  // synchronization, and oversubscribed lanes pay context switching —
  // which is exactly why threading loses on a 1-core host.
  const double lanes_per_worker = std::max(1, threads);
  const double total_lanes = lanes_per_worker * workers;
  const double core_share = std::min(1.0, cores / total_lanes);
  const double window_lanes =
      threads >= 1
          ? std::min(lanes_per_worker,
                     std::max(1.0, candidate.window_limit / 8.0))
          : 1.0;
  double engine = 1.0;
  if (threads >= 1) engine *= 0.95;   // window bookkeeping
  if (threads >= 2) engine *= 0.92;   // pool synchronization
  if (total_lanes > cores) engine *= 0.85;  // context switching
  const double worker_rate =
      cal.gemm_gflops * 1e9 *
      segment_efficiency(candidate.default_segment, cal.kernel_knee) *
      core_share * window_lanes * engine;

  sim::MachineModel machine;
  machine.name = "host";
  machine.flops_per_core = std::max(worker_rate, 1e6);
  machine.latency_s = cal.latency_s;
  machine.link_bw = cal.link_bw;
  machine.master_service_s = cal.master_service_s;
  machine.memory_per_core = static_cast<double>(candidate.worker_memory_bytes);
  machine.disk_bw = cal.disk_bw * std::max(1, candidate.server_disk_threads);
  machine.bisection_cores = 1e9;  // a host fabric has no bisection knee
  if (candidate.socket_transport()) {
    // Framed socket hops: syscall latency, single-copy framing.
    machine.latency_s *= 8.0;
    machine.link_bw *= 0.5;
  }

  sim::SimOptions options;
  options.overlap = candidate.prefetch_depth > 0;
  options.chunk_divisor = candidate.chunk_divisor;
  options.min_chunk = candidate.min_chunk;
  // Launch overhead at host scale: thread/process spin-up and the dry
  // run, far from the paper's 0.5 s cluster allocation cost.
  options.fixed_overhead_s =
      0.002 + 0.001 * candidate.total_ranks() +
      (candidate.spawn_processes() ? 0.05 * candidate.total_ranks() : 0.0);
  // Prefetching past the cache's look-ahead window re-fetches evicted
  // blocks instead of hiding latency.
  options.refetch_factor =
      candidate.prefetch_depth > 4
          ? 0.03 * (candidate.prefetch_depth - 4)
          : 0.0;

  // Write combining halves the put message stream on accumulate-heavy
  // loops (the payload still flows once per merged block).
  sim::WorkloadModel modeled = workload;
  if (candidate.coalesce_puts) {
    for (sim::PhaseModel& phase : modeled.phases) {
      phase.puts_per_task = (phase.puts_per_task + 1) / 2;
    }
  }

  // Superinstruction (integral-generator) flops run at a per-element
  // rate that does not follow the GEMM efficiency curve, and halve once
  // a block spills the per-core cache — which is why huge segments lose
  // on integral-heavy programs even though their GEMMs run faster. The
  // DES keeps a single machine rate, so convert those flops into
  // GEMM-equivalent flops at this candidate's segment efficiency.
  constexpr double kExecuteCacheBytes = 256.0 * 1024.0;
  const double gemm_rate =
      cal.gemm_gflops * 1e9 *
      segment_efficiency(candidate.default_segment, cal.kernel_knee);
  for (sim::PhaseModel& phase : modeled.phases) {
    if (phase.execute_flops_per_task <= 0.0) continue;
    double execute_rate = cal.execute_gflops * 1e9;
    if (phase.peak_block_bytes > kExecuteCacheBytes) execute_rate *= 0.5;
    phase.flops_per_task +=
        phase.execute_flops_per_task * (gemm_rate / execute_rate - 1.0);
  }

  const sim::WorkloadResult result =
      sim::simulate_workload(machine, modeled, workers, options);
  return result.seconds * cal.time_scale;
}

// ---------------------------------------------------------------------
// The sweep.

namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();
// Candidates whose workload would explode the DES event count are skipped
// so planning stays in the milliseconds the loop is budgeted for.
constexpr std::int64_t kMaxModelTasks = 2'000'000;

struct SegmentContext {
  std::unique_ptr<sial::ResolvedProgram> resolved;
  sim::WorkloadModel workload;
  // Feasibility pieces from the dry run, with the cache term split out so
  // other prefetch depths can be re-checked without re-resolving.
  std::size_t fixed_bytes = 0;       // static + temp + local + dist share
  std::size_t cache_unit_bytes = 0;  // cache demand per unit (1 + depth)
  bool valid = false;
};

bool feasible_at(const SegmentContext& ctx, const SipConfig& cfg) {
  const std::size_t cache =
      ctx.cache_unit_bytes * (1 + static_cast<std::size_t>(cfg.prefetch_depth));
  return ctx.fixed_bytes + cache <= cfg.worker_memory_bytes;
}

std::int64_t workload_tasks(const sim::WorkloadModel& workload) {
  std::int64_t tasks = 0;
  for (const sim::PhaseModel& phase : workload.phases) {
    tasks += phase.tasks * std::max(1, phase.sweeps);
  }
  return tasks;
}

// The tuned knobs, one `dimension=value` per entry of the field list.
std::string knob_summary(const SipConfig& cfg) {
  std::ostringstream out;
  SipConfig::fields([&out](const char*, const Knob& knob, const auto& value) {
    if (knob.tuned != nullptr) fields::print(out, knob.tuned, value);
  }, cfg);
  std::string summary = out.str();
  std::replace(summary.begin(), summary.end(), '\n', ' ');
  if (!summary.empty()) summary.pop_back();
  return summary;
}

}  // namespace

PlanChoice plan_launch(const sial::CompiledProgram& optimized,
                       const SipConfig& base, const Calibration& cal,
                       const HostModel& host) {
  const SipConfig defaults;
  PlanChoice choice;
  choice.calibrated = cal.runs > 0;

  // A knob is pinned exactly when the user moved it off its default.
  const auto pinned = [&choice](std::string_view dimension) {
    return std::find(choice.pinned.begin(), choice.pinned.end(),
                     dimension) != choice.pinned.end();
  };
  SipConfig::fields(
      [&](const char*, const Knob& knob, const auto& value, const auto& def) {
        if (knob.tuned != nullptr && value != def && !pinned(knob.tuned)) {
          choice.pinned.emplace_back(knob.tuned);
        }
      },
      base, defaults);

  // Resolution and workload modeling are per segment; everything else
  // reuses the cached context.
  std::map<int, SegmentContext> contexts;
  auto context_for = [&](int segment) -> const SegmentContext& {
    auto it = contexts.find(segment);
    if (it != contexts.end()) return it->second;
    SegmentContext ctx;
    try {
      SipConfig cfg = base;
      cfg.default_segment = segment;
      ctx.resolved = std::make_unique<sial::ResolvedProgram>(optimized, cfg);
      const DryRunReport dry = dry_run(*ctx.resolved);
      ctx.fixed_bytes = dry.static_bytes + dry.temp_peak_bytes +
                        dry.local_bytes + dry.dist_share_bytes;
      ctx.cache_unit_bytes =
          dry.cache_demand_bytes /
          (1 + static_cast<std::size_t>(base.prefetch_depth));
      ctx.workload = sim::model_program(*ctx.resolved);
      ctx.valid = workload_tasks(ctx.workload) <= kMaxModelTasks;
    } catch (const std::exception&) {
      ctx.valid = false;  // e.g. a segment the index ranges reject
    }
    return contexts.emplace(segment, std::move(ctx)).first->second;
  };

  int evals = 0;
  auto eval = [&](const SipConfig& cfg) -> double {
    const SegmentContext& ctx = context_for(cfg.default_segment);
    if (!ctx.valid || !feasible_at(ctx, cfg)) return kInfeasible;
    ++evals;
    return predict_seconds(ctx.workload, cfg, cal, host);
  };

  // The serial baseline: the user's configuration with the legacy serial
  // engine. Seeding the search with it guarantees the chosen plan is
  // never predicted slower than serial (acceptance floor); when the user
  // pinned worker_threads the pin wins and the seed is the base itself.
  SipConfig best = base;
  if (!pinned("worker_threads")) best.worker_threads = 0;
  double best_seconds = eval(best);
  choice.baseline_seconds = best_seconds;

  const int cores = host.resolved_cores();
  std::vector<int> segments;
  if (pinned("segment")) {
    segments = {base.default_segment};
  } else {
    segments = {base.default_segment, 2,  4,  6,  8,  12, 16,
                24,                   32, 48, 64, 96, 128};
    std::sort(segments.begin(), segments.end());
    segments.erase(std::unique(segments.begin(), segments.end()),
                   segments.end());
  }

  std::vector<int> thread_cands = {0, 1, 2, 4, 8, 16};
  thread_cands.erase(
      std::remove_if(thread_cands.begin(), thread_cands.end(),
                     [&](int t) { return t > 2 * cores; }),
      thread_cands.end());

  for (const int segment : segments) {
    if (!context_for(segment).valid) continue;
    SipConfig cfg = base;
    cfg.default_segment = segment;
    // Start the descent from the explicit serial engine when threads are
    // unpinned: the sweep tries every thread count anyway, strict-
    // improvement ties then resolve to 0, and the emitted plan never
    // contains the ambiguous -1 auto value.
    if (!pinned("worker_threads")) cfg.worker_threads = 0;
    double seconds = eval(cfg);
    // Coordinate descent from the user's configuration, two passes so
    // knobs that interact (threads and window, prefetch and chunking)
    // settle. Strict improvement only: ties keep the earlier value, so
    // the sweep is deterministic and defaults win ties.
    for (int pass = 0; pass < 2; ++pass) {
      auto try_value = [&](auto field, auto value) {
        SipConfig trial = cfg;
        trial.*field = value;
        const double t = eval(trial);
        if (t < seconds) {
          seconds = t;
          cfg = trial;
        }
      };
      if (!pinned("worker_threads")) {
        for (const int t : thread_cands) {
          try_value(&SipConfig::worker_threads, t);
        }
      }
      if (!pinned("window_limit") && resolved_threads(cfg, cores) >= 1) {
        for (const int w : {8, 16, 32, 64, 128}) {
          try_value(&SipConfig::window_limit, w);
        }
      }
      if (!pinned("prefetch_depth")) {
        for (const int d : {0, 1, 2, 4, 8}) {
          try_value(&SipConfig::prefetch_depth, d);
        }
      }
      if (!pinned("chunk_divisor")) {
        for (const int d : {1, 2, 4, 8}) {
          try_value(&SipConfig::chunk_divisor, d);
        }
      }
      if (!pinned("min_chunk")) {
        for (const long m : {1L, 2L, 4L, 8L}) {
          try_value(&SipConfig::min_chunk, m);
        }
      }
      if (!pinned("coalesce_puts")) {
        for (const bool c : {true, false}) {
          try_value(&SipConfig::coalesce_puts, c);
        }
      }
    }
    if (seconds < best_seconds) {
      best_seconds = seconds;
      best = cfg;
    }
  }

  // Server knobs: the DES model does not resolve disk contention, so
  // these are set by sizing heuristics from the dry run instead of the
  // sweep. Only touched when unpinned and the program has served traffic.
  const SegmentContext& chosen_ctx = context_for(best.default_segment);
  if (chosen_ctx.valid && base.io_servers > 0) {
    std::size_t served_total = 0;
    try {
      for (const sial::ResolvedArray& array : chosen_ctx.resolved->arrays()) {
        if (array.kind == sial::ArrayKind::kServed) {
          served_total += array.total_elements * sizeof(double);
        }
      }
    } catch (const std::exception&) {
    }
    if (served_total > 0) {
      if (!pinned("server_disk_threads")) {
        best.server_disk_threads = std::clamp(cores / 2, 1, 4);
      }
      if (!pinned("server_cache_bytes")) {
        const std::size_t per_server =
            served_total / static_cast<std::size_t>(base.io_servers);
        best.server_cache_bytes =
            std::clamp(per_server, defaults.server_cache_bytes,
                       std::size_t{256} << 20);
      }
    }
  }

  // An infeasible-everywhere or unresolvable program: hand the base
  // config back untouched and let the launch report the real error.
  if (!std::isfinite(best_seconds)) {
    choice.config = base;
    choice.predicted_seconds = 0.0;
    choice.baseline_seconds = 0.0;
    choice.candidates = evals;
    choice.summary = "no feasible candidate; keeping user configuration";
    return choice;
  }

  choice.config = best;
  choice.predicted_seconds = best_seconds;
  choice.candidates = evals;
  choice.summary = knob_summary(best);
  return choice;
}

// ---------------------------------------------------------------------
// Post-run learning.

void update_calibration(Calibration* cal, double predicted_seconds,
                        double actual_seconds, double measured_gflops,
                        double bytes_moved, std::int64_t messages,
                        double disk_bytes) {
  if (measured_gflops > 0.0) {
    cal->gemm_gflops = cal->runs > 0
                           ? 0.5 * cal->gemm_gflops + 0.5 * measured_gflops
                           : measured_gflops;
  }
  if (predicted_seconds > 0.0 && actual_seconds > 0.0) {
    // Damped multiplicative correction: time_scale converges toward the
    // observed actual/predicted ratio, so the second (calibrated) run's
    // prediction error is strictly smaller than the first's.
    const double ratio =
        std::clamp(actual_seconds / predicted_seconds, 0.2, 5.0);
    cal->time_scale =
        std::clamp(cal->time_scale * std::pow(ratio, 0.6), 0.05, 20.0);
    cal->last_error_percent =
        100.0 * (predicted_seconds - actual_seconds) / actual_seconds;
  }
  if (actual_seconds > 0.0) {
    // Observed throughput refines the bandwidth terms as lower bounds: a
    // run that moved bytes faster than the model's bandwidth proves the
    // fabric is at least that fast. Latency refines downward the same
    // way when the run was message-dense.
    if (bytes_moved > (1 << 20)) {
      cal->link_bw = std::max(cal->link_bw, bytes_moved / actual_seconds);
    }
    if (disk_bytes > (1 << 20)) {
      cal->disk_bw = std::max(cal->disk_bw, disk_bytes / actual_seconds);
    }
    if (messages > 1000) {
      const double per_message =
          actual_seconds / static_cast<double>(messages);
      cal->latency_s =
          std::max(1e-8, std::min(cal->latency_s, per_message));
    }
  }
  ++cal->runs;
}

}  // namespace sia::sip
