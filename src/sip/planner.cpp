#include "sip/planner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/posix_io.hpp"
#include "sial/program.hpp"
#include "sim/des.hpp"
#include "sim/machine.hpp"
#include "sim/program_model.hpp"
#include "sip/master.hpp"
#include "sip/profiler.hpp"
#include "sip/scheduler.hpp"

namespace sia::sip {

// ---------------------------------------------------------------------
// Calibration persistence.

namespace {

constexpr const char* kCalibrationMagic = "sia_calibration v2";

}  // namespace

CostTable Calibration::table(const std::string& transport) const {
  const auto it = tables.find(transport);
  return it != tables.end() ? it->second : CostTable{};
}

Calibration Calibration::load(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line) || line != kCalibrationMagic) {
    return Calibration{};
  }
  Calibration cal;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "cost") {
      std::string transport, name;
      ClassCost cost;
      // A file full of zeros or negatives would price work as free or
      // negative; treat it as corrupt.
      if (!(fields >> transport >> name >> cost.fixed_s >> cost.per_unit_s) ||
          !std::isfinite(cost.fixed_s) || !std::isfinite(cost.per_unit_s) ||
          cost.fixed_s <= 0.0 || cost.per_unit_s < 0.0) {
        return Calibration{};
      }
      const auto& names = sim::kCostClassNames;
      const auto it = std::find(names.begin(), names.end(), name);
      if (it != names.end()) {
        cal.tables[transport].classes[static_cast<std::size_t>(
            it - names.begin())] = cost;
      }
      continue;
    }
    double value = 0.0;
    if (!(fields >> value) || !std::isfinite(value)) return Calibration{};
    if (key == "runs") {
      cal.runs = static_cast<int>(value);
    } else if (key == "last_error_percent") {
      cal.last_error_percent = value;
    }
    // Unknown keys: ignored (newer writers may add state).
  }
  return cal.runs < 0 ? Calibration{} : cal;
}

bool Calibration::save(const std::string& path) const {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ostringstream out;
  out.precision(17);
  out << kCalibrationMagic << "\nruns " << runs << "\nlast_error_percent "
      << last_error_percent << "\n";
  for (const auto& [transport, table] : tables) {
    for (std::size_t c = 0; c < sim::kCostClassCount; ++c) {
      out << "cost " << transport << " " << sim::kCostClassNames[c] << " "
          << table.classes[c].fixed_s << " " << table.classes[c].per_unit_s
          << "\n";
    }
  }
  const std::string text = out.str();
  return replace_file(path, [&text](int fd) {
    return write_full(fd, text.data(), text.size()) ==
           static_cast<ssize_t>(text.size());
  });
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
// The prediction model.

int HostModel::resolved_cores() const {
  if (cores > 0) return cores;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, hw);
}

double CostTable::price(const sim::Load& load) const {
  double seconds = 0.0;
  for (std::size_t c = 0; c < sim::kCostClassCount; ++c) {
    seconds += load[c].count * classes[c].fixed_s +
               load[c].units * classes[c].per_unit_s;
  }
  return seconds;
}

namespace {

// The workload priced for the DES: each iteration's instructions at the
// table's prices, plus its share of the pardo's chunk requests (one per
// chunk of the guided schedule, whose sizes do not depend on timing, and
// each worker's last, empty one). The prices already hold the messaging
// and data waits the instructions absorbed.
sim::WorkloadModel priced_workload(const sim::WorkloadModel& workload,
                                   const SipConfig& candidate,
                                   const CostTable& costs) {
  const double request_s =
      costs.classes[static_cast<std::size_t>(sim::CostClass::kChunk)].fixed_s;
  sim::WorkloadModel priced;
  for (const sim::PhaseModel& phase : workload.phases) {
    GuidedSchedule schedule(phase.tasks, candidate.workers,
                            candidate.chunk_divisor, candidate.min_chunk);
    std::int64_t requests = candidate.workers;
    while (!schedule.exhausted()) {
      schedule.next_chunk();
      ++requests;
    }
    sim::PhaseModel out;
    out.tasks = phase.tasks;
    out.sweeps = phase.sweeps;
    out.flops_per_task =
        costs.price(phase.load_per_task) +
        request_s * static_cast<double>(requests) /
            static_cast<double>(phase.tasks);
    priced.phases.push_back(out);
  }
  return priced;
}

// Wall seconds the DES schedules `priced` in, on a machine that runs one
// "flop" per second and sends messages for free.
double scheduled_seconds(const sim::WorkloadModel& priced,
                         const SipConfig& candidate, double fixed_s) {
  sim::MachineModel machine;
  machine.flops_per_core = 1.0;
  machine.latency_s = 0.0;
  machine.master_service_s = 0.0;
  sim::SimOptions options;
  options.chunk_divisor = candidate.chunk_divisor;
  options.min_chunk = candidate.min_chunk;
  options.fixed_overhead_s = fixed_s;
  return sim::simulate_workload(machine, priced, candidate.workers, options)
      .seconds;
}

}  // namespace

double predict_seconds(const sim::WorkloadModel& workload,
                       const SipConfig& candidate, const CostTable& costs) {
  // Added once: the sequential code every worker runs, and thread (or
  // process) spin-up and join, which no instruction sees: about 0.1 ms
  // per thread rank and 2.5 ms per spawned rank on the reference host.
  return scheduled_seconds(
      priced_workload(workload, candidate, costs), candidate,
      costs.price(workload.sequential_load) +
          candidate.total_ranks() *
              (candidate.spawn_processes() ? 2.5e-3 : 1e-4));
}

// ---------------------------------------------------------------------
// The sweep.

namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();
// Candidates whose workload would explode the DES event count are skipped
// so planning stays in the milliseconds the loop is budgeted for.
constexpr std::int64_t kMaxModelTasks = 2'000'000;
// The linear per-class prices miss effects that grow with block size:
// blocks past the per-core caches fill slower per element as more workers
// run at once, and with one or two tasks per worker one slow task sets
// the wall time. On the Fock grid they leave the cold model 20-50% low at
// segments 16 and 32 against under 20% at 4 and 8, so a predicted gain
// below this fraction is model error, not a reason to move off the
// user's segment.
constexpr double kSwitchMargin = 0.25;

std::int64_t workload_tasks(const sim::WorkloadModel& workload) {
  std::int64_t tasks = 0;
  for (const sim::PhaseModel& phase : workload.phases) {
    tasks += phase.tasks * std::max(1, phase.sweeps);
  }
  return tasks;
}

// What a walk reads of the segment sizes: per index, its segment range
// and its first and last segments' extents (those between are as long as
// the first). Segment sizes with one tiling walk and price alike.
std::vector<int> tiling(const sial::ResolvedProgram& program) {
  std::vector<int> key;
  for (const sial::ResolvedIndex& index : program.indices()) {
    key.insert(key.end(), {index.seg_lo, index.seg_hi, index.max_extent(),
                           index.segment_extent(index.seg_hi)});
  }
  return key;
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
  choice.costs = cal.table(base.transport);

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

  // The user's segment goes first: it is the baseline, and another
  // segment replaces it only when predicted kSwitchMargin faster, so the
  // chosen plan is never predicted slower than the untuned run.
  std::vector<int> segments = {base.default_segment};
  if (!pinned("segment")) {
    segments.insert(segments.end(), {2, 4, 6, 8, 12, 16, 24, 32, 48, 64,
                                     96, 128});
  }
  SipConfig best = base;
  double best_seconds = kInfeasible;
  double best_score = kInfeasible;
  std::size_t best_served_bytes = 0;
  const auto program =
      std::make_shared<const sial::CompiledProgram>(optimized);
  std::set<int> seen;
  std::set<std::vector<int>> tilings;
  for (const int segment : segments) {
    if (!seen.insert(segment).second) continue;
    SipConfig cfg = base;
    cfg.default_segment = segment;
    double seconds = kInfeasible;
    std::size_t served_bytes = 0;
    sim::WorkloadModel workload;
    try {
      const sial::ResolvedProgram resolved(program, cfg);
      // A repeated tiling could only tie an earlier score, and a tie
      // keeps the earlier candidate (the baseline's score is discounted).
      if (!tilings.insert(tiling(resolved)).second) continue;
      workload = sim::model_program(resolved);
      if (dry_run(workload.memory, cfg).feasible &&
          workload_tasks(workload) <= kMaxModelTasks) {
        ++choice.candidates;
        seconds = predict_seconds(workload, cfg, choice.costs);
        served_bytes = workload.memory.served_total_bytes;
      }
    } catch (const std::exception&) {
      // e.g. a segment the index ranges reject
    }
    double score = seconds;
    if (segment == base.default_segment) {
      choice.baseline_seconds = seconds;
      score *= 1.0 - kSwitchMargin;
    }
    if (score < best_score) {
      best_score = score;
      best_seconds = seconds;
      best = cfg;
      best_served_bytes = served_bytes;
      choice.workload = std::move(workload);
    }
  }

  // An infeasible-everywhere or unresolvable program: hand the base
  // config back untouched and let the launch report the real error.
  if (!std::isfinite(best_seconds)) {
    choice.config = base;
    choice.baseline_seconds = 0.0;
    choice.summary = "no feasible candidate; keeping user configuration";
    return choice;
  }

  // Server knobs: the model does not resolve disk contention, so these
  // are set by sizing heuristics from the dry run. Only touched when
  // unpinned and the program has served traffic.
  if (base.io_servers > 0 && best_served_bytes > 0) {
    if (!pinned("server_disk_threads")) {
      best.server_disk_threads = std::clamp(host.resolved_cores() / 2, 1, 4);
    }
    if (!pinned("server_cache_bytes")) {
      const std::size_t per_server =
          best_served_bytes / static_cast<std::size_t>(base.io_servers);
      best.server_cache_bytes = std::clamp(
          per_server, defaults.server_cache_bytes, std::size_t{256} << 20);
    }
  }

  choice.config = best;
  choice.predicted_seconds = best_seconds;
  choice.summary = knob_summary(best);
  return choice;
}

// ---------------------------------------------------------------------
// Post-run learning.

namespace {

// A fitted coefficient stays within this factor of its cold default: one
// run can move the table anywhere a real host plausibly lies, but a
// garbage profile (a stalled host, a clock jump) cannot price work as
// free or as taking forever.
constexpr double kFitClamp = 100.0;
// A class's sizes must span this ratio before its split is refitted.
constexpr double kSplitSpan = 2.0;

// The (upper) median; the inputs are never empty.
double median(std::vector<double> values) {
  const auto mid =
      values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

}  // namespace

CostTable fit_costs(const std::vector<CostSample>& samples,
                    const CostTable& prior) {
  CostTable fitted = prior;
  for (std::size_t c = 0; c < sim::kCostClassCount; ++c) {
    std::vector<CostSample> mine;
    double seconds = 0.0, hi = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    for (const CostSample& sample : samples) {
      if (static_cast<std::size_t>(sample.cls) != c || sample.count <= 0.0) {
        continue;
      }
      mine.push_back(sample);
      seconds += sample.seconds;
      lo = std::min(lo, sample.units);
      hi = std::max(hi, sample.units);
    }
    if (mine.empty() || seconds <= 0.0) continue;
    const ClassCost& old = prior.classes[c];
    ClassCost cost = old;
    if (old.per_unit_s > 0.0 && lo > 0.0 && hi >= kSplitSpan * lo) {
      // Theil-Sen through the per-execution means: the median pairwise
      // slope, then the median intercept. One instruction that waited on
      // a peer cannot bend the line.
      std::vector<double> slopes, intercepts;
      for (std::size_t i = 0; i < mine.size(); ++i) {
        for (std::size_t j = i + 1; j < mine.size(); ++j) {
          const CostSample& a = mine[i];
          const CostSample& b = mine[j];
          if (a.units == b.units) continue;
          slopes.push_back((b.seconds / b.count - a.seconds / a.count) /
                           (b.units - a.units));
        }
      }
      const double slope = std::max(0.0, median(std::move(slopes)));
      for (const CostSample& s : mine) {
        intercepts.push_back(s.seconds / s.count - slope * s.units);
      }
      const double fixed = std::max(0.0, median(std::move(intercepts)));
      if (fixed > 0.0 || slope > 0.0) cost = {fixed, slope};
    }
    // Scale the split so the class's modeled total is what it measured.
    double modeled = 0.0;
    for (const CostSample& s : mine) {
      modeled += s.count * (cost.fixed_s + cost.per_unit_s * s.units);
    }
    if (modeled <= 0.0) continue;
    const double scale = seconds / modeled;
    const auto clamped = [](double value, double cold) {
      return std::clamp(value, cold / kFitClamp, cold * kFitClamp);
    };
    const ClassCost cold = CostTable{}.classes[c];
    fitted.classes[c] = {clamped(cost.fixed_s * scale, cold.fixed_s),
                         clamped(cost.per_unit_s * scale, cold.per_unit_s)};
  }
  return fitted;
}

void update_calibration(Calibration* cal, const std::string& transport,
                        const ProfileReport& profile,
                        const sial::ResolvedProgram& program,
                        const sim::WorkloadModel* walked) {
  if (profile.plan.predicted_seconds > 0.0 &&
      profile.plan.actual_seconds > 0.0) {
    cal->last_error_percent = profile.plan.error_percent();
  }
  ++cal->runs;

  std::vector<CostSample> samples;
  double sync_seconds = 0.0;
  // Pardo starts and iteration ends wait on chunk grants. Each worker
  // makes one request per chunk served plus a last, empty one per pardo
  // start, so that is the chunk class's count.
  CostSample chunks{sim::CostClass::kChunk,
                    static_cast<double>(profile.scheduling.chunks_served)};
  for (const ProfileReport::LineCost& line : profile.lines) {
    const sial::Instruction& instr =
        program.code().code[static_cast<std::size_t>(line.pc)];
    const std::optional<sim::InstructionLoad> load =
        sim::instruction_load(program, instr);
    if (!load || line.count <= 0) continue;
    if (load->cls == sim::CostClass::kChunk) {
      chunks.seconds += line.seconds;
      if (instr.op == sial::Opcode::kPardoStart) chunks.count += line.count;
      continue;
    }
    samples.push_back({load->cls, static_cast<double>(line.count),
                       line.seconds, load->units});
    if (load->cls == sim::CostClass::kSync) sync_seconds += line.seconds;
  }
  if (samples.empty()) return;  // an unprofiled run leaves the table as is
  samples.push_back(chunks);
  // Barrier and collective waits are the other workers' imbalance, which
  // the simulator derives from the schedule; the sync class keeps only
  // its own overhead.
  if (sync_seconds > 0.0) {
    const double own = std::max(
        0.05, 1.0 - (profile.barrier_wait + profile.collective_wait) /
                        sync_seconds);
    for (CostSample& sample : samples) {
      if (sample.cls == sim::CostClass::kSync) sample.seconds *= own;
    }
  }
  CostTable fitted = fit_costs(samples, cal->table(transport));
  // Workers that run out of iterations idle in their last chunk request
  // until the pardo's tail finishes. That idle belongs to the schedule,
  // which the DES replays, so take the idle the fitted prices imply out
  // of the chunk sample and refit it.
  const SipConfig& config = program.config();
  std::optional<sim::WorkloadModel> own;
  if (walked == nullptr) walked = &own.emplace(sim::model_program(program));
  const sim::WorkloadModel priced = priced_workload(*walked, config, fitted);
  double idle = config.workers * scheduled_seconds(priced, config, 0.0);
  for (const sim::PhaseModel& phase : priced.phases) {
    idle -= static_cast<double>(phase.tasks * phase.sweeps) *
            phase.flops_per_task;
  }
  CostSample& chunk_sample = samples.back();  // pushed last, above
  chunk_sample.seconds =
      std::max(0.05 * chunk_sample.seconds, chunk_sample.seconds - idle);
  cal->tables[transport] = fit_costs(samples, fitted);
}

}  // namespace sia::sip
