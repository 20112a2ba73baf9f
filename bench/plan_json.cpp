// Machine-readable autotuner benchmark: does the launch-time planner
// actually land near the best hand-swept configuration with zero user
// knobs, and does its prediction error shrink once calibrated?
//
// The grid mirrors ablation_segment_size: segment size on the Fock build
// (norb=32, 4 workers), "the most significant factor" (paper §VI-A). It
// runs a bigger problem than the interactive ablation so the planning
// cost (the segment sweep), which the auto cell pays and hand cells do
// not, is amortized the way it is in real runs.
// Each hand cell pins the swept knob; the auto cell leaves it to the
// planner (config.autotune, fresh calibration file), runs cold, then
// runs again calibrated and reports both model errors. The committed
// BENCH_plan.json records the auto-vs-best/worst ratios
// (`cmake --build build --target bench_json`).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "chem/reference.hpp"
#include "common/timer.hpp"
#include "sip/launch.hpp"
#include "sip/spawn.hpp"

namespace {

using namespace sia;

struct Sample {
  double seconds = 0.0;
  double checksum = 0.0;
  sip::ProfileReport::Plan plan;
};

Sample run_once(const std::string& source, SipConfig config,
                const char* scalar_name) {
  sip::Sip sip(std::move(config));
  const double t0 = wall_seconds();
  const sip::RunResult result = sip.run_source(source);
  Sample sample;
  sample.seconds = wall_seconds() - t0;
  sample.checksum = result.scalar(scalar_name);
  sample.plan = result.profile.plan;
  return sample;
}

Sample median_of(std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.seconds < b.seconds;
            });
  return samples[samples.size() / 2];
}

struct Cell {
  std::string label;
  Sample sample;
};

struct GridResult {
  std::vector<Cell> cells;       // hand-swept cells, in grid order
  Sample auto_cold;              // planner, fresh calibration
  Sample auto_calibrated;        // planner, second run on the same file
  double best_hand = 0.0;
  double worst_hand = 0.0;
};

GridResult run_grid(const std::string& source, const char* scalar_name,
                    const std::vector<std::pair<std::string, SipConfig>>&
                        hand_cells,
                    SipConfig auto_base, const char* cal_name) {
  constexpr int kReps = 3;
  GridResult grid;
  grid.cells.resize(hand_cells.size());
  std::vector<std::vector<Sample>> runs(hand_cells.size());
  // Alternate cells rep-by-rep so host-load drift hits all cells alike.
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t c = 0; c < hand_cells.size(); ++c) {
      runs[c].push_back(run_once(source, hand_cells[c].second, scalar_name));
    }
  }
  for (std::size_t c = 0; c < hand_cells.size(); ++c) {
    grid.cells[c].label = hand_cells[c].first;
    grid.cells[c].sample = median_of(std::move(runs[c]));
  }
  grid.best_hand = grid.cells[0].sample.seconds;
  grid.worst_hand = grid.cells[0].sample.seconds;
  for (const Cell& cell : grid.cells) {
    grid.best_hand = std::min(grid.best_hand, cell.sample.seconds);
    grid.worst_hand = std::max(grid.worst_hand, cell.sample.seconds);
  }

  const std::string cal_path =
      (std::filesystem::temp_directory_path() / cal_name).string();
  std::filesystem::remove(cal_path);
  auto_base.autotune = true;
  auto_base.calibration_file = cal_path;
  grid.auto_cold = run_once(source, auto_base, scalar_name);
  // Calibrated: the planner has seen one predicted-vs-actual pair; take
  // the median of a few runs for the wall-time comparison, the last for
  // the (monotonically refined) model error.
  std::vector<Sample> calibrated;
  for (int rep = 0; rep < kReps; ++rep) {
    calibrated.push_back(run_once(source, auto_base, scalar_name));
  }
  grid.auto_calibrated = median_of(std::move(calibrated));
  std::filesystem::remove(cal_path);
  return grid;
}

void emit_cell(std::FILE* out, const char* grid, const Cell& cell) {
  std::fprintf(out,
               "    {\n"
               "      \"grid\": \"%s\",\n"
               "      \"cell\": \"%s\",\n"
               "      \"wall_seconds\": %.6f,\n"
               "      \"checksum\": %.17g\n"
               "    },\n",
               grid, cell.label.c_str(), cell.sample.seconds,
               cell.sample.checksum);
}

void emit_auto(std::FILE* out, const char* grid, const GridResult& result) {
  const Sample& tuned = result.auto_calibrated;
  std::fprintf(
      out,
      "    {\n"
      "      \"grid\": \"%s\",\n"
      "      \"cell\": \"auto\",\n"
      "      \"wall_seconds\": %.6f,\n"
      "      \"checksum\": %.17g,\n"
      "      \"plan\": \"%s\",\n"
      "      \"candidates\": %d,\n"
      "      \"predicted_seconds\": %.6f,\n"
      "      \"error_percent_cold\": %.1f,\n"
      "      \"error_percent_calibrated\": %.1f,\n"
      "      \"best_hand_seconds\": %.6f,\n"
      "      \"worst_hand_seconds\": %.6f,\n"
      "      \"auto_vs_best\": %.3f\n"
      "    }\n",
      grid, tuned.seconds, tuned.checksum, tuned.plan.summary.c_str(),
      tuned.plan.candidates, tuned.plan.predicted_seconds,
      result.auto_cold.plan.error_percent(), tuned.plan.error_percent(),
      result.best_hand, result.worst_hand, tuned.seconds / result.best_hand);
}

}  // namespace

int main(int argc, char** argv) {
  if (sia::sip::is_spawn_child(argc, argv)) {
    chem::register_chem_superinstructions();
    return sia::sip::run_spawn_child(argc, argv);
  }
  chem::register_chem_superinstructions();
  // A stale SIA_AUTOTUNE from the environment would defeat the per-cell
  // autotune settings below.
  ::unsetenv("SIA_AUTOTUNE");
  const std::string path = argc > 1 ? argv[1] : "BENCH_plan.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }

  // Segment size on the Fock build (ablation_segment_size grid, scaled
  // up; segment 1 dropped — at norb=32 it is all overhead).
  const long norb = 32;
  const auto fock_config = [&](int segment) {
    SipConfig config;
    config.workers = 4;
    config.io_servers = 0;
    config.default_segment = segment;
    config.constants = {{"norb", norb}};
    return config;
  };
  std::vector<std::pair<std::string, SipConfig>> fock_cells;
  for (const int s : {2, 4, 8, 16, 32}) {
    fock_cells.emplace_back("segment" + std::to_string(s), fock_config(s));
  }
  SipConfig fock_auto = fock_config(SipConfig{}.default_segment);
  const GridResult fock =
      run_grid(chem::fock_build_source(), "fnorm", fock_cells, fock_auto,
               "sia_cal_bench_segment");

  std::fprintf(out, "{\n  \"benchmarks\": [\n");
  for (const Cell& cell : fock.cells) {
    emit_cell(out, "segment_fock_norb32_w4", cell);
  }
  emit_auto(out, "segment_fock_norb32_w4", fock);
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  std::printf("segment grid: best hand %.3f s, worst %.3f s, auto %.3f s "
              "(%.2fx of best; plan: %s)\n",
              fock.best_hand, fock.worst_hand, fock.auto_calibrated.seconds,
              fock.auto_calibrated.seconds / fock.best_hand,
              fock.auto_calibrated.plan.summary.c_str());
  std::printf("model error: %.1f%% cold -> %.1f%% calibrated\n",
              fock.auto_cold.plan.error_percent(),
              fock.auto_calibrated.plan.error_percent());

  // Sanity, not timing: the tuned run must still be correct.
  const double want = chem::ref_fock_norm(norb);
  if (std::abs(fock.auto_calibrated.checksum - want) > 1e-9 * want) {
    std::fprintf(stderr, "FAIL: tuned fnorm %.17g vs reference %.17g\n",
                 fock.auto_calibrated.checksum, want);
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
