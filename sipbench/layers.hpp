// Per-layer measurements: direct probes that time one layer in
// isolation, and metrics read out of a run's ProfileReport.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sip/launch.hpp"
#include "trace.hpp"

namespace sipbench {

// One reported number. An empty `value` means the layer could not report
// it on this run; `note` then says why.
struct Metric {
  std::optional<double> value;
  std::string note;
};
using Metrics = std::map<std::string, Metric>;

// Median of `values` (0 when empty).
double median(std::vector<double> values);

// Block shapes the probes use, taken from the workloads that exercise
// each layer hardest.
struct ProbeShapes {
  int contract_segment = 0;    // ccd: rank-4 blocks of segment^4
  int message_doubles = 0;     // storm_spawn: one A/C block
  int disk_block_doubles = 0;  // io_cold: one served block
};

// Times each layer directly (blas, chem integrals, block pool, fabric
// round trips, frame codec, spawn launch, DiskStore), one span per probe.
// `work_dir` receives the probe's DiskStore files and spawn scratch.
void probe_layers(const ProbeShapes& shapes, const std::string& work_dir,
                  Tracer& tracer, Metrics* out);

// sial.compile_s, sial.opt_s, planner.plan_s and planner.candidates for
// `source` under `config`, each the median of a few timed calls.
void probe_front_end(const std::string& source, const sia::SipConfig& config,
                     Tracer& tracer, Metrics* out);

// The sip/executor/blas/chem/block/msg/io metrics one run's profile
// carries. `source` maps profile lines back to statements; `run_s` is
// the run's wall time. Metrics the result does not carry (a spawn run's
// worker profile) come back absent.
void profile_metrics(const sia::sip::RunResult& result,
                     const std::string& source, int workers, double run_s,
                     Metrics* out);

// One line splitting workers x run_s into kernel, integrals, each wait
// kind, drain, the rest of busy, and the unattributed remainder.
std::string attribution_line(const Metrics& metrics, int workers,
                             double run_s);

}  // namespace sipbench
