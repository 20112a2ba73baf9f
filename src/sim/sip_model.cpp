#include "sim/sip_model.hpp"

namespace sia::sim {

SiaOutcome simulate_sia(const MachineModel& machine,
                        const WorkloadModel& workload, long workers,
                        const SimOptions& options, double memory_per_core,
                        double time_limit_s) {
  SiaOutcome outcome;
  const double mem =
      memory_per_core > 0.0 ? memory_per_core : machine.memory_per_core;

  // Fixed per-worker footprint must leave room for a share of the
  // distributed arrays; the dry run reports the same case as fitting no
  // worker count.
  if (fixed_exceeds(workload.sia_fixed_per_core, workload.sia_resident_total,
                    mem)) {
    outcome.completed = false;
    outcome.reason = "per-worker block pools exceed memory";
    return outcome;
  }

  SimOptions effective = options;
  const double aggregate = mem * static_cast<double>(workers);
  if (workload.sia_resident_total + workload.sia_fixed_per_core *
                                        static_cast<double>(workers) >
      aggregate) {
    // Adaptive fallback: distributed arrays become served arrays. Fetches
    // now pay a disk-bandwidth term on top of the network, modeled as a
    // slower effective transfer (disk_bw shared by the I/O server pool,
    // assumed 1 server per 64 workers).
    outcome.spilled_to_disk = true;
    const double servers = std::max(1.0, static_cast<double>(workers) / 64.0);
    const double disk_slowdown =
        1.0 + machine.effective_bw(workers) /
                  (machine.disk_bw * servers / static_cast<double>(workers));
    effective.fetch_latency_scale *= disk_slowdown;
  }

  const WorkloadResult result =
      simulate_workload(machine, workload, workers, effective);
  outcome.seconds = result.seconds;
  outcome.wait_percent = result.wait_percent;
  if (time_limit_s > 0.0 && result.seconds > time_limit_s) {
    outcome.completed = false;
    outcome.reason = "exceeded time limit";
  }
  return outcome;
}

}  // namespace sia::sim
