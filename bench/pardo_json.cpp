// Machine-readable pardo compute benchmark: the compute counterpart of
// BENCH_comm.json and BENCH_io.json. Runs the contraction-dense
// comm_storm workload (pardo a,b { do k { get; tmp = A*A; put C += tmp }})
// with one in-process worker and with the same worker spawned as an OS
// process, and writes wall time and workload GFLOP/s as JSON so each PR
// can diff against the committed baseline
// (`cmake --build build --target bench_json`).
//
// workers=1 keeps the pardo chunk schedule deterministic, so the
// collective checksum must be bit-identical across both transports.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "common/timer.hpp"
#include "sip/launch.hpp"
#include "sip/spawn.hpp"

namespace {

using namespace sia;

constexpr long kNorb = 1536;
constexpr int kSegment = 128;
// One multiply-add per (a,b,k) element triple in the Gram sweep; the
// init and checksum phases are O(norb^2) and excluded.
constexpr double kFlops = 2.0 * kNorb * kNorb * kNorb;

struct Sample {
  double seconds = 0.0;
  double cnorm2 = 0.0;
};

Sample run_once(const std::string& source, SipConfig config) {
  sip::Sip sip(std::move(config));
  const double t0 = wall_seconds();
  const sip::RunResult result = sip.run_source(source);
  Sample sample;
  sample.seconds = wall_seconds() - t0;
  sample.cnorm2 = result.scalar("cnorm2");
  return sample;
}

// Median of the collected samples by wall time: the median of several
// alternated runs is far more stable under host-load drift than a single
// run or a best-of.
Sample median_of(std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.seconds < b.seconds;
            });
  return samples[samples.size() / 2];
}

SipConfig pardo_config(const char* transport) {
  SipConfig config;
  config.workers = 1;  // deterministic chunk schedule => bit-identity
  config.io_servers = 0;
  config.default_segment = kSegment;
  config.transport = transport;
  config.constants = {{"norb", kNorb}};
  return config;
}

void emit(std::FILE* out, const char* name, const char* engine,
          const Sample& sample, bool last) {
  std::fprintf(out,
               "    {\n"
               "      \"name\": \"%s\",\n"
               "      \"engine\": \"%s\",\n"
               "      \"wall_seconds\": %.6f,\n"
               "      \"workload_gflops\": %.3f,\n"
               "      \"cnorm2\": %.17g\n"
               "    }%s\n",
               name, engine, sample.seconds,
               kFlops / sample.seconds * 1e-9, sample.cnorm2,
               last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  // This binary is its own spawn helper for the process column.
  if (sia::sip::is_spawn_child(argc, argv)) {
    chem::register_chem_superinstructions();
    return sia::sip::run_spawn_child(argc, argv);
  }
  chem::register_chem_superinstructions();
  const std::string path = argc > 1 ? argv[1] : "BENCH_pardo.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }

  constexpr int kReps = 5;
  const std::string source = chem::comm_storm_source();
  // Alternate transports run-by-run so slow drift in host load hits both
  // sides equally. The gap between them is pure transport: the spawned
  // worker is a real OS process over the socket fabric.
  std::vector<Sample> serial_runs, spawn_runs;
  for (int rep = 0; rep < kReps; ++rep) {
    serial_runs.push_back(run_once(source, pardo_config("thread")));
    spawn_runs.push_back(run_once(source, pardo_config("spawn")));
  }
  const Sample serial = median_of(std::move(serial_runs));
  const Sample spawned = median_of(std::move(spawn_runs));

  std::fprintf(out, "{\n  \"benchmarks\": [\n");
  emit(out, "comm_storm_n1536_s128", "serial", serial, false);
  emit(out, "comm_storm_n1536_s128", "spawn_serial", spawned, true);
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  std::printf("comm_storm n=%ld seg=%d (%.2f GFLOP): serial %.3f s "
              "(%.2f GFLOP/s)\n",
              kNorb, kSegment, kFlops * 1e-9, serial.seconds,
              kFlops / serial.seconds * 1e-9);
  std::printf("spawn (1 worker process): %.3f s (%.2fx of serial)\n",
              spawned.seconds, spawned.seconds / serial.seconds);
  if (spawned.cnorm2 != serial.cnorm2) {
    std::fprintf(stderr,
                 "FAIL: cnorm2 differs between transports "
                 "(%.17g vs spawn %.17g)\n",
                 serial.cnorm2, spawned.cnorm2);
    return 1;
  }
  std::printf("wrote %s (cnorm2 bit-identical: %.6e)\n", path.c_str(),
              serial.cnorm2);
  return 0;
}
