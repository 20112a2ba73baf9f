// Machine-readable mid-end benchmark: runs two workloads at -O0 / -O1 /
// -O2 and writes wall time, fabric traffic, barrier executions and
// fetch counts as JSON so each PR can diff the optimizer's effect
// against the committed baseline (`cmake --build build --target
// bench_json`).
//
//   * comm_storm (shipped): a contraction-dense sweep the passes leave
//     largely alone; it checks that -O1/-O2 cost nothing.
//   * opt_defensive (below): an application-style sweep written the way
//     production SIAL often is — doubled "just in case" barriers, a
//     wrong-class server_barrier, and a loop-invariant get re-issued
//     every do iteration. Barrier elimination and prefetch hoisting
//     cut barrier executions and get issues at -O1/-O2.
//
// Both workloads run with workers=1: the pardo chunk schedule — and so
// the order of every put-accumulate and worker-partial reduction — is
// then deterministic, and the bench hard-fails if any level perturbs the checksum bit-for-bit. (With multiple workers the dynamic
// chunk assignment is timing-dependent and the low bits of the
// collective sums legitimately wander, even at -O0.)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "common/timer.hpp"
#include "sip/launch.hpp"

namespace {

using namespace sia;

const char* opt_defensive_source() {
  return R"SIAL(
sial opt_defensive
aoindex a = 1, norb
aoindex b = 1, norb
index it = 1, niter

distributed A(a,b)
temp t(a,b)
temp w(a,b)
scalar s
scalar fnorm2

pardo a, b
  execute random_block t(a,b) 5
  put A(a,b) = t(a,b)
endpardo a, b
sip_barrier
sip_barrier

s = 0.0
pardo a, b
  do it
    get A(a,b)
    w(a,b) = A(a,b)
    s += w(a,b) * w(a,b)
  enddo it
endpardo a, b
sip_barrier
sip_barrier
server_barrier
fnorm2 = 0.0
collective fnorm2 += s
endsial
)SIAL";
}

struct Sample {
  double seconds = 0.0;
  double checksum = 0.0;
  std::int64_t messages = 0;
  std::int64_t payload_doubles = 0;
  std::int64_t barriers = 0;
  std::int64_t get_executions = 0;
  std::int64_t prefetches = 0;
};

std::int64_t count_opcodes(const sip::ProfileReport& profile,
                           std::initializer_list<const char*> names) {
  std::int64_t total = 0;
  for (const auto& line : profile.lines) {
    for (const char* name : names) {
      if (line.opcode == name) total += line.count;
    }
  }
  return total;
}

Sample run_once(const std::string& source, const char* checksum_name,
                SipConfig config) {
  sip::Sip sip(std::move(config));
  const double t0 = wall_seconds();
  const sip::RunResult result = sip.run_source(source);
  Sample sample;
  sample.seconds = wall_seconds() - t0;
  sample.checksum = result.scalar(checksum_name);
  sample.messages = result.traffic.messages_sent;
  sample.payload_doubles = result.traffic.payload_doubles_sent;
  sample.barriers =
      count_opcodes(result.profile, {"sip_barrier", "server_barrier"});
  sample.get_executions =
      count_opcodes(result.profile, {"get", "request"});
  sample.prefetches = count_opcodes(result.profile, {"prefetch"});
  return sample;
}

// Median of the collected samples by wall time (counters come from the
// median run): stable under host-load drift, unlike a single run.
Sample median_of(std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.seconds < b.seconds;
            });
  return samples[samples.size() / 2];
}

void emit(std::FILE* out, const char* name, int level, const Sample& sample,
          bool last) {
  std::fprintf(
      out,
      "    {\n"
      "      \"name\": \"%s\",\n"
      "      \"opt_level\": %d,\n"
      "      \"wall_seconds\": %.6f,\n"
      "      \"checksum\": %.17g,\n"
      "      \"messages_sent\": %lld,\n"
      "      \"payload_doubles\": %lld,\n"
      "      \"barriers_executed\": %lld,\n"
      "      \"get_executions\": %lld,\n"
      "      \"prefetches\": %lld\n"
      "    }%s\n",
      name, level, sample.seconds, sample.checksum,
      static_cast<long long>(sample.messages),
      static_cast<long long>(sample.payload_doubles),
      static_cast<long long>(sample.barriers),
      static_cast<long long>(sample.get_executions),
      static_cast<long long>(sample.prefetches), last ? "" : ",");
}

struct Workload {
  const char* name;
  std::string source;
  const char* checksum;
  SipConfig config;  // opt_level overwritten per cell
};

}  // namespace

int main(int argc, char** argv) {
  chem::register_chem_superinstructions();
  const std::string path = argc > 1 ? argv[1] : "BENCH_opt.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }

  SipConfig storm;
  storm.workers = 1;  // single writer => deterministic put-accumulates
  storm.io_servers = 0;
  storm.default_segment = 128;
  storm.constants = {{"norb", 768}};

  SipConfig defensive;
  defensive.workers = 1;
  defensive.io_servers = 1;  // server_barrier needs a server to talk to
  defensive.default_segment = 64;
  defensive.constants = {{"norb", 768}, {"niter", 16}};

  Workload workloads[] = {
      {"comm_storm_n768_s128", chem::comm_storm_source(), "cnorm2", storm},
      {"opt_defensive_n768_s64", opt_defensive_source(), "fnorm2",
       defensive},
  };

  constexpr int kReps = 5;
  const int levels[] = {0, 1, 2};

  std::fprintf(out, "{\n  \"benchmarks\": [\n");
  bool checksum_fail = false;
  for (std::size_t w = 0; w < 2; ++w) {
    Workload& load = workloads[w];
    // Alternate cells rep-by-rep so slow host-load drift hits all sides
    // of every comparison equally.
    std::vector<Sample> cells[3];
    for (int rep = 0; rep < kReps; ++rep) {
      for (int li = 0; li < 3; ++li) {
        SipConfig config = load.config;
        config.opt_level = levels[li];
        cells[li].push_back(
            run_once(load.source, load.checksum, std::move(config)));
      }
    }
    Sample medians[3];
    for (int li = 0; li < 3; ++li) {
      medians[li] = median_of(std::move(cells[li]));
      emit(out, load.name, levels[li], medians[li], w == 1 && li == 2);
      if (medians[li].checksum != medians[0].checksum) {
        std::fprintf(stderr,
                     "FAIL: %s checksum at -O%d differs from -O0 "
                     "(%.17g vs %.17g)\n",
                     load.name, levels[li], medians[li].checksum,
                     medians[0].checksum);
        checksum_fail = true;
      }
    }
    const Sample& o0 = medians[0];
    const Sample& o2 = medians[2];
    std::printf(
        "%s: -O0 %.3f s / -O2 %.3f s; messages %lld -> %lld, barriers "
        "%lld -> %lld, gets %lld -> %lld (+%lld prefetch)\n",
        load.name, o0.seconds, o2.seconds,
        static_cast<long long>(o0.messages),
        static_cast<long long>(o2.messages),
        static_cast<long long>(o0.barriers),
        static_cast<long long>(o2.barriers),
        static_cast<long long>(o0.get_executions),
        static_cast<long long>(o2.get_executions),
        static_cast<long long>(o2.prefetches));
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  if (checksum_fail) return 1;
  std::printf("wrote %s (all checksums bit-identical across levels)\n",
              path.c_str());
  return 0;
}
