// sipbench: the repository benchmark.
//
//   sipbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out <dir>]
//
// Runs one workload through the public sip::Sip API for `seconds` and
// prints, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 measures the end-to-end metrics (setup_s, run_s, cpu_s,
// peak_rss_mb; a summary line above adds run_s_tail and failed_frac,
// which cannot be gated: see README.md). --trace 1 is a separate
// invocation that records bench-side spans around every call into a
// layer, times each layer directly, reads the per-layer split out of the
// run profile, and writes a Chrome trace-event file to
// <out>/trace-<workload>-seed<n>.json.
//
// Workloads (3 workers each; every engine knob at its shipped default):
//   ccd          coupled-cluster doubles, thread transport
//   storm_spawn  message-bound comm_storm, one OS process per rank
//   io_cold      served-array sweeps through one cold I/O server
//   fock_tuned   Fock build with launch-time autotuning on
// Every run's result is checked against a reference computed here.
// Exit status: 0 all runs correct, 1 a run failed or missed its
// reference, 2 usage error, 3 a run passed its deadline.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "blas/gemm.hpp"
#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "chem/reference.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "layers.hpp"
#include "sial/compiler.hpp"
#include "sip/launch.hpp"
#include "sip/spawn.hpp"
#include "trace.hpp"

namespace {

using namespace sia;
using sipbench::median;
using sipbench::Metric;
using sipbench::Metrics;
using sipbench::Scope;
using sipbench::Tracer;
namespace fs = std::filesystem;

// ---- Workload sizes (fixed; only storm_spawn takes the seed) ----------

constexpr int kWorkers = 3;  // nproc - 1 on the 4-core reference host

constexpr int kCcdSegment = 16;
constexpr long kCcdNorb = 64;
constexpr long kCcdNocc = 16;
constexpr long kCcdIterations = 1;

constexpr int kStormSegment = 4;
constexpr long kStormNorb = 64;

constexpr int kIoSegment = 32;
constexpr long kIoNorb = 576;
constexpr long kIoSweeps = 12;
constexpr long kIoShared = 192;

constexpr long kFockNorb = 32;

// A run still going after this long counts as failed and ends the
// benchmark (a hung rank cannot be cancelled from outside).
constexpr double kRunDeadlineS = 60.0;
// Enough timed runs that the run_s tail has ten samples beyond it.
constexpr std::size_t kMinSamples = 40;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"}, {"run_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"},
};
constexpr MetricSpec kPerLayer[] = {
    {"sial.compile_s", "s"},
    {"sial.opt_s", "s"},
    {"planner.plan_s", "s"},
    {"planner.candidates", "count"},
    {"planner.error_pct", "%"},
    {"sip.busy_s", "s"},
    {"sip.instructions", "count"},
    {"sip.wait_s.block", "s"},
    {"sip.wait_s.served", "s"},
    {"sip.wait_s.chunk", "s"},
    {"sip.wait_s.barrier", "s"},
    {"sip.wait_s.collective", "s"},
    {"sip.wait_frac", "frac"},
    {"sip.imbalance_pct", "%"},
    {"sip.steals_granted", "count"},
    {"sip.unattributed_frac", "frac"},
    {"executor.pool_busy_s", "s"},
    {"executor.drain_wait_s", "s"},
    {"executor.hazard_stalls", "count"},
    {"blas.contract_s", "s"},
    {"blas.contract_gflops", "GFLOP/s"},
    {"blas.permute_gbs", "GB/s"},
    {"chem.integrals_s", "s"},
    {"chem.integral_block_us", "us"},
    {"block.pool_alloc_ns", "ns"},
    {"block.heap_fallbacks", "count"},
    {"block.peak_local_mb", "MB"},
    {"msg.messages", "count"},
    {"msg.payload_mb", "MB"},
    {"msg.serialized_mb", "MB"},
    {"msg.puts_coalesced", "count"},
    {"msg.roundtrip_us.thread", "us"},
    {"msg.roundtrip_us.socket", "us"},
    {"msg.frame_gbs", "GB/s"},
    {"launch.spawn_s", "s"},
    {"io.disk_reads", "count"},
    {"io.disk_writes", "count"},
    {"io.reads_coalesced", "count"},
    {"io.server_hit_rate", "frac"},
    {"io.lookahead_hit_frac", "frac"},
    {"io.write_batches", "count"},
    {"io.disk_read_mbs", "MB/s"},
    {"io.disk_write_mbs", "MB/s"},
    {"trace.overhead_pct", "%"},
};

// ---- Command line -----------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload) return std::nullopt;
  return args;
}

// ---- Environment and host ---------------------------------------------

// Variables that silently override SipConfig inside Sip::run and the
// planner. Unset before anything runs, so every run uses exactly the
// configuration below; spawned ranks inherit the cleaned environment.
std::string isolate_environment() {
  static const char* const kOverrides[] = {
      "SIA_AUTOTUNE", "SIA_TRANSPORT", "SIA_FAULT_PLAN", "SIA_CALIBRATION",
      "SIA_LOG"};
  std::string note = "unset";
  for (const char* name : kOverrides) {
    note += std::string(" ") + name + (std::getenv(name) ? "(was set)" : "");
    ::unsetenv(name);
  }
  return note;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string host_line() {
  const long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::ostringstream out;
  out << "nproc=" << std::thread::hardware_concurrency() << " cpu=\""
      << cpu_model() << "\" llc_kib=" << (llc > 0 ? llc / 1024 : -1)
      << " gemm_kernel=" << blas::gemm_kernel_name()
      << " build=" << SIPBENCH_BUILD_TYPE;
  return out.str();
}

// ---- Workloads and their references -----------------------------------

struct Workload {
  std::string name;
  std::string source;
  SipConfig config;
  // Spawned ranks recompile the source, so spawn runs go through
  // run_source(); the others run the program compiled during set-up.
  bool spawn = false;
  // Delete the calibration file before every run (first run on a host).
  bool fresh_calibration = false;
  // Empty when the result matches the reference, else what missed.
  std::function<std::string(const sip::RunResult&)> check;
};

std::string check_close(const sip::RunResult& result, const char* scalar,
                        double expected, double rel_tol) {
  const double got = result.scalar(scalar);
  if (std::fabs(got - expected) <= rel_tol * std::fabs(expected)) return "";
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s = %.17g, reference %.17g", scalar, got,
                expected);
  return buf;
}

// Dot product with four independent partial sums.
double dot(const double* x, const double* y, long n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  long k = 0;
  for (; k + 4 <= n; k += 4) {
    s0 += x[k] * y[k];
    s1 += x[k + 1] * y[k + 1];
    s2 += x[k + 2] * y[k + 2];
    s3 += x[k + 3] * y[k + 3];
  }
  for (; k < n; ++k) s0 += x[k] * y[k];
  return (s0 + s1) + (s2 + s3);
}

struct CcdReference {
  double energy = 0.0;
  double rnorm2 = 0.0;
};

// The CCD equations of chem::ref_ccd_energy, element by element over the
// full index spaces, with every integral evaluated once into a table and
// each ladder/ring sum laid out as one contiguous dot product. The chem
// reference evaluates integrals inside the innermost loops, which at
// this workload's size takes minutes; ccd_reference is cross-checked
// against it at a small size on every start.
CcdReference ccd_reference(long norb, long nocc, long iterations) {
  const long nv = norb - nocc, no = nocc;
  auto at = [&](long a, long i, long b, long j) {
    return static_cast<std::size_t>(((a * no + i) * nv + b) * no + j);
  };
  auto denom = [&](long a, long i, long b, long j) {
    const std::array<long, 4> coords = {nocc + a + 1, i + 1, nocc + b + 1,
                                        j + 1};
    return chem::denominator_from_coords(coords, nocc);
  };
  auto vint = [](long p, long q, long r, long s) {
    return chem::synthetic_integral(p + 1, q + 1, r + 1, s + 1);
  };
  const std::size_t total = at(nv - 1, no - 1, nv - 1, no - 1) + 1;
  // Integral tables, laid out so each sum below reads both operands
  // contiguously: pp[a][b][c][d], hh[i][j][k][l], ring[i][a][k][c].
  std::vector<double> pp(static_cast<std::size_t>(nv * nv * nv * nv));
  std::vector<double> hh(static_cast<std::size_t>(no * no * no * no));
  std::vector<double> ring(total);
  std::vector<double> v0(total), t(total), t_next(total);
  std::size_t n = 0;
  for (long a = 0; a < nv; ++a)
    for (long b = 0; b < nv; ++b)
      for (long c = 0; c < nv; ++c)
        for (long d = 0; d < nv; ++d)
          pp[n++] = vint(nocc + a, nocc + c, nocc + b, nocc + d);
  n = 0;
  for (long i = 0; i < no; ++i)
    for (long j = 0; j < no; ++j)
      for (long k = 0; k < no; ++k)
        for (long l = 0; l < no; ++l) hh[n++] = vint(k, i, l, j);
  n = 0;
  for (long i = 0; i < no; ++i)
    for (long a = 0; a < nv; ++a)
      for (long k = 0; k < no; ++k)
        for (long c = 0; c < nv; ++c) {
          ring[n++] = vint(k, nocc + a, nocc + c, i);
        }
  for (long a = 0; a < nv; ++a)
    for (long i = 0; i < no; ++i)
      for (long b = 0; b < nv; ++b)
        for (long j = 0; j < no; ++j) {
          v0[at(a, i, b, j)] = vint(nocc + a, i, nocc + b, j);
          t[at(a, i, b, j)] = v0[at(a, i, b, j)] / denom(a, i, b, j);
        }

  // Amplitudes regathered per sweep: t_pp[i][j][c][d] = t(c,i,d,j),
  // t_hh[a][b][k][l] = t(a,k,b,l), t_ring[b][j][k][c] = t(c,k,b,j).
  std::vector<double> t_pp(total), t_hh(total), t_ring(total);
  CcdReference out;
  for (long sweep = 0; sweep < iterations; ++sweep) {
    for (long a = 0; a < nv; ++a)
      for (long i = 0; i < no; ++i)
        for (long b = 0; b < nv; ++b)
          for (long j = 0; j < no; ++j) {
            const double value = t[at(a, i, b, j)];
            auto slot = [](long p, long q, long r, long s, long nq, long nr,
                           long ns) {
              return static_cast<std::size_t>(((p * nq + q) * nr + r) * ns + s);
            };
            t_pp[slot(i, j, a, b, no, nv, nv)] = value;
            t_hh[slot(a, b, i, j, nv, no, no)] = value;
            t_ring[slot(b, j, i, a, no, no, nv)] = value;
          }
    out.rnorm2 = 0.0;
    for (long a = 0; a < nv; ++a)
      for (long i = 0; i < no; ++i)
        for (long b = 0; b < nv; ++b)
          for (long j = 0; j < no; ++j) {
            double r = v0[at(a, i, b, j)];
            r += dot(&pp[static_cast<std::size_t>((a * nv + b) * nv * nv)],
                     &t_pp[static_cast<std::size_t>((i * no + j) * nv * nv)],
                     nv * nv);
            r += dot(&hh[static_cast<std::size_t>((i * no + j) * no * no)],
                     &t_hh[static_cast<std::size_t>((a * nv + b) * no * no)],
                     no * no);
            r += dot(&ring[static_cast<std::size_t>((i * nv + a) * no * nv)],
                     &t_ring[static_cast<std::size_t>((b * no + j) * no * nv)],
                     no * nv);
            const double tn = r / denom(a, i, b, j);
            t_next[at(a, i, b, j)] = tn;
            out.rnorm2 += tn * tn;
          }
    t.swap(t_next);
  }
  for (std::size_t e = 0; e < total; ++e) out.energy += t[e] * v0[e];
  return out;
}

// The random_block formula, written out independently of the runtime:
// a SplitMix64 hash chain over the absolute 1-based coordinates, mapped
// to [-1, 1).
std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double random_element(std::uint64_t seed, long row, long col) {
  std::uint64_t key = seed;
  for (const long c : {row, col}) {
    key ^= splitmix(static_cast<std::uint64_t>(c)) + 0x9e3779b97f4a7c15ull +
           (key << 6) + (key >> 2);
  }
  return 2.0 * static_cast<double>(splitmix(key) >> 11) * 0x1.0p-53 - 1.0;
}

// cnorm2 = ||A A^T||_F^2 for A(a,k) = random_element(seed, a, k).
double storm_cnorm2(long n, std::uint64_t seed) {
  std::vector<double> a(static_cast<std::size_t>(n * n));
  for (long r = 0; r < n; ++r) {
    for (long k = 0; k < n; ++k) {
      a[static_cast<std::size_t>(r * n + k)] =
          random_element(seed, r + 1, k + 1);
    }
  }
  double norm2 = 0.0;
  for (long r = 0; r < n; ++r) {
    for (long c = 0; c < n; ++c) {
      double dot = 0.0;
      for (long k = 0; k < n; ++k) {
        dot += a[static_cast<std::size_t>(r * n + k)] *
               a[static_cast<std::size_t>(c * n + k)];
      }
      norm2 += dot * dot;
    }
  }
  return norm2;
}

// sum_{a<=rows, k<=cols} (100 a + k)^2 in closed form: fill_coords writes
// element (a,k) as 100 a + k.
std::int64_t coord_square_sum(std::int64_t rows, std::int64_t cols) {
  const std::int64_t sa = rows * (rows + 1) / 2;
  const std::int64_t sa2 = rows * (rows + 1) * (2 * rows + 1) / 6;
  const std::int64_t sk = cols * (cols + 1) / 2;
  const std::int64_t sk2 = cols * (cols + 1) * (2 * cols + 1) / 6;
  return 10000 * cols * sa2 + 200 * sa * sk + rows * sk2;
}

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const auto at = text.find(from);
  if (at == std::string::npos) {
    throw Error("sipbench: workload source lacks '" + from + "'");
  }
  return text.replace(at, from.size(), to);
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed,
                                      const std::string& work_dir) {
  Workload w;
  w.name = name;
  w.config.workers = kWorkers;
  w.config.io_servers = 0;
  w.config.scratch_dir = work_dir + "/scratch";
  w.config.calibration_file = work_dir + "/calibration";
  if (name == "ccd") {
    w.source = chem::ccd_energy_source();
    w.config.default_segment = kCcdSegment;
    w.config.constants = {
        {"norb", kCcdNorb}, {"nocc", kCcdNocc}, {"maxiter", kCcdIterations}};
    double small_rnorm2 = 0.0;
    const double small_energy =
        chem::ref_ccd_energy(16, 4, 2, &small_rnorm2);
    const CcdReference small = ccd_reference(16, 4, 2);
    auto close = [](double a, double b) {
      return std::fabs(a - b) <= 1e-12 * std::fabs(b);
    };
    if (!close(small.energy, small_energy) ||
        !close(small.rnorm2, small_rnorm2)) {
      throw Error("sipbench: ccd reference disagrees with chem's");
    }
    const CcdReference ref = ccd_reference(kCcdNorb, kCcdNocc, kCcdIterations);
    w.check = [ref](const sip::RunResult& r) {
      std::string miss = check_close(r, "energy", ref.energy, 1e-9);
      return miss.empty() ? check_close(r, "rnorm2", ref.rnorm2, 1e-9) : miss;
    };
  } else if (name == "storm_spawn") {
    // The seed picks the random_block fill (a SIAL number literal).
    const std::uint64_t fill_seed = 1 + seed % 1000000007ull;
    w.source =
        replace_once(chem::comm_storm_source(), "random_block t(a,k) 11",
                     "random_block t(a,k) " + std::to_string(fill_seed));
    w.config.default_segment = kStormSegment;
    w.config.constants = {{"norb", kStormNorb}};
    w.config.transport = "spawn";
    w.spawn = true;
    const double cnorm2 = storm_cnorm2(kStormNorb, fill_seed);
    w.check = [cnorm2](const sip::RunResult& r) {
      return check_close(r, "cnorm2", cnorm2, 1e-10);
    };
  } else if (name == "io_cold") {
    w.source = chem::io_storm_source();
    w.config.io_servers = 1;
    w.config.default_segment = kIoSegment;
    w.config.constants = {
        {"norb", kIoNorb}, {"nsweeps", kIoSweeps}, {"nshared", kIoShared}};
    // A server cache of ~1/9 of the served array keeps sweeps on disk.
    w.config.server_cache_bytes =
        static_cast<std::size_t>(kIoNorb * kIoNorb) * sizeof(double) / 9;
    w.config.server_cold_io = true;
    const std::int64_t snorm2 =
        kIoSweeps * coord_square_sum(kIoNorb, kIoNorb) +
        kWorkers * coord_square_sum(kIoShared, kIoNorb);
    // Every partial sum stays an exact integer in a double.
    if (snorm2 >= (std::int64_t{1} << 53)) {
      throw Error("sipbench: io_cold checksum exceeds 2^53");
    }
    w.check = [snorm2](const sip::RunResult& r) {
      return check_close(r, "snorm2", static_cast<double>(snorm2), 0.0);
    };
  } else if (name == "fock_tuned") {
    w.source = chem::fock_build_source();
    w.config.constants = {{"norb", kFockNorb}};
    w.config.autotune = true;
    w.fresh_calibration = true;
    const double fnorm = chem::ref_fock_norm(kFockNorb);
    w.check = [fnorm](const sip::RunResult& r) {
      return check_close(r, "fnorm", fnorm, 1e-10);
    };
  } else {
    return std::nullopt;
  }
  return w;
}

// ---- Measurement -------------------------------------------------------

double cpu_seconds() {
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return seconds(self.ru_utime) + seconds(self.ru_stime) +
         seconds(children.ru_utime) + seconds(children.ru_stime);
}

// Resets the kernel's RSS high-water mark (and so ru_maxrss) to the
// current RSS, so the next peak reading covers one run. False when the
// kernel refuses.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

// Peak resident memory of this process since the last reset plus, for
// spawn runs, `ranks` times the largest reaped child (an upper bound:
// the ranks run at once).
double peak_rss_mb(int spawned_ranks) {
  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  const double kib = static_cast<double>(self.ru_maxrss) +
                     spawned_ranks * static_cast<double>(children.ru_maxrss);
  return kib * 1024.0 / 1e6;
}

// Hard per-run deadline. `on_expiry` runs on the watchdog thread and must
// not return (it reports and ends the process).
class Watchdog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Watchdog(std::function<void()> on_expiry)
      : on_expiry_(std::move(on_expiry)), thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(double seconds) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
    }
    cv_.notify_all();
  }
  void disarm() {
    std::lock_guard<std::mutex> lock(mutex_);
    deadline_.reset();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (!deadline_) {
        cv_.wait(lock);
      } else if (Clock::now() >= *deadline_) {
        on_expiry_();
      } else {
        cv_.wait_until(lock, *deadline_);
      }
    }
  }

  std::function<void()> on_expiry_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<Clock::time_point> deadline_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

struct Outcome {
  bool completed = false;  // ran to the end without throwing
  std::string miss;        // non-empty: failed (exception or checksum)
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::optional<sip::RunResult> result;
};

// One measured run: set-up (construct the Sip, compile the source), then
// Sip::run under the deadline, then the reference check.
Outcome run_once(const Workload& w, Tracer& tracer, Watchdog& watchdog,
                 const char* span_name) {
  Outcome out;
  // The scratch directory persists across runs, as between chained SIAL
  // programs: served files are rewritten in place rather than created and
  // deleted per run, which keeps file-system journal commits off the
  // timed path.
  if (w.fresh_calibration) {
    std::error_code ignored;
    fs::remove(w.config.calibration_file, ignored);
  }
  reset_peak_rss();
  try {
    const double t0 = wall_seconds();
    std::optional<sip::Sip> sip;
    std::optional<sial::CompiledProgram> program;
    {
      Scope setup(tracer, "setup");
      sip.emplace(w.config);
      Scope compile(tracer, "sial.compile");
      program.emplace(sial::compile_sial(w.source));
    }
    out.setup_s = wall_seconds() - t0;
    const double cpu0 = cpu_seconds();
    watchdog.arm(kRunDeadlineS);
    const double t1 = wall_seconds();
    {
      Scope run(tracer, span_name);
      out.result.emplace(w.spawn ? sip->run_source(w.source)
                                 : sip->run(*program));
    }
    out.run_s = wall_seconds() - t1;
    watchdog.disarm();
    out.cpu_s = cpu_seconds() - cpu0;
    out.peak_rss_mb = peak_rss_mb(
        w.spawn ? w.config.workers + w.config.io_servers : 0);
    out.completed = true;
    out.miss = w.check(*out.result);
  } catch (const std::exception& error) {
    watchdog.disarm();
    out.miss = error.what();
  }
  return out;
}

// After this many failed runs a workload stops measuring.
constexpr long kMaxFailures = 3;

struct Tally {
  std::mutex mutex;
  long attempted = 0;
  long failed = 0;
  std::vector<double> setup_s, run_s, cpu_s, peak_rss_mb;

  void add(const Outcome& outcome, bool sample) {
    std::lock_guard<std::mutex> lock(mutex);
    ++attempted;
    if (!outcome.miss.empty()) {
      ++failed;
      std::fprintf(stderr, "sipbench: run %ld failed: %s\n", attempted,
                   outcome.miss.c_str());
    }
    if (sample && outcome.completed) {
      setup_s.push_back(outcome.setup_s);
      run_s.push_back(outcome.run_s);
      cpu_s.push_back(outcome.cpu_s);
      peak_rss_mb.push_back(outcome.peak_rss_mb);
    }
  }
};

struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
};

// The highest percentile of `samples` with at least ten samples beyond
// it (the maximum when there are fewer than eleven).
Tail tail_of(std::vector<double> samples) {
  Tail tail;
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t beyond = n > 10 ? 10 : 0;
  tail.value = samples[n - 1 - beyond];
  tail.beyond = beyond;
  tail.percentile = 100.0 * static_cast<double>(n - beyond) /
                    static_cast<double>(n);
  return tail;
}

void print_result(bool correct, long attempted, long failed,
                  const std::vector<std::pair<MetricSpec, double>>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].first.name, metrics[i].second,
                  metrics[i].first.unit);
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::vector<std::pair<MetricSpec, double>> end_to_end(Tally& tally) {
  std::lock_guard<std::mutex> lock(tally.mutex);
  const double values[] = {median(tally.setup_s), median(tally.run_s),
                           median(tally.cpu_s), median(tally.peak_rss_mb)};
  std::vector<std::pair<MetricSpec, double>> out;
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    out.emplace_back(kEndToEnd[i], values[i]);
  }
  return out;
}

// ---- --trace 0: the end-to-end measurement ----------------------------

int run_timed(const Workload& w, const Args& args) {
  Tally tally;
  Watchdog watchdog([&] {
    std::fprintf(stderr, "sipbench: %s run passed its %.0f s deadline\n",
                 w.name.c_str(), kRunDeadlineS);
    long attempted = 0, failed = 0;
    {
      std::lock_guard<std::mutex> lock(tally.mutex);
      attempted = tally.attempted + 1;
      failed = tally.failed + 1;
    }
    print_result(false, attempted, failed, end_to_end(tally));
    std::_Exit(3);
  });
  Tracer off(false);
  std::map<std::string, int> plans;

  // One warm-up run: checked and counted, not timed.
  tally.add(run_once(w, off, watchdog, "run"), false);
  const double t0 = wall_seconds();
  for (;;) {
    const double elapsed = wall_seconds() - t0;
    if (tally.failed >= kMaxFailures ||
        (elapsed >= args.seconds && (tally.run_s.size() >= kMinSamples ||
                                     elapsed >= 3.0 * args.seconds))) {
      break;
    }
    Outcome outcome = run_once(w, off, watchdog, "run");
    if (outcome.result && outcome.result->profile.plan.planned) {
      ++plans[outcome.result->profile.plan.summary];
    }
    tally.add(outcome, true);
  }

  const Tail tail = tail_of(tally.run_s);
  std::printf("%s: setup_s %.6f s, run_s %.6f s, run_s_tail %.6f s (p%.1f of "
              "%zu timed runs, %zu beyond it), cpu_s %.6f s, peak_rss_mb "
              "%.3f MB, failed_frac %ld/%ld\n",
              w.name.c_str(), median(tally.setup_s), median(tally.run_s),
              tail.value, tail.percentile, tally.run_s.size(), tail.beyond,
              median(tally.cpu_s), median(tally.peak_rss_mb), tally.failed,
              tally.attempted);
  for (const auto& [summary, count] : plans) {
    std::printf("plan x%d: %s\n", count, summary.c_str());
  }
  const bool correct = tally.failed == 0;
  print_result(correct, tally.attempted, tally.failed,
               end_to_end(tally));
  return correct ? 0 : 1;
}

// ---- --trace 1: per-layer attribution ----------------------------------

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    out += (out.size() > 1 ? ", " : "") + sipbench::json_quote(name) + ": ";
    if (metric.value) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.12g", *metric.value);
      out += buf;
    } else {
      out += "{\"value\": null, \"why\": " + sipbench::json_quote(metric.note) +
             "}";
    }
  }
  return out + "}";
}

int run_traced(const Workload& w, const Args& args, const std::string& host,
               const std::string& isolation, const std::string& work_dir) {
  Tally tally;
  Watchdog watchdog([&] {
    std::fprintf(stderr, "sipbench: %s run passed its %.0f s deadline\n",
                 w.name.c_str(), kRunDeadlineS);
    std::_Exit(3);
  });
  Tracer tracer(true);
  Tracer off(false);
  Metrics metrics;

  // The workload itself first, alternating traced and untraced runs so
  // the tracing overhead is measured against the same process state; the
  // probes come after, so these runs start from the state the untraced
  // benchmark measures in.
  struct Run {
    double run_s;
    sip::RunResult result;
  };
  std::vector<Run> traced;
  std::vector<double> untraced_s;
  const double t0 = wall_seconds();
  for (int i = 0; wall_seconds() - t0 < 0.5 * args.seconds ||
                  traced.size() < 3 || untraced_s.size() < 3;
       ++i) {
    const bool on = i % 2 == 0;
    Outcome outcome = run_once(w, on ? tracer : off, watchdog, "run");
    tally.add(outcome, false);
    if (!outcome.completed) continue;
    if (on) {
      traced.push_back({outcome.run_s, std::move(*outcome.result)});
    } else {
      untraced_s.push_back(outcome.run_s);
    }
    if (tally.failed >= kMaxFailures ||
        wall_seconds() - t0 > 2.0 * args.seconds) {
      break;
    }
  }
  if (traced.empty() || untraced_s.empty()) {
    throw Error("sipbench: no " + w.name + " run completed");
  }
  std::sort(traced.begin(), traced.end(),
            [](const Run& a, const Run& b) { return a.run_s < b.run_s; });
  const Run& typical = traced[traced.size() / 2];
  std::vector<double> traced_s;
  for (const Run& run : traced) traced_s.push_back(run.run_s);
  const double overhead_pct =
      100.0 * (median(traced_s) - median(untraced_s)) / median(untraced_s);

  sipbench::profile_metrics(typical.result, w.source, kWorkers, typical.run_s,
                            &metrics);
  Metrics spawn_side;  // what the spawn run itself reported
  double split_run_s = typical.run_s;
  if (w.spawn) {
    // Spawned ranks ship no worker profile, so the same program runs over
    // the loopback transport (threads, every message framed over a
    // socket) for the worker-side split. Fabric totals stay the spawn
    // run's own.
    spawn_side = metrics;
    Workload loopback = w;
    loopback.config.transport = "loopback";
    loopback.spawn = false;
    std::vector<Run> runs;
    for (int r = 0; r < 5; ++r) {
      Outcome outcome = run_once(loopback, tracer, watchdog, "run.loopback");
      tally.add(outcome, false);
      if (outcome.completed) {
        runs.push_back({outcome.run_s, std::move(*outcome.result)});
      }
    }
    if (runs.empty()) throw Error("sipbench: no loopback run completed");
    std::sort(runs.begin(), runs.end(),
              [](const Run& a, const Run& b) { return a.run_s < b.run_s; });
    const Run& mid = runs[runs.size() / 2];
    split_run_s = mid.run_s;
    Metrics loop_metrics;
    sipbench::profile_metrics(mid.result, w.source, kWorkers, mid.run_s,
                              &loop_metrics);
    for (auto& [name, metric] : loop_metrics) {
      if (!spawn_side[name].value) metrics[name] = metric;
    }
  }

  if (w.config.autotune) {
    std::vector<double> errors;
    for (const Run& run : traced) {
      errors.push_back(std::fabs(run.result.profile.plan.error_percent()));
    }
    metrics["planner.error_pct"].value = median(errors);
  } else {
    // One planned run of the same program, first on this host.
    Workload planned = w;
    planned.config.autotune = true;
    planned.fresh_calibration = true;
    Outcome outcome = run_once(planned, tracer, watchdog, "run.autotuned");
    tally.add(outcome, false);
    if (outcome.completed) {
      metrics["planner.error_pct"].value =
          std::fabs(outcome.result->profile.plan.error_percent());
    } else {
      metrics["planner.error_pct"] = {std::nullopt, "planned run failed"};
    }
  }

  sipbench::probe_front_end(w.source, w.config, tracer, &metrics);
  sipbench::ProbeShapes shapes;
  shapes.contract_segment = kCcdSegment;
  shapes.message_doubles = kStormSegment * kStormSegment;
  shapes.disk_block_doubles = kIoSegment * kIoSegment;
  sipbench::probe_layers(shapes, work_dir, tracer, &metrics);
  metrics["trace.overhead_pct"].value = overhead_pct;

  const std::string attribution =
      sipbench::attribution_line(metrics, kWorkers, split_run_s);
  std::printf("attribution %s%s: %s\n", w.name.c_str(),
              w.spawn ? " (loopback)" : "", attribution.c_str());
  std::printf("tracing overhead: %+.2f%% (median run_s traced %.6f s vs "
              "untraced %.6f s, %zu + %zu runs, %zu spans)\n",
              overhead_pct, median(traced_s), median(untraced_s),
              traced_s.size(), untraced_s.size(), tracer.size());

  std::vector<std::pair<MetricSpec, double>> reported;
  for (const MetricSpec& spec : kPerLayer) {
    const Metric& metric = metrics[spec.name];
    if (!metric.value) {
      std::printf("absent: %s (%s); reported as 0\n", spec.name,
                  metric.note.empty() ? "not measured" : metric.note.c_str());
    }
    reported.emplace_back(spec, metric.value.value_or(0.0));
  }

  fs::create_directories(args.out);
  const std::string trace_path = args.out + "/trace-" + w.name + "-seed" +
                                 std::to_string(args.seed) + ".json";
  std::string other = "{\"workload\": " + sipbench::json_quote(w.name) +
                      ", \"seed\": " + std::to_string(args.seed) +
                      ", \"host\": " + sipbench::json_quote(host) +
                      ", \"environment\": " + sipbench::json_quote(isolation) +
                      ", \"attribution\": " +
                      sipbench::json_quote(attribution) +
                      ", \"metrics\": " + metrics_json(metrics);
  if (w.spawn) other += ", \"spawn_run_metrics\": " + metrics_json(spawn_side);
  other += "}";
  tracer.write_chrome(trace_path, other);
  std::printf("trace: %s\n", trace_path.c_str());

  const bool correct = tally.failed == 0;
  print_result(correct, tally.attempted, tally.failed, reported);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // This binary is its own spawn helper: spawned ranks re-exec it.
  if (sip::is_spawn_child(argc, argv)) {
    chem::register_chem_superinstructions();
    return sip::run_spawn_child(argc, argv);
  }
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: sipbench --workload <ccd|storm_spawn|io_cold|"
                 "fock_tuned> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out <dir>]\n");
    return 2;
  }
  // glibc raises its mmap and trim thresholds as a process frees large
  // buffers, so whether a run maps fresh pages for its block pools would
  // depend on what the process did before (that swings io_cold's run_s by
  // a third). Pinning both at glibc's initial values makes every run
  // allocate like the first run of a fresh process.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  ::mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  try {
    const std::string isolation = isolate_environment();
    chem::register_chem_superinstructions();
    const std::string work_dir =
        fs::absolute(args->out + "/work-" + args->workload + "-" +
                     std::to_string(::getpid()))
            .string();
    const std::optional<Workload> workload =
        make_workload(args->workload, args->seed, work_dir);
    if (!workload) {
      std::fprintf(stderr, "sipbench: unknown workload '%s'\n",
                   args->workload.c_str());
      return 2;
    }
    if (!reset_peak_rss()) {
      std::fprintf(stderr, "sipbench: cannot reset the RSS high-water mark; "
                           "peak_rss_mb covers the whole process\n");
    }
    const std::string host = host_line();
    std::printf("sipbench %s seed=%llu seconds=%g trace=%d\n",
                workload->name.c_str(),
                static_cast<unsigned long long>(args->seed), args->seconds,
                args->trace ? 1 : 0);
    std::printf("host: %s\n", host.c_str());
    std::printf("environment: %s; calibration file private to this run\n",
                isolation.c_str());
    const int status =
        args->trace ? run_traced(*workload, *args, host, isolation, work_dir)
                    : run_timed(*workload, *args);
    std::error_code ignored;
    fs::remove_all(work_dir, ignored);
    return status;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sipbench: %s\n", error.what());
    return 1;
  }
}
