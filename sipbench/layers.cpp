#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "blas/permute.hpp"
#include "block/block.hpp"
#include "block/block_pool.hpp"
#include "chem/integrals.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "msg/fabric.hpp"
#include "msg/frame.hpp"
#include "msg/socket_fabric.hpp"
#include "sial/compiler.hpp"
#include "sial/opt/optimizer.hpp"
#include "sip/io_server.hpp"
#include "sip/planner.hpp"
#include "sip/superinstr.hpp"

namespace sipbench {

using namespace sia;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// Median over `batches` of the mean per-call time of `call`, each batch
// running for at least `batch_s` seconds.
template <typename Fn>
double seconds_per_call(Fn&& call, double batch_s = 0.04, int batches = 5) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    long calls = 0;
    const double t0 = wall_seconds();
    double t = t0;
    do {
      call();
      ++calls;
      t = wall_seconds();
    } while (t - t0 < batch_s);
    per_call.push_back((t - t0) / static_cast<double>(calls));
  }
  return median(std::move(per_call));
}

// Keeps the optimizer from discarding probe results.
volatile double g_sink = 0.0;

BlockShape cube4(int segment) {
  const std::array<int, 4> extents = {segment, segment, segment, segment};
  return BlockShape(extents);
}

void fill_pattern(Block& block) {
  auto data = block.data();
  for (std::size_t n = 0; n < data.size(); ++n) {
    data[n] = 1.0 / static_cast<double>(1 + n % 7);
  }
}

// Ping-pong between ranks 0 and 1 of `fabric` with a block payload of
// `doubles` words; returns seconds per round trip.
double roundtrip_seconds(msg::Fabric& fabric, int doubles) {
  constexpr int kPing = 9101;
  constexpr int kStop = 9102;
  const std::array<int, 1> extents = {doubles};
  auto payload = std::make_shared<Block>(BlockShape(extents));
  fill_pattern(*payload);

  // Rank 1 echoes every ping back until told to stop. The guard stops
  // and joins it on every exit path.
  std::exception_ptr echo_error;
  std::thread echo([&fabric, &echo_error] {
    try {
      while (std::optional<msg::Message> message = fabric.recv(1)) {
        if (message->tag == kStop) return;
        fabric.send(1, 0, std::move(*message));
      }
    } catch (...) {
      echo_error = std::current_exception();
    }
  });
  struct StopEcho {
    msg::Fabric& fabric;
    std::thread& echo;
    ~StopEcho() {
      msg::Message stop;
      stop.tag = kStop;
      fabric.send(0, 1, std::move(stop));
      echo.join();
    }
  } stop_echo{fabric, echo};

  auto ping = [&] {
    msg::Message message;
    message.tag = kPing;
    message.header = {0};
    message.block = payload;
    fabric.send(0, 1, std::move(message));
    if (!fabric.recv(0)) throw Error("sipbench: fabric stopped mid ping");
  };
  for (int i = 0; i < 200; ++i) ping();  // connect and warm up
  const double seconds = seconds_per_call(ping);
  if (echo_error) std::rethrow_exception(echo_error);
  return seconds;
}

}  // namespace

void probe_front_end(const std::string& source, const SipConfig& config,
                     Tracer& tracer, Metrics* out) {
  constexpr int kReps = 5;
  std::vector<double> compile_s, opt_s, plan_s;
  sial::CompiledProgram program;
  for (int r = 0; r < kReps; ++r) {
    Scope span(tracer, "sial.compile");
    const double t0 = wall_seconds();
    program = sial::compile_sial(source);
    compile_s.push_back(wall_seconds() - t0);
  }
  sial::CompiledProgram optimized;
  for (int r = 0; r < kReps; ++r) {
    Scope span(tracer, "sial.optimize");
    const double t0 = wall_seconds();
    optimized = sial::opt::optimize(program, config.opt_level).program;
    opt_s.push_back(wall_seconds() - t0);
  }
  int candidates = 0;
  for (int r = 0; r < 3; ++r) {
    Scope span(tracer, "planner.plan");
    const double t0 = wall_seconds();
    const sip::PlanChoice choice = sip::plan_launch(
        optimized, config, sip::Calibration{}, sip::HostModel{});
    plan_s.push_back(wall_seconds() - t0);
    candidates = choice.candidates;
  }
  (*out)["sial.compile_s"].value = median(compile_s);
  (*out)["sial.opt_s"].value = median(opt_s);
  (*out)["planner.plan_s"].value = median(plan_s);
  (*out)["planner.candidates"].value = candidates;
}

void probe_layers(const ProbeShapes& shapes, const std::string& work_dir,
                  Tracer& tracer, Metrics* out) {
  namespace fs = std::filesystem;
  const int seg = shapes.contract_segment;
  const double seg4 = static_cast<double>(seg) * seg * seg * seg;

  {
    // One particle-ladder contraction at ccd's block shape:
    // tmp(a,i,b,j) = vp(a,c,b,d) * T(c,i,d,j).
    Scope span(tracer, "blas.block_contract");
    Block vp(cube4(seg)), t(cube4(seg)), tmp(cube4(seg));
    fill_pattern(vp);
    fill_pattern(t);
    const std::array<int, 4> dst_ids = {0, 1, 2, 3};
    const std::array<int, 4> a_ids = {0, 4, 2, 5};
    const std::array<int, 4> b_ids = {4, 1, 5, 3};
    const double s = seconds_per_call([&] {
      sip::block_contract(tmp, dst_ids, vp, a_ids, t, b_ids, false);
    });
    g_sink = g_sink + tmp.data()[0];
    (*out)["blas.contract_gflops"].value = 2.0 * seg4 * seg * seg / s / 1e9;
  }
  {
    Scope span(tracer, "blas.permute");
    Block src(cube4(seg)), dst(cube4(seg));
    fill_pattern(src);
    const std::array<int, 4> dims = {seg, seg, seg, seg};
    const std::array<int, 4> perm = {2, 3, 0, 1};
    const double s = seconds_per_call([&] {
      blas::permute(src.data().data(), dims, perm, dst.data().data());
    });
    g_sink = g_sink + dst.data()[1];
    // Read plus write of every element.
    (*out)["blas.permute_gbs"].value = 2.0 * 8.0 * seg4 / s / 1e9;
  }
  {
    // The compute_integrals generator over one ccd block (segment 2 of
    // every index), element by element as the super instruction does.
    Scope span(tracer, "chem.compute_integrals");
    Block v(cube4(seg));
    const long base = seg + 1;
    const double s = seconds_per_call([&] {
      double* value = v.data().data();
      for (long p = base; p < base + seg; ++p) {
        for (long q = base; q < base + seg; ++q) {
          for (long r = base; r < base + seg; ++r) {
            for (long u = base; u < base + seg; ++u) {
              *value++ = chem::synthetic_integral(p, q, r, u);
            }
          }
        }
      }
    });
    g_sink = g_sink + v.data()[2];
    (*out)["chem.integral_block_us"].value = s * 1e6;
  }
  {
    Scope span(tracer, "block.pool");
    const auto doubles = static_cast<std::size_t>(seg4);
    BlockPool pool({{doubles, 4}}, false);
    std::uintptr_t mix = 0;
    const double s = seconds_per_call([&] {
      PoolBuffer buffer = pool.allocate(doubles);
      mix ^= reinterpret_cast<std::uintptr_t>(buffer.data());
    });
    g_sink = g_sink + static_cast<double>(mix & 1u);
    (*out)["block.pool_alloc_ns"].value = s * 1e9;
  }
  {
    Scope span(tracer, "msg.roundtrip.thread");
    msg::Fabric fabric(2);
    (*out)["msg.roundtrip_us.thread"].value =
        roundtrip_seconds(fabric, shapes.message_doubles) * 1e6;
    fabric.stop();
  }
  {
    Scope span(tracer, "msg.roundtrip.socket");
    msg::SocketFabric fabric(2, msg::SocketOptions{});
    (*out)["msg.roundtrip_us.socket"].value =
        roundtrip_seconds(fabric, shapes.message_doubles) * 1e6;
    fabric.stop();
  }
  {
    Scope span(tracer, "msg.frame_codec");
    const std::array<int, 1> extents = {shapes.message_doubles};
    msg::Message message;
    message.tag = 202;
    message.header = {1, 7};
    message.block = std::make_shared<Block>(BlockShape(extents));
    fill_pattern(*message.block);
    std::vector<std::uint8_t> bytes;
    msg::DecodedFrame decoded;
    const double s = seconds_per_call([&] {
      bytes.clear();
      msg::encode_message_frame(message, 1, bytes);
      if (msg::decode_frame(bytes, &decoded) != msg::DecodeStatus::kOk) {
        throw Error("sipbench: frame round trip failed to decode");
      }
    });
    (*out)["msg.frame_gbs"].value =
        static_cast<double>(bytes.size()) / s / 1e9;
  }
  {
    // Launch cost alone: a program that does no work, spawned.
    Scope span(tracer, "launch.spawn");
    SipConfig config;
    config.workers = 3;
    config.io_servers = 0;
    config.transport = "spawn";
    config.scratch_dir = work_dir + "/launch";
    config.calibration_file = work_dir + "/launch.calibration";
    const std::string source =
        "sial launch_probe\nscalar x\nx = 1.0\nendsial\n";
    std::vector<double> launch_s;
    for (int r = 0; r < 3; ++r) {
      sip::Sip sip(config);
      const double t0 = wall_seconds();
      sip.run_source(source);
      launch_s.push_back(wall_seconds() - t0);
    }
    (*out)["launch.spawn_s"].value = median(launch_s);
  }
  {
    // Cold DiskStore bandwidth at io_cold's block size: a write-behind
    // batch (write_deferred, then the batch epilogue that syncs and
    // evicts), then a read sweep of the evicted blocks.
    Scope span(tracer, "io.disk_store");
    constexpr int kBlocks = 32;
    const auto doubles = static_cast<std::size_t>(shapes.disk_block_doubles);
    const std::string dir = work_dir + "/disk_probe";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::vector<double> data(doubles, 1.5), back(doubles);
    std::vector<double> write_s, read_s;
    for (int r = 0; r < 3; ++r) {
      sip::DiskStore store(dir, "probe" + std::to_string(r), doubles,
                           kBlocks, /*cold_io=*/true);
      double t0 = wall_seconds();
      for (int b = 0; b < kBlocks; ++b) {
        store.write_deferred(b, data.data(), doubles);
      }
      store.after_batch();
      store.flush_map();
      write_s.push_back(wall_seconds() - t0);
      t0 = wall_seconds();
      for (int b = 0; b < kBlocks; ++b) store.read(b, back.data(), doubles);
      read_s.push_back(wall_seconds() - t0);
      g_sink = g_sink + back[0];
    }
    fs::remove_all(dir);
    const double mb = kBlocks * static_cast<double>(doubles) * 8.0 / 1e6;
    (*out)["io.disk_write_mbs"].value = mb / median(write_s);
    (*out)["io.disk_read_mbs"].value = mb / median(read_s);
  }
}

void profile_metrics(const sip::RunResult& result, const std::string& source,
                     int workers, double run_s, Metrics* out) {
  Metrics& m = *out;
  const sip::ProfileReport& p = result.profile;
  auto set = [&](const char* name, double value) { m[name].value = value; };

  // Master-side and fabric-side counters: every transport reports them.
  set("sip.imbalance_pct", p.scheduling.imbalance_percent());
  set("sip.steals_granted", static_cast<double>(p.scheduling.steals_granted));
  set("msg.messages", static_cast<double>(result.traffic.messages_sent));
  set("msg.payload_mb",
      static_cast<double>(result.traffic.payload_doubles_sent) * 8.0 / 1e6);
  set("msg.serialized_mb",
      static_cast<double>(result.traffic.serialized_doubles) * 8.0 / 1e6);
  const sip::ProfileReport::ServedPipeline& s = p.served;
  set("io.disk_reads", static_cast<double>(s.server_disk_reads));
  set("io.disk_writes", static_cast<double>(s.server_disk_writes));
  set("io.reads_coalesced", static_cast<double>(s.reads_coalesced));
  set("io.write_batches", static_cast<double>(s.write_batches));
  const std::int64_t server_requests =
      s.server_requests + s.server_lookahead_requests;
  if (server_requests > 0) {
    set("io.server_hit_rate", static_cast<double>(s.server_cache_hits) /
                                  static_cast<double>(server_requests));
  } else {
    m["io.server_hit_rate"] = {std::nullopt, "no served-array requests"};
  }
  if (s.client_lookahead_issued > 0) {
    set("io.lookahead_hit_frac",
        1.0 - static_cast<double>(s.client_lookahead_misses) /
                  static_cast<double>(s.client_lookahead_issued));
  } else {
    m["io.lookahead_hit_frac"] = {std::nullopt, "no look-ahead requests"};
  }

  // Worker-side profile: absent when the transport does not ship it.
  static const char* const kWorkerSide[] = {
      "sip.busy_s",          "sip.instructions",      "sip.wait_s.block",
      "sip.wait_s.served",   "sip.wait_s.chunk",      "sip.wait_s.barrier",
      "sip.wait_s.collective", "sip.wait_frac",       "sip.unattributed_frac",
      "executor.pool_busy_s", "executor.drain_wait_s", "executor.hazard_stalls",
      "blas.contract_s",     "chem.integrals_s",      "block.heap_fallbacks",
      "block.peak_local_mb", "msg.puts_coalesced"};
  if (p.lines.empty()) {
    for (const char* name : kWorkerSide) {
      m[name] = {std::nullopt, "this transport ships no worker profile"};
    }
    return;
  }

  std::vector<std::string> lines;
  {
    std::istringstream in(source);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  auto text_of = [&](int line) -> const std::string& {
    static const std::string kNone;
    return line >= 1 && line <= static_cast<int>(lines.size())
               ? lines[static_cast<std::size_t>(line - 1)]
               : kNone;
  };
  double instructions = 0.0, contract_s = 0.0, integrals_s = 0.0;
  for (const sip::ProfileReport::LineCost& cost : p.lines) {
    instructions += static_cast<double>(cost.count);
    const std::string& text = text_of(cost.line);
    const bool contraction =
        cost.opcode == "block_dot" ||
        (cost.opcode == "block_binary" &&
         text.find('*') != std::string::npos);
    if (contraction) contract_s += cost.seconds;
    if (cost.opcode == "execute" &&
        text.find("execute compute_") != std::string::npos) {
      integrals_s += cost.seconds;
    }
  }
  set("sip.busy_s", p.total_busy);
  set("sip.instructions", instructions);
  set("sip.wait_s.block", p.block_wait);
  set("sip.wait_s.served", p.served_wait);
  set("sip.wait_s.chunk", p.chunk_wait);
  set("sip.wait_s.barrier", p.barrier_wait);
  set("sip.wait_s.collective", p.collective_wait);
  set("sip.wait_frac", p.wait_percent() / 100.0);
  set("sip.unattributed_frac",
      1.0 - (p.total_busy + p.total_wait) / (workers * run_s));
  set("executor.pool_busy_s", p.executor.thread_busy_seconds);
  set("executor.drain_wait_s", p.executor.drain_wait_seconds);
  set("executor.hazard_stalls", static_cast<double>(p.executor.hazard_stalls));
  set("blas.contract_s", contract_s);
  set("chem.integrals_s", integrals_s);
  set("block.heap_fallbacks",
      static_cast<double>(result.workers.pool_heap_fallbacks));
  set("block.peak_local_mb",
      static_cast<double>(result.workers.peak_local_doubles) * 8.0 / 1e6);
  set("msg.puts_coalesced",
      static_cast<double>(result.workers.puts_coalesced +
                          result.workers.prepares_coalesced));
}

std::string attribution_line(const Metrics& metrics, int workers,
                             double run_s) {
  auto get = [&](const char* name) {
    auto it = metrics.find(name);
    return it != metrics.end() && it->second.value ? *it->second.value : 0.0;
  };
  const double total = workers * run_s;
  const double busy = get("sip.busy_s");
  const double kernel = get("blas.contract_s");
  const double integrals = get("chem.integrals_s");
  std::ostringstream line;
  char buf[128];
  auto part = [&](const char* label, double seconds) {
    std::snprintf(buf, sizeof buf, "%s %.4f s (%.1f%%)", label, seconds,
                  100.0 * seconds / total);
    line << buf;
  };
  std::snprintf(buf, sizeof buf, "%d workers x %.4f s = %.4f s: ", workers,
                run_s, total);
  line << buf;
  part("busy", busy);
  line << " [";
  part("kernel", kernel);
  line << ", ";
  part("integrals", integrals);
  line << ", ";
  part("other", busy - kernel - integrals);
  line << "; all three include window ";
  part("drain", get("executor.drain_wait_s"));
  line << "], ";
  const char* const kWaits[] = {"block", "served", "chunk", "barrier",
                                "collective"};
  double wait = 0.0;
  for (const char* kind : kWaits) {
    wait += get((std::string("sip.wait_s.") + kind).c_str());
  }
  part("wait", wait);
  line << " [";
  for (const char* kind : kWaits) {
    part(kind, get((std::string("sip.wait_s.") + kind).c_str()));
    line << (kind == kWaits[4] ? "" : ", ");
  }
  std::snprintf(buf, sizeof buf,
                "], unattributed %.1f%%; pool threads busy %.4f s alongside",
                100.0 * get("sip.unattributed_frac"),
                get("executor.pool_busy_s"));
  line << buf;
  return line.str();
}

}  // namespace sipbench
