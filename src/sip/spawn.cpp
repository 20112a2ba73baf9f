#include "sip/spawn.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/posix_io.hpp"
#include "msg/chaos.hpp"
#include "msg/frame.hpp"
#include "msg/socket_fabric.hpp"
#include "msg/tags.hpp"
#include "sial/compiler.hpp"
#include "sial/opt/optimizer.hpp"
#include "sip/interpreter.hpp"
#include "sip/io_server.hpp"
#include "sip/master.hpp"
#include "sip/rank_report.hpp"
#include "sip/shared.hpp"
#include "sip/superinstr.hpp"

namespace sia::sip {

namespace {

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ---------------------------------------------------------------------
// Bundle: the key=value config + SIAL source a child rebuilds its half
// of the launch from. The `source=<bytes>` line is last; the raw source
// follows it unescaped.

struct Bundle {
  SipConfig config;
  std::string connect;  // hub address for the spoke fabric
  std::string source;
};

void append_kv(std::string& out, const std::string& key,
               const std::string& value) {
  out += key;
  out += '=';
  out += value;
  out += '\n';
}

std::string serialize_bundle(const SipConfig& c, const std::string& connect,
                             const std::string& scratch_dir,
                             const std::string& source) {
  std::string out;
  const auto num = [&out](const char* key, long long value) {
    append_kv(out, key, std::to_string(value));
  };
  num("workers", c.workers);
  num("io_servers", c.io_servers);
  num("default_segment", c.default_segment);
  num("subsegments_per_segment", c.subsegments_per_segment);
  num("worker_memory_bytes", static_cast<long long>(c.worker_memory_bytes));
  num("server_cache_bytes", static_cast<long long>(c.server_cache_bytes));
  num("opt_level", c.opt_level);
  num("prefetch_depth", c.prefetch_depth);
  num("worker_threads", c.worker_threads);
  num("window_limit", c.window_limit);
  num("server_disk_threads", c.server_disk_threads);
  num("server_cold_io", c.server_cold_io ? 1 : 0);
  append_kv(out, "sparse_threshold", format_double(c.sparse_threshold));
  num("coalesce_puts", c.coalesce_puts ? 1 : 0);
  num("batch_gets", c.batch_gets ? 1 : 0);
  num("chunk_divisor", c.chunk_divisor);
  num("min_chunk", c.min_chunk);
  num("work_stealing", c.work_stealing ? 1 : 0);
  num("profiling", c.profiling ? 1 : 0);
  num("reliable_protocol", c.reliable_protocol ? 1 : 0);
  num("retry_timeout_ms", c.retry_timeout_ms);
  num("retry_max", c.retry_max);
  num("heartbeat_ms", c.heartbeat_ms);
  num("heartbeat_misses", c.heartbeat_misses);
  num("server_recovery", c.server_recovery ? 1 : 0);
  num("connect_timeout_ms", c.connect_timeout_ms);
  append_kv(out, "fault.drop", format_double(c.fault_plan.drop));
  append_kv(out, "fault.dup", format_double(c.fault_plan.dup));
  append_kv(out, "fault.reorder", format_double(c.fault_plan.reorder));
  num("fault.delay_ms", c.fault_plan.delay_ms);
  num("fault.delay_jitter_ms", c.fault_plan.delay_jitter_ms);
  num("fault.kill_rank", c.fault_plan.kill_rank);
  num("fault.kill_at_msg", c.fault_plan.kill_at_msg);
  num("fault.disk_fault", c.fault_plan.disk_fault);
  num("fault.disk_fault_at_op", c.fault_plan.disk_fault_at_op);
  num("fault.seed", static_cast<long long>(c.fault_plan.seed));
  append_kv(out, "scratch_dir", scratch_dir);
  for (const auto& [type, seg] : c.segment_overrides) {
    append_kv(out, "segment." + type, std::to_string(seg));
  }
  for (const auto& [name, value] : c.constants) {
    append_kv(out, "constant." + name, std::to_string(value));
  }
  for (const auto& [array, generator] : c.computed_served) {
    append_kv(out, "computed." + array, generator);
  }
  append_kv(out, "connect", connect);
  append_kv(out, "source", std::to_string(source.size()));
  out += source;
  return out;
}

long long parse_ll(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(value, &used);
    if (used == value.size()) return v;
  } catch (const std::exception&) {
  }
  throw Error("spawn bundle: bad value for '" + key + "': '" + value + "'");
}

double parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used == value.size()) return v;
  } catch (const std::exception&) {
  }
  throw Error("spawn bundle: bad value for '" + key + "': '" + value + "'");
}

Bundle parse_bundle(const std::string& text) {
  Bundle b;
  SipConfig& c = b.config;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      throw Error("spawn bundle: unterminated line");
    }
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw Error("spawn bundle: expected key=value, got '" + line + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "source") {
      const std::size_t bytes =
          static_cast<std::size_t>(parse_ll(key, value));
      if (pos + bytes > text.size()) {
        throw Error("spawn bundle: source truncated");
      }
      b.source = text.substr(pos, bytes);
      return b;  // source is always last
    }
    if (key == "workers") c.workers = static_cast<int>(parse_ll(key, value));
    else if (key == "io_servers") c.io_servers = static_cast<int>(parse_ll(key, value));
    else if (key == "default_segment") c.default_segment = static_cast<int>(parse_ll(key, value));
    else if (key == "subsegments_per_segment") c.subsegments_per_segment = static_cast<int>(parse_ll(key, value));
    else if (key == "worker_memory_bytes") c.worker_memory_bytes = static_cast<std::size_t>(parse_ll(key, value));
    else if (key == "server_cache_bytes") c.server_cache_bytes = static_cast<std::size_t>(parse_ll(key, value));
    else if (key == "opt_level") c.opt_level = static_cast<int>(parse_ll(key, value));
    else if (key == "prefetch_depth") c.prefetch_depth = static_cast<int>(parse_ll(key, value));
    else if (key == "worker_threads") c.worker_threads = static_cast<int>(parse_ll(key, value));
    else if (key == "window_limit") c.window_limit = static_cast<int>(parse_ll(key, value));
    else if (key == "server_disk_threads") c.server_disk_threads = static_cast<int>(parse_ll(key, value));
    else if (key == "server_cold_io") c.server_cold_io = parse_ll(key, value) != 0;
    else if (key == "sparse_threshold") c.sparse_threshold = parse_double(key, value);
    else if (key == "coalesce_puts") c.coalesce_puts = parse_ll(key, value) != 0;
    else if (key == "batch_gets") c.batch_gets = parse_ll(key, value) != 0;
    else if (key == "chunk_divisor") c.chunk_divisor = static_cast<int>(parse_ll(key, value));
    else if (key == "min_chunk") c.min_chunk = parse_ll(key, value);
    else if (key == "work_stealing") c.work_stealing = parse_ll(key, value) != 0;
    else if (key == "profiling") c.profiling = parse_ll(key, value) != 0;
    else if (key == "reliable_protocol") c.reliable_protocol = parse_ll(key, value) != 0;
    else if (key == "retry_timeout_ms") c.retry_timeout_ms = static_cast<int>(parse_ll(key, value));
    else if (key == "retry_max") c.retry_max = static_cast<int>(parse_ll(key, value));
    else if (key == "heartbeat_ms") c.heartbeat_ms = static_cast<int>(parse_ll(key, value));
    else if (key == "heartbeat_misses") c.heartbeat_misses = static_cast<int>(parse_ll(key, value));
    else if (key == "server_recovery") c.server_recovery = parse_ll(key, value) != 0;
    else if (key == "connect_timeout_ms") c.connect_timeout_ms = static_cast<int>(parse_ll(key, value));
    else if (key == "fault.drop") c.fault_plan.drop = parse_double(key, value);
    else if (key == "fault.dup") c.fault_plan.dup = parse_double(key, value);
    else if (key == "fault.reorder") c.fault_plan.reorder = parse_double(key, value);
    else if (key == "fault.delay_ms") c.fault_plan.delay_ms = static_cast<int>(parse_ll(key, value));
    else if (key == "fault.delay_jitter_ms") c.fault_plan.delay_jitter_ms = static_cast<int>(parse_ll(key, value));
    else if (key == "fault.kill_rank") c.fault_plan.kill_rank = static_cast<int>(parse_ll(key, value));
    else if (key == "fault.kill_at_msg") c.fault_plan.kill_at_msg = parse_ll(key, value);
    else if (key == "fault.disk_fault") c.fault_plan.disk_fault = static_cast<int>(parse_ll(key, value));
    else if (key == "fault.disk_fault_at_op") c.fault_plan.disk_fault_at_op = parse_ll(key, value);
    else if (key == "fault.seed") c.fault_plan.seed = static_cast<std::uint64_t>(parse_ll(key, value));
    else if (key == "scratch_dir") c.scratch_dir = value;
    else if (key.rfind("segment.", 0) == 0) c.segment_overrides[key.substr(8)] = static_cast<int>(parse_ll(key, value));
    else if (key.rfind("constant.", 0) == 0) c.constants[key.substr(9)] = parse_ll(key, value);
    else if (key.rfind("computed.", 0) == 0) c.computed_served[key.substr(9)] = value;
    else if (key == "connect") b.connect = value;
    else throw Error("spawn bundle: unknown key '" + key + "'");
  }
  throw Error("spawn bundle: missing source section");
}

// Writes the given messages over a fresh one-shot connection to the hub.
// Best effort by design: if the hub is already gone (it stops on abort),
// the report is simply lost — the error that caused the abort reached
// the master through the live fabric before it stopped.
void send_one_shot(const std::string& connect,
                   const std::vector<msg::Message>& messages) {
  msg::SocketAddress addr;
  try {
    addr = msg::SocketAddress::parse(connect);
  } catch (const std::exception&) {
    return;
  }
  const int fd = msg::connect_socket(addr);
  if (fd < 0) return;
  std::vector<std::uint8_t> frame;
  for (const msg::Message& message : messages) {
    frame.clear();
    msg::encode_message_frame(message, /*dst=*/0, frame);
    if (write_full(fd, frame.data(), frame.size()) < 0) break;
  }
  close_quiet(fd);
}

pid_t spawn_rank(const std::string& helper, int rank,
                 const std::string& bundle_path, int incarnation) {
  std::vector<std::string> args = {helper,
                                   "--sia-child",
                                   "--rank",
                                   std::to_string(rank),
                                   "--bundle",
                                   bundle_path,
                                   "--incarnation",
                                   std::to_string(incarnation)};
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed; the watchdog will diagnose the silence
  }
  return pid;
}

// Reaps every live child: polite waitpid polling under a deadline, then
// SIGKILL for stragglers (an aborted child may be blocked on a fabric
// that no longer answers).
void reap_children(std::vector<pid_t>& pids) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    bool pending = false;
    for (pid_t& pid : pids) {
      if (pid <= 0) continue;
      int status = 0;
      const pid_t r = retry_eintr([&] { return ::waitpid(pid, &status, WNOHANG); });
      if (r == pid || (r < 0 && errno == ECHILD)) {
        pid = -1;
      } else {
        pending = true;
      }
    }
    if (!pending || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (pid_t& pid : pids) {
    if (pid <= 0) continue;
    ::kill(pid, SIGKILL);
    int status = 0;
    retry_eintr([&] { return ::waitpid(pid, &status, 0); });
    pid = -1;
  }
}

}  // namespace

msg::Message make_abort_message(const std::string& text) {
  msg::Message message;
  message.tag = msg::kAbort;
  message.header = {static_cast<std::int64_t>(text.size())};
  message.data.resize((text.size() + 7) / 8, 0.0);
  if (!text.empty()) {
    std::memcpy(message.data.data(), text.data(), text.size());
  }
  return message;
}

std::string abort_text(const msg::Message& message) {
  if (message.header.empty()) return "aborted by remote rank";
  const std::size_t bytes = static_cast<std::size_t>(
      std::max<std::int64_t>(0, message.header[0]));
  if (bytes == 0 || bytes > message.data.size() * 8) {
    return "aborted by remote rank";
  }
  std::string text(bytes, '\0');
  std::memcpy(text.data(), message.data.data(), bytes);
  return text;
}

bool is_spawn_child(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sia-child") == 0) return true;
  }
  return false;
}

int run_spawn_child(int argc, char** argv) {
  int rank = -1;
  int incarnation = 0;
  std::string bundle_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rank" && i + 1 < argc) {
      rank = std::atoi(argv[++i]);
    } else if (arg == "--bundle" && i + 1 < argc) {
      bundle_path = argv[++i];
    } else if (arg == "--incarnation" && i + 1 < argc) {
      incarnation = std::atoi(argv[++i]);
    }
  }
  std::string connect;  // known once the bundle parses; used for aborts
  try {
    ignore_sigpipe();
    if (rank < 1 || bundle_path.empty()) {
      throw Error("spawn child: need --rank R and --bundle <path>");
    }
    std::ifstream in(bundle_path, std::ios::binary);
    if (!in) throw Error("spawn child: cannot read bundle " + bundle_path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    Bundle bundle = parse_bundle(text);
    connect = bundle.connect;
    SipConfig config = bundle.config;
    if (incarnation > 0 && config.fault_plan.kill_rank >= 0) {
      // A respawned incarnation must not re-fire the scheduled kill (the
      // thread-mode equivalent is ChaosFabric's one-shot latch, which a
      // fresh process has lost). Clearing the kill may deactivate the
      // whole plan, so pin the reliable protocol on: every other rank
      // still stamps seq/ack and expects durability acks.
      config.fault_plan.kill_rank = -1;
      config.fault_plan.kill_at_msg = 0;
      config.reliable_protocol = true;
    }
    config.validate();
    if (rank >= config.total_ranks()) {
      throw Error("spawn child: rank out of range");
    }
    register_builtin_superinstructions();
    const sial::CompiledProgram program = sial::compile_sial(bundle.source);
    const sial::ResolvedProgram resolved(
        sial::opt::optimize(program, config.opt_level).program, config);
    const DryRunReport dry = dry_run(resolved);

    SipShared shared;
    shared.program = &resolved;
    shared.config = config;
    shared.scratch_dir = config.scratch_dir;
    shared.pool_plan = dry.pool_plan;
    shared.kernels_screened_start = kernels_screened_count();
    shared.init_rank_status(config.total_ranks());
    std::unique_ptr<msg::DiskFaultInjector> disk_injector;
    if (config.fault_plan.disk_fault != 0) {
      disk_injector = std::make_unique<msg::DiskFaultInjector>(config.fault_plan);
      shared.disk_injector = disk_injector.get();
    }

    msg::SocketOptions sopts;
    sopts.role = msg::SocketOptions::Role::kSpoke;
    sopts.address = bundle.connect;
    sopts.local_rank = rank;
    sopts.connect_timeout_ms = config.connect_timeout_ms;
    sopts.on_fatal = [&shared](const std::string& what) {
      if (shared.fabric != nullptr) shared.raise_abort(what);
    };
    std::unique_ptr<msg::Fabric> fabric =
        std::make_unique<msg::SocketFabric>(config.total_ranks(), sopts);
    if (config.fault_plan.active()) {
      auto wrapped = std::make_unique<msg::ChaosFabric>(std::move(fabric),
                                                        config.fault_plan);
      // A chaos kill in a real process is a real death: SIGKILL, no
      // destructors, no goodbye — the master's watchdog must find out
      // the hard way, exactly as with a crashed MPI rank.
      wrapped->set_kill_hook([rank](int dying) {
        if (dying == rank) std::raise(SIGKILL);
      });
      fabric = std::move(wrapped);
    }
    shared.fabric = fabric.get();

    const bool is_worker = shared.is_worker(rank);
    std::unique_ptr<Interpreter> worker;
    std::unique_ptr<IoServer> server;
    if (is_worker) {
      worker = std::make_unique<Interpreter>(shared, rank - 1);
      worker->run();
    } else {
      server = std::make_unique<IoServer>(shared, rank);
      server->run();
    }

    std::string first_error;
    {
      std::lock_guard<std::mutex> lock(shared.error_mutex);
      first_error = shared.first_error;
    }

    // Each process owns its fabric, so every child's report carries its
    // own whole-process counters.
    msg::Message report =
        make_rank_report(shared, rank, nullptr, worker.get(), server.get(),
                         /*process_counters=*/true)
            .encode();
    std::vector<msg::Message> outgoing;
    if (!first_error.empty()) {
      msg::Message abort = make_abort_message(first_error);
      abort.src = rank;
      outgoing.push_back(std::move(abort));
    }
    outgoing.push_back(std::move(report));
    send_one_shot(connect, outgoing);
    return first_error.empty() ? 0 : 1;
  } catch (const std::exception& error) {
    SIA_WARN(rank) << "spawn child failed: " << error.what();
    if (!connect.empty()) {
      msg::Message abort = make_abort_message(
          "rank " + std::to_string(rank) + ": " + error.what());
      abort.src = rank;
      send_one_shot(connect, {std::move(abort)});
    }
    return 1;
  }
}

RunResult run_spawned(const SipConfig& config_in,
                      const std::string& scratch_dir,
                      const std::string& source,
                      const sial::ResolvedProgram& resolved,
                      RunResult result) {
  SipConfig config = config_in;
  // Real processes die for real even without injected faults. Keep the
  // heartbeat watchdog on so a lost child becomes a diagnosed abort
  // instead of a hang (thread mode leaves it off in fault-free runs:
  // a thread cannot vanish without taking the process with it).
  if (config.heartbeat_ms == 0 && !config.fault_tolerance_enabled()) {
    config.heartbeat_ms = SipConfig::kAutoHeartbeatMs;
  }
  const int total = config.total_ranks();

  std::string address = config.socket_address;
  if (address.empty()) {
    const std::string path = scratch_dir + "/hub.sock";
    // sun_path is ~108 bytes; fall back to loopback TCP for deep
    // scratch paths rather than failing the bind.
    address = path.size() < 90 ? "unix:" + path : "tcp:127.0.0.1:0";
  }
  msg::SocketOptions hub_opts;
  hub_opts.role = msg::SocketOptions::Role::kHub;
  hub_opts.address = address;
  hub_opts.connect_timeout_ms = config.connect_timeout_ms;
  auto socket = std::make_unique<msg::SocketFabric>(total, hub_opts);
  msg::SocketFabric* hub = socket.get();
  std::unique_ptr<msg::Fabric> fabric = std::move(socket);
  if (config.fault_plan.active()) {
    fabric =
        std::make_unique<msg::ChaosFabric>(std::move(fabric), config.fault_plan);
  }

  SipShared shared;
  shared.program = &resolved;
  shared.fabric = fabric.get();
  shared.config = config;
  shared.scratch_dir = scratch_dir;
  shared.pool_plan = result.dry_run.pool_plan;
  shared.kernels_screened_start = kernels_screened_count();
  shared.init_rank_status(total);
  IoServer::clear_ack_journals(shared);

  const std::string bundle_path = scratch_dir + "/spawn.bundle";
  {
    std::ofstream out(bundle_path, std::ios::binary | std::ios::trunc);
    out << serialize_bundle(config, hub->listen_address(), scratch_dir,
                            source);
    if (!out) throw Error("spawn: cannot write bundle " + bundle_path);
  }
  const std::string helper =
      config.spawn_helper.empty() ? "/proc/self/exe" : config.spawn_helper;

  std::vector<pid_t> child_pids(static_cast<std::size_t>(total), -1);
  for (int r = 1; r < total; ++r) {
    const pid_t pid = spawn_rank(helper, r, bundle_path, 0);
    if (pid < 0) {
      reap_children(child_pids);
      throw Error("spawn: fork failed for rank " + std::to_string(r) + ": " +
                  std::strerror(errno));
    }
    child_pids[static_cast<std::size_t>(r)] = pid;
  }
  if (!hub->wait_for_peers(config.connect_timeout_ms)) {
    std::string missing;
    for (int r = 1; r < total; ++r) {
      if (!hub->peer_connected(r)) {
        missing += (missing.empty() ? "" : ", ") + std::to_string(r);
      }
    }
    fabric->stop();
    reap_children(child_pids);
    throw RuntimeError("spawn: ranks {" + missing + "} never connected to " +
                       hub->listen_address() + " within " +
                       std::to_string(config.connect_timeout_ms) + " ms");
  }

  Master master(shared);
  if (config.fault_tolerance_enabled() && config.server_recovery) {
    shared.respawn_server = [&](int rank) -> bool {
      if (!shared.is_server(rank)) return false;
      // Drop the dead process's stale connection so the respawned one's
      // hello is not shadowed, clear the darkness, and re-exec.
      hub->disconnect(rank);
      fabric->revive(rank);
      pid_t& slot = child_pids[static_cast<std::size_t>(rank)];
      if (slot > 0) {
        int status = 0;
        retry_eintr([&] { return ::waitpid(slot, &status, WNOHANG); });
      }
      const pid_t pid = spawn_rank(helper, rank, bundle_path, 1);
      if (pid < 0) return false;
      slot = pid;
      return true;
    };
  }
  master.run();  // this thread is rank 0

  std::string first_error;
  {
    std::lock_guard<std::mutex> lock(shared.error_mutex);
    first_error = shared.first_error;
  }

  // Success path: children send their kResultReport over one-shot
  // connections after kShutdown; the hub is still accepting (stop()
  // has not run). On abort the reports are moot — the error already
  // arrived as a kAbort through the live fabric.
  std::vector<RankReport> reports;
  if (first_error.empty()) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    std::set<int> reported;
    while (static_cast<int>(reported.size()) < total - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      bool got = false;
      while (auto m = fabric->try_recv_tag(0, msg::kResultReport)) {
        got = true;
        try {
          RankReport report = RankReport::decode(*m);
          if (report.rank != m->src || !reported.insert(m->src).second) {
            throw Error("unexpected result report");
          }
          reports.push_back(std::move(report));
        } catch (const Error& error) {
          first_error = "spawn: rank " + std::to_string(m->src) + ": " +
                        error.what();
        }
      }
      while (auto m = fabric->try_recv_tag(0, msg::kAbort)) {
        if (first_error.empty()) first_error = abort_text(*m);
      }
      if (!first_error.empty()) break;
      if (!got) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  fabric->stop();
  reap_children(child_pids);
  if (!first_error.empty()) throw RuntimeError(first_error);
  reports.push_back(make_rank_report(shared, 0, &master, nullptr, nullptr,
                                     /*process_counters=*/true));
  merge_reports(reports, resolved, result);
  return result;
}

}  // namespace sia::sip
