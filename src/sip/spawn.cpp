#include "sip/spawn.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fields.hpp"
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

std::string write_bundle(const Bundle& bundle) {
  std::ostringstream out;
  fields::print(out, "", bundle.config);
  out << "source=" << bundle.source.size() << '\n' << bundle.source;
  return out.str();
}

Bundle read_bundle(const std::string& text) {
  Bundle bundle;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      throw Error("spawn bundle: unterminated line");
    }
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw Error("spawn bundle: expected key=value, got '" +
                  std::string(line) + "'");
    }
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    if (key == "source") {  // always last; the raw source follows
      std::size_t bytes = 0;
      fields::parse_value(bytes, key, value);
      if (bytes != text.size() - pos) {
        throw Error("spawn bundle: source section is " +
                    std::to_string(text.size() - pos) + " bytes, expected " +
                    std::to_string(bytes));
      }
      bundle.source = text.substr(pos);
      return bundle;
    }
    if (!fields::parse(bundle.config, key, value)) {
      throw Error("spawn bundle: unknown key '" + std::string(key) + "'");
    }
  }
  throw Error("spawn bundle: missing source section");
}

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
    Bundle bundle = read_bundle(text);
    connect = bundle.config.socket_address;
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

    SipShared shared(resolved, config, config.scratch_dir, dry.pool_plan);
    msg::SocketOptions sopts;
    sopts.role = msg::SocketOptions::Role::kSpoke;
    sopts.address = connect;
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

  SipShared shared(resolved, config, scratch_dir, result.dry_run.pool_plan);
  shared.fabric = fabric.get();
  IoServer::clear_ack_journals(shared);

  const std::string bundle_path = scratch_dir + "/spawn.bundle";
  {
    Bundle bundle{config, source};
    bundle.config.socket_address = hub->listen_address();
    bundle.config.scratch_dir = scratch_dir;
    std::ofstream out(bundle_path, std::ios::binary | std::ios::trunc);
    out << write_bundle(bundle);
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
