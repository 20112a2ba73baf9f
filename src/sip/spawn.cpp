#include "sip/spawn.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
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
#include "msg/tags.hpp"
#include "sial/compiler.hpp"
#include "sial/opt/optimizer.hpp"
#include "sip/interpreter.hpp"
#include "sip/io_server.hpp"
#include "sip/master.hpp"
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

LaunchFabric make_fabric(SipShared& shared, int rank) {
  const SipConfig& config = shared.config;
  LaunchFabric out;
  if (config.socket_transport()) {
    msg::SocketOptions sopts;
    sopts.connect_timeout_ms = config.connect_timeout_ms;
    sopts.on_fatal = [&shared](const std::string& what) {
      if (shared.fabric != nullptr) shared.raise_abort(what);
    };
    sopts.rejected_frame_is_fatal = !config.fault_tolerance_enabled();
    if (rank > 0) {
      sopts.role = msg::SocketOptions::Role::kSpoke;
      sopts.address = config.socket_address;
      sopts.local_rank = rank;
    } else if (config.spawn_processes()) {
      sopts.role = msg::SocketOptions::Role::kHub;
      sopts.address = config.socket_address;
      if (sopts.address.empty()) {
        const std::string path = shared.scratch_dir + "/hub.sock";
        // sun_path is ~108 bytes; fall back to loopback TCP for deep
        // scratch paths rather than failing the bind.
        sopts.address =
            path.size() < 90 ? "unix:" + path : "tcp:127.0.0.1:0";
      }
    } else {
      sopts.role = msg::SocketOptions::Role::kLoopback;
    }
    auto socket =
        std::make_unique<msg::SocketFabric>(config.total_ranks(), sopts);
    out.socket = socket.get();
    out.fabric = std::move(socket);
  } else {
    out.fabric = std::make_unique<msg::Fabric>(config.total_ranks());
  }
  if (config.fault_plan.active()) {
    auto chaos = std::make_unique<msg::ChaosFabric>(std::move(out.fabric),
                                                    config.fault_plan);
    if (rank > 0) {
      // A chaos kill in a real process is a real death: SIGKILL, no
      // destructors, no goodbye — the master's watchdog must find out
      // the hard way, exactly as with a crashed MPI rank.
      chaos->set_kill_hook([rank](int dying) {
        if (dying == rank) std::raise(SIGKILL);
      });
    }
    out.fabric = std::move(chaos);
  }
  shared.fabric = out.fabric.get();
  return out;
}

RankReport run_rank(SipShared& shared, int rank) {
  const bool process_counters = shared.config.spawn_processes();
  if (shared.is_worker(rank)) {
    Interpreter worker(shared, rank - 1);
    worker.run();
    return make_rank_report(shared, rank, nullptr, &worker, nullptr,
                            process_counters);
  }
  IoServer server(shared, rank);
  server.run();
  return make_rank_report(shared, rank, nullptr, nullptr, &server,
                          process_counters);
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
    LaunchProcess launch(resolved, config, config.scratch_dir,
                         dry_run(resolved).pool_plan, rank);
    const RankReport report = run_rank(launch.shared, rank);

    const std::string first_error = launch.shared.error();
    std::vector<msg::Message> outgoing;
    if (!first_error.empty()) {
      msg::Message abort = make_abort_message(first_error);
      abort.src = rank;
      outgoing.push_back(std::move(abort));
    }
    outgoing.push_back(report.encode());
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

ChildRanks::ChildRanks(const SipShared& shared, const std::string& source,
                       const std::string& hub_address)
    : helper_(shared.config.spawn_helper.empty() ? "/proc/self/exe"
                                                 : shared.config.spawn_helper),
      bundle_path_(shared.scratch_dir + "/spawn.bundle"),
      pids_(static_cast<std::size_t>(shared.config.total_ranks()), -1) {
  Bundle bundle{shared.config, source};
  bundle.config.socket_address = hub_address;
  bundle.config.scratch_dir = shared.scratch_dir;
  std::ofstream out(bundle_path_, std::ios::binary | std::ios::trunc);
  out << write_bundle(bundle);
  if (!out) throw Error("spawn: cannot write bundle " + bundle_path_);
}

ChildRanks::~ChildRanks() { reap(); }

bool ChildRanks::start(int rank, int incarnation) {
  pid_t& slot = pids_[static_cast<std::size_t>(rank)];
  if (slot > 0) {  // a dead incarnation: collect it if it has exited
    int status = 0;
    retry_eintr([&] { return ::waitpid(slot, &status, WNOHANG); });
  }
  std::vector<std::string> args = {helper_,
                                   "--sia-child",
                                   "--rank",
                                   std::to_string(rank),
                                   "--bundle",
                                   bundle_path_,
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
  if (pid < 0) return false;
  slot = pid;
  return true;
}

void ChildRanks::reap() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    bool pending = false;
    for (pid_t& pid : pids_) {
      if (pid <= 0) continue;
      int status = 0;
      const pid_t r =
          retry_eintr([&] { return ::waitpid(pid, &status, WNOHANG); });
      if (r == pid || (r < 0 && errno == ECHILD)) {
        pid = -1;
      } else {
        pending = true;
      }
    }
    if (!pending || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (pid_t& pid : pids_) {
    if (pid <= 0) continue;
    ::kill(pid, SIGKILL);
    int status = 0;
    retry_eintr([&] { return ::waitpid(pid, &status, 0); });
    pid = -1;
  }
}

}  // namespace sia::sip
