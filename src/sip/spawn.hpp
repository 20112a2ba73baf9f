// Rank bodies and process ranks: what the one launch driver (Sip::run,
// sip/launch.cpp) and a spawned child share.
//
// A transport decides only two things: the fabric the ranks talk over
// (make_fabric) and whether ranks 1..N are threads of the launching
// process or fork/exec'd children (ChildRanks). The driver builds
// SipShared and the fabric, starts every worker and I/O-server rank,
// runs the master on its own thread and merges one RankReport per rank.
// Every worker and server rank, thread or process, runs through
// run_rank, and the watchdog's one respawn closure starts a dead server
// rank again the way it started the first time.
//
// `transport=spawn` is the paper's shape, one OS process per rank: the
// launching process hosts rank 0 (the master) and the socket hub, and
// each other rank is a child started with
//   <helper> --sia-child --rank R --bundle <path> [--incarnation K]
// The bundle is every SipConfig field as a `name=value` line, printed
// and parsed by name from the config's field list, then the SIAL source;
// socket_address carries the hub and scratch_dir the launch's scratch
// directory. The child recompiles the source deterministically, builds
// its spoke with make_fabric and runs run_rank. It then sends its
// encoded RankReport as one kResultReport (preceded by a kAbort with the
// error text if it failed) over a one-shot connection to the hub, not
// over its fabric, which the abort path stops. The driver decodes,
// validates and merges the reports.
//
// Binaries that want spawn mode must give this module first refusal on
// argv before doing anything else:
//
//   int main(int argc, char** argv) {
//     if (sia::sip::is_spawn_child(argc, argv))
//       return sia::sip::run_spawn_child(argc, argv);
//     ...
//   }
#pragma once

#include <sys/types.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "msg/message.hpp"
#include "msg/socket_fabric.hpp"
#include "sip/launch.hpp"
#include "sip/rank_report.hpp"
#include "sip/shared.hpp"

namespace sia::sip {

// What a spawned rank rebuilds its half of the launch from.
struct Bundle {
  SipConfig config;
  std::string source;
};

// Every config field as a fields::print line, then `source=<bytes>` and
// the raw source.
std::string write_bundle(const Bundle& bundle);
// Parses write_bundle() output strictly: an unknown key, a value that
// does not fit its field, or a source section of the wrong length throws
// Error.
Bundle read_bundle(const std::string& text);

// kAbort payload codec: the error text packed 8 bytes per double with
// header = [byte_count]. Needs no new wire machinery — it rides the
// existing Message frame codec.
msg::Message make_abort_message(const std::string& text);
std::string abort_text(const msg::Message& message);

// True when argv marks this process as a spawned rank (`--sia-child`).
bool is_spawn_child(int argc, char** argv);

// Runs the spawned rank to completion; returns the process exit code.
// Never throws: failures become a kAbort report to the hub plus a
// nonzero exit.
int run_spawn_child(int argc, char** argv);

// The fabric one OS process of a launch talks over.
struct LaunchFabric {
  // What the ranks use: chaos-decorated when the fault plan is active.
  std::unique_ptr<msg::Fabric> fabric;
  // The socket layer beneath it; null for the in-process fabric.
  msg::SocketFabric* socket = nullptr;
};

// Builds the fabric for the process hosting `rank` from shared.config
// and attaches it to `shared`. Rank 0 is the launching process: the
// zero-copy in-process Fabric (thread), a loopback SocketFabric
// (loopback) or the hub (spawn; listening on socket_address, else a unix
// socket in the scratch directory). A spawned child passes its own rank
// and gets a spoke dialing socket_address. A socket fabric that loses
// its hub raises the launch's abort; a chaos kill of a spoke's own rank
// is a real SIGKILL.
LaunchFabric make_fabric(SipShared& shared, int rank);

// The part of a launch one OS process hosts: the state its ranks share
// and the fabric they talk over (make_fabric for `rank`). The launching
// process passes rank 0; a spawned child passes its own rank.
struct LaunchProcess {
  LaunchProcess(const sial::ResolvedProgram& resolved,
                const SipConfig& config, const std::string& scratch_dir,
                std::map<std::size_t, std::size_t> pool_plan, int rank)
      : shared(resolved, config, scratch_dir, std::move(pool_plan)),
        fabric(make_fabric(shared, rank)) {}

  SipShared shared;
  LaunchFabric fabric;  // destroyed first: its transport threads use shared
};

// Runs worker or I/O-server `rank` to completion and returns its report.
// Thread ranks and spawned children both run through here. In spawn
// mode the report also carries the process-wide counters, since each
// child is its own OS process.
RankReport run_rank(SipShared& shared, int rank);

// The fork/exec'd ranks of one spawn launch. Writes the bundle they
// read at construction and reaps them at destruction.
class ChildRanks {
 public:
  // `hub_address` is the hub's resolved listen address.
  ChildRanks(const SipShared& shared, const std::string& source,
             const std::string& hub_address);
  ~ChildRanks();
  ChildRanks(const ChildRanks&) = delete;
  ChildRanks& operator=(const ChildRanks&) = delete;

  // Forks and execs `rank` (collecting a dead earlier incarnation if it
  // has exited); false when fork fails.
  bool start(int rank, int incarnation);
  // Reaps every child: waitpid polling under a deadline, then SIGKILL
  // for stragglers (an aborted child may be blocked on a fabric that no
  // longer answers).
  void reap();

 private:
  std::string helper_;
  std::string bundle_path_;
  std::vector<pid_t> pids_;  // by rank; -1 for none
};

}  // namespace sia::sip
