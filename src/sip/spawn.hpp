// Process ranks: fork/exec'd workers and I/O servers over SocketFabric.
//
// The paper's SIP is an MPI program — master, workers, and I/O servers
// are separate OS processes. `transport=spawn` reproduces that shape:
// the launching process hosts rank 0 (the master) and the socket hub,
// and every worker and I/O-server rank is a child process started with
//   <helper> --sia-child --rank R --bundle <path> [--incarnation K]
// The bundle is every SipConfig field as a `name=value` line, printed
// and parsed by name from the config's field list, plus the SIAL source;
// the hub address rides in socket_address and the launch's scratch
// directory in scratch_dir. The child recompiles the source
// deterministically (same opt_level, same segment plan), connects to the
// hub as a spoke, and runs its rank exactly as the thread-mode launch
// would have.
//
// At the end of the run each child encodes its RankReport (the same
// report thread mode merges in memory, sip/rank_report.hpp) into one
// kResultReport message; a child that aborts first sends a kAbort
// carrying the error text. Both are written over a one-shot connection
// to the hub (msg::connect_socket + raw frames) rather than the child's
// regular fabric, because the abort path stops that fabric — the report
// must not depend on the thing that just died. The master decodes every
// report, validates it, and merges it with its own.
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

#include <string>

#include "common/config.hpp"
#include "msg/message.hpp"
#include "sial/program.hpp"
#include "sip/launch.hpp"

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

// Spawn-mode launch body, called by Sip::run once the program has been
// optimized, resolved, and dry-run-checked. `result` arrives with the
// dry-run report filled in and is returned completed by merging every
// rank's report.
RunResult run_spawned(const SipConfig& config, const std::string& scratch_dir,
                      const std::string& source,
                      const sial::ResolvedProgram& resolved, RunResult result);

}  // namespace sia::sip
