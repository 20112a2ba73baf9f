// sial_tool: a command-line front end for the SIAL tool chain.
//
//   sial_tool compile  <file.sial>          parse + check + disassemble
//   sial_tool dryrun   <file.sial> [opts]   master's memory analysis
//   sial_tool run      <file.sial> [opts]   execute on the SIP
//   sial_tool plan     <file.sial> [opts]   print the autotuner's plan,
//                                           predicted time and cost table,
//                                           without running
//   sial_tool model    <file.sial> [opts]   project cluster-scale
//                                           performance (paper sec. VIII)
//
// Options: -w N (workers), -s N (io servers), -g N (segment size),
//          -O0 / -O1 (bytecode optimization level; default -O1),
//          --dump-bytecode[=opt|raw] (annotated listing of the optimized
//          bytecode, or the raw compiler output),
//          -D name=value (symbolic constant; repeatable),
//          --sparse-threshold X (screen sparse-array blocks with
//          Frobenius norm below X; 0 = exact dense execution),
//          --transport thread|loopback|spawn,
//          --no-autotune (run with the configuration exactly as given;
//          `run` otherwise plans at launch — a tuned knob is pinned,
//          never overridden, exactly when its value differs from the
//          SipConfig default, so `-g 8` (the default) pins nothing;
//          SIA_AUTOTUNE=0/1 wins over both)
//
// Each value-taking flag is an alias for one SipConfig field and goes
// through the field list's strict parser, so a malformed value (`-w 3x`)
// or an out-of-range one is a diagnostic naming the field, exit 1.
//
// This is the developer-facing workflow the paper describes: compile the
// SIAL program once, dry-run it to check feasibility, then run it with
// runtime-chosen tuning parameters. Optimizer diagnostics (which barriers
// were dropped, and which barrier already covers each) are rendered to
// stderr with caret snippets against the source.
//
// `run` prints every scalar once the program ends. A scalar that a pardo
// body stores into and that no collective reduces holds only worker 0's
// share of that loop, so it is marked as a worker-0 partial.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chem/integrals.hpp"
#include "common/error.hpp"
#include "common/fields.hpp"
#include "sial/compiler.hpp"
#include "sial/diag.hpp"
#include "sial/disasm.hpp"
#include "sial/opt/optimizer.hpp"
#include "sim/machine.hpp"
#include "sim/program_model.hpp"
#include "sim/report.hpp"
#include "sim/sip_model.hpp"
#include "sip/launch.hpp"
#include "sip/spawn.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw sia::Error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Flags that set one SipConfig field by its list name.
constexpr std::pair<const char*, const char*> kFieldFlags[] = {
    {"-w", "workers"},
    {"-s", "io_servers"},
    {"-g", "default_segment"},
    {"--sparse-threshold", "sparse_threshold"},
    {"--transport", "transport"},
};

// Names of the scalars a pardo body stores into, directly or through a
// called proc, that no collective targets. After a run each holds one
// worker's partial sum of the loop, not a program result.
std::set<std::string> worker_partials(
    const sia::sial::CompiledProgram& program) {
  using sia::sial::Opcode;
  std::set<int> stored;
  std::set<int> reduced;
  std::vector<int> procs;  // called from a pardo body; scanned below
  const auto note_store = [&](const sia::sial::Instruction& instr) {
    if (instr.op == Opcode::kStoreScalar) stored.insert(instr.a0);
    if (instr.op == Opcode::kCall &&
        std::find(procs.begin(), procs.end(), instr.a0) == procs.end()) {
      procs.push_back(instr.a0);
    }
  };
  int pardo_depth = 0;
  for (const sia::sial::Instruction& instr : program.code) {
    if (instr.op == Opcode::kCollective) reduced.insert(instr.a0);
    if (instr.op == Opcode::kPardoStart) ++pardo_depth;
    if (instr.op == Opcode::kPardoEnd) --pardo_depth;
    if (pardo_depth > 0) note_store(instr);
  }
  // A proc body runs from its entry to its single trailing kReturn.
  for (std::size_t p = 0; p < procs.size(); ++p) {
    for (std::size_t pc = static_cast<std::size_t>(
             program.procs[static_cast<std::size_t>(procs[p])].entry_pc);
         program.code[pc].op != Opcode::kReturn; ++pc) {
      note_store(program.code[pc]);
    }
  }
  std::set<std::string> names;
  for (const int slot : stored) {
    if (reduced.count(slot) == 0) {
      names.insert(program.scalars[static_cast<std::size_t>(slot)].name);
    }
  }
  return names;
}

int usage() {
  std::fprintf(stderr,
               "usage: sial_tool {compile|dryrun|run|plan|model} <file.sial> "
               "[-w workers] [-s servers] [-g segment] "
               "[-O0|-O1] [--dump-bytecode[=opt|raw]] "
               "[--sparse-threshold X] [-D name=value]... "
               "[--no-autotune] "
               "[--transport thread|loopback|spawn]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Spawned rank re-exec: this process is a worker or I/O server of a
  // `--transport spawn` run, not a fresh tool invocation.
  if (sia::sip::is_spawn_child(argc, argv)) {
    sia::chem::register_chem_superinstructions();
    return sia::sip::run_spawn_child(argc, argv);
  }
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string path = argv[2];

  sia::SipConfig config;
  config.constants = {{"norb", 8}, {"nocc", 4}, {"maxiter", 2}, {"n", 8}};
  bool dump_bytecode = false;
  bool dump_raw = false;
  bool no_autotune = false;
  try {
    for (int arg = 3; arg < argc; ++arg) {
      const std::string flag = argv[arg];
      const auto alias = std::find_if(
          std::begin(kFieldFlags), std::end(kFieldFlags),
          [&flag](const auto& entry) { return flag == entry.first; });
      if (alias != std::end(kFieldFlags)) {
        if (arg + 1 == argc) return usage();
        sia::fields::parse(config, alias->second, argv[++arg]);
      } else if (flag.starts_with("-O")) {
        sia::fields::parse(config, "opt_level", flag.substr(2));
      } else if (flag == "--dump-bytecode" || flag == "--dump-bytecode=opt") {
        dump_bytecode = true;
      } else if (flag == "--dump-bytecode=raw") {
        dump_bytecode = true;
        dump_raw = true;
      } else if (flag == "--no-autotune") {
        no_autotune = true;
      } else if (flag == "-D") {
        if (arg + 1 == argc) return usage();
        const std::string def = argv[++arg];
        const std::size_t eq = def.find('=');
        if (eq == std::string::npos) return usage();
        sia::fields::parse(config, "constants[" + def.substr(0, eq) + "]",
                           def.substr(eq + 1));
      } else {
        throw sia::Error("unknown option '" + flag + "'");
      }
    }
    config.validate();

    sia::chem::register_chem_superinstructions();
    const std::string source = read_file(path);
    const sia::sial::CompiledProgram program =
        sia::sial::compile_sial(source);

    // The mid-end runs here too so the tool can show its diagnostics and
    // the optimized listing; the launch re-runs it from the same raw
    // program (optimize is deterministic).
    const sia::sial::opt::OptResult opt =
        sia::sial::opt::optimize(program, config.opt_level);
    std::fputs(
        sia::sial::render_diags(opt.diagnostics, source, path).c_str(),
        stderr);

    if (dump_bytecode) {
      std::fputs(dump_raw
                     ? sia::sial::disassemble(program).c_str()
                     : sia::sial::disassemble_annotated(opt.program).c_str(),
                 stdout);
      if (command == "compile") return 0;
    }

    if (command == "compile") {
      std::fputs(sia::sial::disassemble(program).c_str(), stdout);
      return 0;
    }
    if (command == "dryrun") {
      sia::sip::Sip sip(config);
      std::fputs(sip.analyze(program).to_string().c_str(), stdout);
      return 0;
    }
    if (command == "plan") {
      const sia::sip::Sip sip(config);
      const sia::sip::PlanChoice choice = sip.plan(program);
      std::printf("plan: %s\n", choice.summary.c_str());
      std::printf("predicted %.3f s (serial baseline %.3f s), "
                  "%d candidates swept, %s calibration\n",
                  choice.predicted_seconds, choice.baseline_seconds,
                  choice.candidates, choice.calibrated ? "host" : "cold");
      std::printf("cost table (%s transport):\n", config.transport.c_str());
      for (std::size_t c = 0; c < sia::sim::kCostClassCount; ++c) {
        std::printf("  %-12s %10.3g s fixed %10.3g s per unit\n",
                    sia::sim::kCostClassNames[c],
                    choice.costs.classes[c].fixed_s,
                    choice.costs.classes[c].per_unit_s);
      }
      if (!choice.pinned.empty()) {
        std::printf("pinned by user:");
        for (const std::string& knob : choice.pinned) {
          std::printf(" %s", knob.c_str());
        }
        std::printf("\n");
      }
      return 0;
    }
    if (command == "model") {
      const sia::sial::ResolvedProgram resolved(opt.program, config);
      const sia::sim::WorkloadModel workload =
          sia::sim::model_program(resolved);
      std::printf("derived workload '%s': %.3g total flops, %zu phases\n",
                  workload.name.c_str(), workload.total_flops(),
                  workload.phases.size());
      for (const auto& phase : workload.phases) {
        std::printf("  %-16s %lld tasks x %d sweeps, %.3g flops/task, "
                    "%lld fetches/task\n",
                    phase.name.c_str(),
                    static_cast<long long>(phase.tasks), phase.sweeps,
                    phase.flops_per_task,
                    static_cast<long long>(phase.fetches_per_task));
      }
      const sia::sim::MachineModel machine = sia::sim::cray_xt5();
      std::printf("\nprojected on %s:\n%8s %12s %8s\n",
                  machine.name.c_str(), "cores", "seconds", "wait%");
      for (const long p : {64L, 256L, 1024L, 4096L, 16384L}) {
        const sia::sim::SiaOutcome outcome = sia::sim::simulate_sia(
            machine, workload, p, sia::sim::SimOptions{});
        std::printf("%8ld %12.3f %8.1f\n", p, outcome.seconds,
                    outcome.wait_percent);
      }
      return 0;
    }
    if (command == "run") {
      config.autotune = !no_autotune;
      sia::sip::Sip sip(config);
      // run_source (not run): spawn mode ships the source to children.
      const sia::sip::RunResult result = sip.run_source(source);
      const std::set<std::string> partials = worker_partials(program);
      std::printf("final scalars:\n");
      for (const auto& [name, value] : result.scalars) {
        std::printf("  %-16s = %.12g%s\n", name.c_str(), value,
                    partials.count(name) > 0 ? "  (worker-0 partial)" : "");
      }
      std::printf("\n%s", result.profile.to_string().c_str());
      return 0;
    }
    return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sial_tool: %s\n", error.what());
    return 1;
  }
}
