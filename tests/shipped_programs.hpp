// The shipped SIAL programs (the chemistry library's sources and the
// files in programs/), each at a small configuration that runs in
// milliseconds on the thread transport.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chem/programs.hpp"
#include "common/config.hpp"

#ifndef SIA_PROGRAMS_DIR
#define SIA_PROGRAMS_DIR "programs"
#endif

namespace sia::sip {

inline std::string read_program(const std::string& name) {
  std::ifstream in(std::string(SIA_PROGRAMS_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct ShippedProgram {
  std::string name;
  std::string source;
  SipConfig config;
  // The walk's pool peak may exceed the run's high water by at most this
  // factor (0: not bounded from above).
  double max_ratio = 0.0;
};

inline SipConfig shipped_config(int segment,
                                std::map<std::string, long> constants) {
  SipConfig config;
  config.io_servers = 0;
  config.default_segment = segment;
  config.constants = std::move(constants);
  return config;
}

inline std::vector<ShippedProgram> shipped_programs() {
  std::vector<ShippedProgram> cases;
  const auto add = [&cases](std::string name, std::string source,
                            SipConfig config, double max_ratio = 0.0) {
    cases.push_back({std::move(name), std::move(source), std::move(config),
                     max_ratio});
  };
  add("contraction_demo", chem::contraction_demo_source(),
      shipped_config(3, {{"norb", 8}, {"nocc", 4}}));
  add("mp2_energy", chem::mp2_energy_source(),
      shipped_config(3, {{"norb", 10}, {"nocc", 3}}));
  add("ccd_energy", chem::ccd_energy_source(),
      shipped_config(4, {{"norb", 16}, {"nocc", 8}, {"maxiter", 2}}), 2.0);
  add("fock_build", chem::fock_build_source(),
      shipped_config(8, {{"norb", 32}}), 2.0);
  add("comm_storm", chem::comm_storm_source(),
      shipped_config(4, {{"norb", 16}}));
  SipConfig io = shipped_config(4, {{"norb", 16}, {"nsweeps", 2},
                                    {"nshared", 8}});
  io.io_servers = 1;
  io.server_cache_bytes = 16 * 16 * sizeof(double) / 4;
  add("io_storm", chem::io_storm_source(), io);
  SipConfig served = shipped_config(3, {{"norb", 10}, {"nocc", 3}});
  served.io_servers = 1;
  add("mp2_served", chem::mp2_served_source(), served);
  SipConfig sparse = shipped_config(4, {{"norb", 16}});
  sparse.sparse_threshold = 1e-6;
  add("sparse_fock", chem::sparse_fock_source(), sparse);
  SipConfig sparse_served = shipped_config(4, {{"norb", 16}, {"nocc", 8}});
  sparse_served.io_servers = 1;
  sparse_served.sparse_threshold = 1e-6;
  add("sparse_mp2", chem::sparse_mp2_source(), sparse_served);
  add("mp2.sial", read_program("mp2.sial"),
      shipped_config(4, {{"norb", 8}, {"nocc", 4}}));
  add("paper_fragment.sial", read_program("paper_fragment.sial"),
      shipped_config(3, {{"norb", 8}, {"nocc", 4}}));
  add("quickstart.sial", read_program("quickstart.sial"),
      shipped_config(4, {{"n", 18}}));
  SipConfig sub = shipped_config(4, {{"n", 10}});
  sub.subsegments_per_segment = 2;
  add("subindex_demo.sial", read_program("subindex_demo.sial"), sub);
  return cases;
}

}  // namespace sia::sip
