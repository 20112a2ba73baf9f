// The dry run's pool plan against real runs: for every shipped program
// at 1-3 workers on the thread transport, the planned slots of each pool
// size class (the bytecode walk's per-class peak, paper §V-B) must cover
// the most slots any worker's pool had live in that class.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "sip/launch.hpp"

#ifndef SIA_PROGRAMS_DIR
#define SIA_PROGRAMS_DIR "programs"
#endif

namespace sia::sip {
namespace {

std::string read_program(const std::string& name) {
  std::ifstream in(std::string(SIA_PROGRAMS_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Case {
  std::string name;
  std::string source;
  SipConfig config;
  // The walk's peak may exceed the high water by at most this factor
  // (0: not bounded from above).
  double max_ratio = 0.0;
};

SipConfig base_config(int segment, std::map<std::string, long> constants) {
  SipConfig config;
  config.io_servers = 0;
  config.default_segment = segment;
  config.constants = std::move(constants);
  return config;
}

std::vector<Case> shipped_programs() {
  std::vector<Case> cases;
  const auto add = [&cases](std::string name, std::string source,
                            SipConfig config, double max_ratio = 0.0) {
    cases.push_back({std::move(name), std::move(source), std::move(config),
                     max_ratio});
  };
  add("contraction_demo", chem::contraction_demo_source(),
      base_config(3, {{"norb", 8}, {"nocc", 4}}));
  add("mp2_energy", chem::mp2_energy_source(),
      base_config(3, {{"norb", 10}, {"nocc", 3}}));
  add("ccd_energy", chem::ccd_energy_source(),
      base_config(4, {{"norb", 16}, {"nocc", 8}, {"maxiter", 2}}), 2.0);
  add("fock_build", chem::fock_build_source(),
      base_config(8, {{"norb", 32}}), 2.0);
  add("comm_storm", chem::comm_storm_source(),
      base_config(4, {{"norb", 16}}));
  SipConfig io = base_config(4, {{"norb", 16}, {"nsweeps", 2},
                                 {"nshared", 8}});
  io.io_servers = 1;
  io.server_cache_bytes = 16 * 16 * sizeof(double) / 4;
  add("io_storm", chem::io_storm_source(), io);
  SipConfig served = base_config(3, {{"norb", 10}, {"nocc", 3}});
  served.io_servers = 1;
  add("mp2_served", chem::mp2_served_source(), served);
  SipConfig sparse = base_config(4, {{"norb", 16}});
  sparse.sparse_threshold = 1e-6;
  add("sparse_fock", chem::sparse_fock_source(), sparse);
  SipConfig sparse_served = base_config(4, {{"norb", 16}, {"nocc", 8}});
  sparse_served.io_servers = 1;
  sparse_served.sparse_threshold = 1e-6;
  add("sparse_mp2", chem::sparse_mp2_source(), sparse_served);
  add("mp2.sial", read_program("mp2.sial"),
      base_config(4, {{"norb", 8}, {"nocc", 4}}));
  add("paper_fragment.sial", read_program("paper_fragment.sial"),
      base_config(3, {{"norb", 8}, {"nocc", 4}}));
  add("quickstart.sial", read_program("quickstart.sial"),
      base_config(4, {{"n", 18}}));
  SipConfig sub = base_config(4, {{"n", 10}});
  sub.subsegments_per_segment = 2;
  add("subindex_demo.sial", read_program("subindex_demo.sial"), sub);
  return cases;
}

TEST(PoolHighWaterTest, WalkPeakCoversEveryClassOnShippedPrograms) {
  chem::register_chem_superinstructions();
  const std::vector<Case> cases = shipped_programs();
  ASSERT_EQ(cases.size(), 13u);
  for (const Case& c : cases) {
    for (int workers = 1; workers <= 3; ++workers) {
      SipConfig config = c.config;
      config.workers = workers;
      config.transport = "thread";
      Sip sip(config);
      const RunResult result = sip.run_source(c.source);
      const std::map<std::size_t, std::size_t>& plan =
          result.dry_run.pool_plan;
      for (const auto& [capacity, high_water] :
           result.workers.pool_class_high_water) {
        const auto planned = plan.find(capacity);
        ASSERT_NE(planned, plan.end()) << c.name << " class " << capacity;
        const double ratio =
            high_water > 0 ? static_cast<double>(planned->second) /
                                 static_cast<double>(high_water)
                           : 0.0;
        std::printf("%-20s w=%d class %6zu: planned %4zu high water %4zu "
                    "ratio %.2f\n",
                    c.name.c_str(), workers, capacity, planned->second,
                    high_water, ratio);
        EXPECT_GE(planned->second, high_water)
            << c.name << " workers=" << workers << " class " << capacity;
        if (c.max_ratio > 0.0 && high_water > 0) {
          EXPECT_LE(ratio, c.max_ratio)
              << c.name << " workers=" << workers << " class " << capacity;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sia::sip
