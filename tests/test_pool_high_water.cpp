// The dry run's pool plan against real runs: for every shipped program
// at 1-3 workers on the thread transport, the planned slots of each pool
// size class (the bytecode walk's per-class peak, paper §V-B) must cover
// the most slots any worker's pool had live in that class.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <vector>

#include "chem/integrals.hpp"
#include "shipped_programs.hpp"
#include "sip/launch.hpp"

namespace sia::sip {
namespace {

TEST(PoolHighWaterTest, WalkPeakCoversEveryClassOnShippedPrograms) {
  chem::register_chem_superinstructions();
  const std::vector<ShippedProgram> cases = shipped_programs();
  ASSERT_EQ(cases.size(), 13u);
  for (const ShippedProgram& c : cases) {
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
