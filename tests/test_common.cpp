// Unit tests for the common utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/fields.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "sial/compiler.hpp"
#include "sial/opt/optimizer.hpp"
#include "sip/planner.hpp"
#include "sip/spawn.hpp"

namespace sia {
namespace {

TEST(SipConfigTest, DefaultsValidate) {
  SipConfig config;
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.total_ranks(), 1 + config.workers + config.io_servers);
}

TEST(SipConfigTest, RejectsBadWorkerCount) {
  SipConfig config;
  config.workers = 0;
  EXPECT_THROW(config.validate(), Error);
}

TEST(SipConfigTest, RejectsBadSegment) {
  SipConfig config;
  config.default_segment = 0;
  EXPECT_THROW(config.validate(), Error);
}

TEST(SipConfigTest, RejectsBadSegmentOverride) {
  SipConfig config;
  config.segment_overrides["moindex"] = -1;
  EXPECT_THROW(config.validate(), Error);
}

TEST(SipConfigTest, RejectsNegativePrefetch) {
  SipConfig config;
  config.prefetch_depth = -1;
  EXPECT_THROW(config.validate(), Error);
}

TEST(SipConfigTest, SegmentForUsesOverride) {
  SipConfig config;
  config.default_segment = 8;
  config.segment_overrides["moindex"] = 4;
  EXPECT_EQ(config.segment_for("moindex"), 4);
  EXPECT_EQ(config.segment_for("aoindex"), 8);
}

TEST(SipConfigTest, RankLayout) {
  SipConfig config;
  config.workers = 3;
  config.io_servers = 2;
  EXPECT_EQ(config.master_rank(), 0);
  EXPECT_EQ(config.first_worker_rank(), 1);
  EXPECT_EQ(config.first_server_rank(), 4);
  EXPECT_EQ(config.total_ranks(), 6);
}

// Moves every field a config list reaches off its default: numbers to
// distinct values, bools flipped, strings and map entries added.
struct ConfigFiller {
  int next = 1000;

  template <class T>
  void operator()(T& value) {
    if constexpr (fields::Listed<T>) {
      T::fields([this](const char*, Knob, auto& f) { (*this)(f); }, value);
    } else if constexpr (fields::kIsMap<T>) {
      for (int i = 0; i < 2; ++i) {
        typename T::mapped_type item{};
        (*this)(item);
        value.emplace("key" + std::to_string(next++), item);
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      value = "text with spaces, = and [] " + std::to_string(next++);
    } else if constexpr (std::is_same_v<T, bool>) {
      value = !value;
    } else if constexpr (std::is_floating_point_v<T>) {
      value = std::nextafter(next++ / 3.0, 0.0);
    } else {
      value = static_cast<T>(next++);
    }
  }
};

// Walks two configs field by field: doubles compare by bit pattern.
template <class T>
void expect_same_fields(const T& a, const T& b, const std::string& path) {
  if constexpr (fields::Listed<T>) {
    T::fields([&](const char* name, Knob, const auto& x, const auto& y) {
      expect_same_fields(x, y, path + name + ".");
    }, a, b);
  } else if constexpr (std::is_floating_point_v<T>) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
        << path;
  } else {
    EXPECT_EQ(a, b) << path;
  }
}

TEST(SipConfigTest, EveryFieldSurvivesTheBundleExactly) {
  sip::Bundle sent;
  ConfigFiller{}(sent.config);
  // Extremes of each integer type and awkward doubles.
  sent.config.worker_memory_bytes = std::numeric_limits<std::size_t>::max();
  sent.config.fault_plan.seed = std::numeric_limits<std::uint64_t>::max();
  sent.config.min_chunk = std::numeric_limits<long>::min();
  sent.config.heartbeat_ms = std::numeric_limits<int>::min();
  sent.config.fault_plan.drop = 5e-324;
  sent.config.fault_plan.dup = -0.0;
  sent.source = "sial x\nendsial\nsource=3\n";

  // The filler reached every field.
  const SipConfig defaults;
  SipConfig::fields([](const char* name, Knob, const auto& f, const auto& d) {
    EXPECT_NE(f, d) << name;
  }, sent.config, defaults);
  FaultPlan::fields([](const char* name, Knob, const auto& f, const auto& d) {
    EXPECT_NE(std::bit_cast<std::uint64_t>(static_cast<double>(f)),
              std::bit_cast<std::uint64_t>(static_cast<double>(d)))
        << name;
  }, sent.config.fault_plan, defaults.fault_plan);

  const sip::Bundle got = sip::read_bundle(sip::write_bundle(sent));
  expect_same_fields(got.config, sent.config, "");
  EXPECT_EQ(got.source, sent.source);
}

TEST(SipConfigTest, BundleParserRejectsMalformedText) {
  const auto reject = [](const std::string& text) {
    EXPECT_THROW(sip::read_bundle(text), Error) << text;
  };
  EXPECT_NO_THROW(sip::read_bundle("workers=3\nsource=0\n"));
  reject("bogus=1\nsource=0\n");                  // unknown key
  reject("fault_plan.bogus=1\nsource=0\n");
  reject("workers=3x\nsource=0\n");               // trailing garbage
  reject("workers=\nsource=0\n");
  reject("sparse_threshold=abc\nsource=0\n");     // not a number
  reject("workers=4294967297\nsource=0\n");       // does not fit an int
  reject("fault_plan.seed=-1\nsource=0\n");       // unsigned
  reject("server_cold_io=2\nsource=0\n");         // bools are 0 or 1
  reject("constants[n]=1.5\nsource=0\n");         // map value type
  reject("workers=3\n");                           // no source section
  reject("workers=3");                              // unterminated line
  // A removed knob is an unknown key, and the error names it.
  for (const std::string removed :
       {"worker_threads", "batch_gets", "coalesce_puts", "work_stealing"}) {
    try {
      sip::read_bundle(removed + "=1\nsource=0\n");
      ADD_FAILURE() << removed << " accepted";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find(removed), std::string::npos)
          << error.what();
    }
  }

  sip::Bundle bundle;
  bundle.source = "sial x\nendsial\n";
  const std::string text = sip::write_bundle(bundle);
  reject(text.substr(0, text.size() - 1));         // truncated source
  reject(text + "x");                              // bytes past the source
}

TEST(SipConfigTest, EveryRangeCheckNamesItsKnob) {
  // Each listed lower or upper bound, one step outside it, throws an
  // Error naming the field.
  const auto probe = [](auto& config) {
    using Config = std::remove_cvref_t<decltype(config)>;
    Config::fields([&config](const char* name, Knob knob, auto& field) {
      using F = std::remove_cvref_t<decltype(field)>;
      for (const double bound : {knob.min - 1, knob.max + 1}) {
        if (!std::isfinite(bound)) continue;
        const F saved = field;
        if constexpr (fields::kIsMap<F>) {
          using V = typename F::mapped_type;
          if constexpr (std::is_arithmetic_v<V>) {
            field["probe"] = static_cast<V>(bound);
          }
        } else if constexpr (std::is_arithmetic_v<F>) {
          field = static_cast<F>(bound);
        }
        try {
          config.validate();
          ADD_FAILURE() << name << " = " << bound << " validated";
        } catch (const Error& error) {
          EXPECT_NE(std::string(error.what()).find(name), std::string::npos)
              << error.what();
        }
        field = saved;
      }
    }, config);
  };
  SipConfig config;
  probe(config);
  FaultPlan plan;
  probe(plan);

  config.sparse_threshold = std::nan("");
  EXPECT_THROW(config.validate(), Error);
}

TEST(SipConfigTest, PinnedIsExactlyTheTunedKnobsMovedOffDefault) {
  // Distributed and served traffic, so every planner dimension (the
  // server sizing heuristics included) is in play.
  const sial::CompiledProgram program = sial::opt::optimize(
      sial::compile_sial(R"(
sial pin_probe
moindex i = 1, n
moindex j = 1, n
distributed a(i,j)
served s(i,j)
temp t(i,j)
pardo i, j
  execute fill_coords t(i,j)
  put a(i,j) = t(i,j)
  prepare s(i,j) = t(i,j)
endpardo i, j
sip_barrier
server_barrier
endsial
)"), 1).program;
  using Knobs = std::vector<std::string>;
  const auto plan = [&](const SipConfig& config) {
    return sip::plan_launch(program, config, sip::Calibration{},
                            sip::HostModel{4});
  };
  const auto pinned = [&](const SipConfig& config) {
    Knobs knobs = plan(config).pinned;
    std::sort(knobs.begin(), knobs.end());
    return knobs;
  };

  SipConfig base;
  base.constants["n"] = 16;
  // Untuned knobs moved, a tuned one restated at its default.
  SipConfig untuned = base;
  untuned.workers = 3;
  untuned.io_servers = 2;
  untuned.opt_level = 0;
  untuned.server_cold_io = true;
  untuned.default_segment = SipConfig{}.default_segment;
  EXPECT_EQ(pinned(untuned), Knobs{});

  // Knobs the planner does not tune pin nothing; a segment override
  // pins the segment dimension.
  SipConfig mixed = base;
  mixed.segment_overrides["moindex"] = 4;
  mixed.opt_level = 0;
  mixed.min_chunk = 4;
  mixed.prefetch_depth = 0;
  mixed.chunk_divisor = 3;
  EXPECT_EQ(pinned(mixed), Knobs{"segment"});

  // Each tuned field alone pins exactly its dimension, and the plan
  // hands it back unchanged.
  SipConfig::fields([&](const char* name, Knob knob, auto& field) {
    using F = std::remove_cvref_t<decltype(field)>;
    if (knob.tuned == nullptr) return;
    const F saved = field;
    if constexpr (std::is_same_v<F, std::map<std::string, int>>) {
      field.emplace("moindex", 4);
    } else if constexpr (std::is_same_v<F, bool>) {
      field = !field;
    } else if constexpr (std::is_arithmetic_v<F>) {
      field = field + 3;
    }
    const sip::PlanChoice choice = plan(base);
    EXPECT_EQ(choice.pinned, Knobs{knob.tuned}) << name;
    SipConfig::fields([&](const char* n, Knob, const auto& planned,
                          const auto& asked) {
      if (std::string(n) == name) {
        EXPECT_EQ(planned, asked) << name;
      }
    }, choice.config, base);
    field = saved;
  }, base);
}

TEST(ErrorTest, CompileErrorCarriesLine) {
  CompileError error("bad token", 42);
  EXPECT_EQ(error.line(), 42);
  EXPECT_NE(std::string(error.what()).find("42"), std::string::npos);
}

TEST(ErrorTest, InfeasibleErrorCarriesWorkerCount) {
  InfeasibleError error("too big", 128);
  EXPECT_EQ(error.workers_needed(), 128);
  EXPECT_NE(std::string(error.what()).find("128"), std::string::npos);
}

TEST(ErrorTest, CheckMacroThrowsInternalError) {
  EXPECT_THROW(SIA_CHECK(false, "should fire"), InternalError);
  EXPECT_NO_THROW(SIA_CHECK(true, "should not fire"));
}

TEST(RngTest, SplitmixIsDeterministic) {
  EXPECT_EQ(splitmix64(12345), splitmix64(12345));
  EXPECT_NE(splitmix64(12345), splitmix64(12346));
}

TEST(RngTest, UnitDoubleInRange) {
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const double x = unit_double(k);
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, HashCombineOrderSensitive) {
  const std::uint64_t a = hash_combine(hash_combine(1, 2), 3);
  const std::uint64_t b = hash_combine(hash_combine(1, 3), 2);
  EXPECT_NE(a, b);
}

TEST(StatsTest, RunningStatsBasics) {
  RunningStats stats;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 4);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 10.0);
  EXPECT_NEAR(stats.stddev(), 1.2909944487, 1e-9);
}

TEST(StatsTest, EmptyStatsAreZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(StatsTest, TablePrinterFormatsRows) {
  std::ostringstream out;
  TablePrinter table(out, {"a", "b"}, {6, 8});
  table.print_header();
  table.print_row({"1", "2.50"});
  const std::string text = out.str();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("2.50"), std::string::npos);
  EXPECT_NE(text.find("------"), std::string::npos);
}

TEST(StatsTest, TablePrinterRejectsWrongCellCount) {
  std::ostringstream out;
  TablePrinter table(out, {"a"}, {4});
  EXPECT_THROW(table.print_row({"1", "2"}), InternalError);
}

TEST(StatsTest, NumFormatsDigits) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

TEST(TimerTest, StopwatchAccumulates) {
  Stopwatch watch;
  watch.start();
  const double dt = watch.stop();
  EXPECT_GE(dt, 0.0);
  EXPECT_EQ(watch.intervals(), 1);
  EXPECT_GE(watch.total(), dt);
}

TEST(TimerTest, ScopedTimerStops) {
  Stopwatch watch;
  { ScopedTimer timer(watch); }
  EXPECT_FALSE(watch.running());
  EXPECT_EQ(watch.intervals(), 1);
}

TEST(TimerTest, WallClockAdvances) {
  const double a = wall_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(wall_seconds(), a);
}

}  // namespace
}  // namespace sia
