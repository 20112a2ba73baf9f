// RankReport: the one path end-of-run counters take from every rank to
// the RunResult. Covers the wire codec (exact round trip, and rejection
// of every truncation and bad kind/count header with an Error rather
// than a crash or an out-of-bounds read) and the merge (sum fields sum,
// max fields take the max, a retired server incarnation merges as one
// more report, and reports that do not fit the program are rejected).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>

#include "common/config.hpp"
#include "common/error.hpp"
#include "msg/tags.hpp"
#include "sial/compiler.hpp"
#include "sip/rank_report.hpp"

namespace sia::sip {
namespace {

// Sets every field a field list reaches to a distinct value; maps and
// vectors get two entries each.
struct Filler {
  std::int64_t next = 1;

  template <class T>
  void operator()(T& value) {
    if constexpr (fields::Listed<T>) {
      T::fields([this](const char*, Fold, auto& f) { (*this)(f); }, value);
    } else if constexpr (fields::kIsMap<T>) {
      for (int i = 0; i < 2; ++i) (*this)(value[static_cast<int>(next++)]);
    } else if constexpr (fields::kIsVector<T>) {
      value.resize(2);
      for (auto& item : value) (*this)(item);
    } else if constexpr (std::is_floating_point_v<T>) {
      value = static_cast<double>(next++) + 0.25;
    } else {
      value = static_cast<T>(next++);
    }
  }
};

RankReport filled_report() {
  RankReport report;
  report.kind = RankReport::Kind::kServer;
  report.rank = 3;
  report.scalars = {1.5, -2.25, 1e300};
  Filler{}(report);
  return report;
}

TEST(RankReportCodecTest, RoundTripIsExact) {
  const RankReport report = filled_report();
  const std::string dump = report.to_string();

  // The filler reached every field: no two leaves share a value.
  std::set<std::string> values;
  int leaves = 0;
  std::istringstream lines(dump);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("kind=", 0) == 0 || line.rfind("rank=", 0) == 0 ||
        line.rfind("scalars", 0) == 0) {
      continue;
    }
    ++leaves;
    values.insert(line.substr(line.find('=') + 1));
  }
  EXPECT_GT(leaves, 100);
  EXPECT_EQ(static_cast<int>(values.size()), leaves);

  const msg::Message wire = report.encode();
  EXPECT_EQ(wire.tag, msg::kResultReport);
  EXPECT_EQ(wire.src, 3);
  const RankReport back = RankReport::decode(wire);
  EXPECT_EQ(back.to_string(), dump);
  EXPECT_EQ(back.kind, RankReport::Kind::kServer);
  EXPECT_EQ(back.rank, 3);
  EXPECT_EQ(back.scalars, report.scalars);
  EXPECT_EQ(back.traffic.peer_down_drops, report.traffic.peer_down_drops);
  EXPECT_EQ(back.server.evictions_screened, report.server.evictions_screened);
  EXPECT_EQ(back.pool.peak_in_use_doubles, report.pool.peak_in_use_doubles);
  EXPECT_EQ(back.executor.thread_busy_seconds,
            report.executor.thread_busy_seconds);
  EXPECT_EQ(back.master.worker_iterations, report.master.worker_iterations);
  EXPECT_EQ(back.profile.instructions().size(), 2u);
}

TEST(RankReportCodecTest, EveryTruncationIsRejected) {
  const msg::Message wire = filled_report().encode();
  for (std::size_t n = 0; n < wire.header.size(); ++n) {
    msg::Message cut = wire;
    cut.header.resize(n);
    EXPECT_THROW(RankReport::decode(cut), Error) << "header cut at " << n;
  }
  msg::Message longer = wire;
  longer.header.push_back(0);
  EXPECT_THROW(RankReport::decode(longer), Error);
  longer = wire;
  longer.data.push_back(0.0);
  EXPECT_THROW(RankReport::decode(longer), Error);
}

TEST(RankReportCodecTest, BadKindAndCountHeadersAreRejected) {
  const RankReport report = filled_report();
  const msg::Message wire = report.encode();
  for (const std::int64_t kind : {std::int64_t{-1}, std::int64_t{3},
                                  std::numeric_limits<std::int64_t>::max()}) {
    msg::Message bad = wire;
    bad.header[0] = kind;
    EXPECT_THROW(RankReport::decode(bad), Error) << "kind " << kind;
  }
  // Layout: [kind, rank, #scalars, scalars x 3, #lines, (pc, count,
  // seconds) x #lines, #pardos, ...].
  const std::size_t line_count = 6;
  const std::size_t pardo_count =
      line_count + 1 + 3 * report.profile.instructions().size();
  ASSERT_EQ(wire.header[2], 3);
  ASSERT_EQ(wire.header[line_count], 2);
  ASSERT_EQ(wire.header[pardo_count], 2);
  const std::int64_t words = static_cast<std::int64_t>(wire.header.size());
  for (const std::size_t at : {std::size_t{2}, line_count, pardo_count}) {
    for (const std::int64_t count :
         {std::int64_t{-1}, words, std::numeric_limits<std::int64_t>::max(),
          std::numeric_limits<std::int64_t>::min()}) {
      msg::Message bad = wire;
      bad.header[at] = count;
      EXPECT_THROW(RankReport::decode(bad), Error)
          << "count " << count << " at header word " << at;
    }
  }
  // Any other corrupted header word either decodes or throws Error:
  // never a crash or an out-of-bounds read (the asan tree checks that).
  for (std::size_t at = 0; at < wire.header.size(); ++at) {
    for (const std::int64_t value :
         {std::int64_t{-1}, std::int64_t{1} << 40,
          std::numeric_limits<std::int64_t>::min()}) {
      msg::Message bad = wire;
      bad.header[at] = value;
      try {
        RankReport::decode(bad);
      } catch (const Error&) {
      }
    }
  }
}

// ---------------------------------------------------------------------
// Merge.

std::string merge_source() {
  return R"SIAL(
sial merge_probe
aoindex a = 1, n
sparse distributed D(a,a)
temp t(a,a)
scalar total
scalar other
pardo a
  execute fill_coords t(a,a)
  put D(a,a) = t(a,a)
endpardo a
sip_barrier
total = 1.0
endsial
)SIAL";
}

SipConfig merge_config() {
  SipConfig config;
  config.workers = 2;
  config.io_servers = 1;
  config.default_segment = 4;
  config.sparse_threshold = 1e-9;
  config.constants = {{"n", 16}};
  return config;
}

struct RankReportMergeTest : ::testing::Test {
  RankReportMergeTest()
      : resolved(sial::compile_sial(merge_source()), merge_config()) {
    reports.reserve(5);
    RankReport& master = reports.emplace_back();
    master.rank = 0;
    master.master.chunks_served = 4;
    master.master.worker_iterations = {3, 5};
    master.traffic.messages_sent = 100;
    master.traffic.blocks_screened = 6;
    master.chaos.drops = 2;
    master.disk_faults = 1;
    master.kernels_screened = 7;

    RankReport& w0 = reports.emplace_back();
    w0.kind = RankReport::Kind::kWorker;
    w0.rank = 1;
    w0.scalars = {42.0, -1.0};
    w0.profile.record_instruction(0, 0, "", 0.375);
    w0.profile.record_instruction(0, 0, "", 0.375);
    for (int i = 0; i < 3; ++i) w0.profile.record_pardo_iteration(0);
    w0.profile.record_pardo_elapsed(0, 1.0);
    w0.profile.record_wait(0, 0.25, WaitKind::kBlock);
    w0.profile.record_wait(-1, 0.125, WaitKind::kServed);
    w0.profile.record_wait(-1, 0.125, WaitKind::kBarrier);
    w0.profile.record_total(2.0);
    w0.executor.window_peak = 9;
    w0.executor.thread_busy_seconds = {0.5, 0.25};
    w0.threads = 4;
    w0.peak_local_doubles = 100;
    w0.dist.gets_issued = 5;
    w0.dist.coalesce_flushes = 2;
    w0.served.coalesce_flushes = 1;
    w0.dups_dropped = 1;
    w0.resident[0] = 2;

    RankReport& w1 = reports.emplace_back();
    w1.kind = RankReport::Kind::kWorker;
    w1.rank = 2;
    w1.profile.record_instruction(0, 0, "", 0.25);
    w1.profile.record_wait(-1, 0.0625, WaitKind::kBlock);
    w1.profile.record_wait(-1, 0.1875, WaitKind::kChunk);
    w1.profile.record_total(3.0);
    w1.executor.window_peak = 6;
    w1.executor.thread_busy_seconds = {0.125};
    w1.threads = 2;
    w1.peak_local_doubles = 300;
    w1.dist.gets_issued = 7;
    w1.resident[0] = 1;

    RankReport& server = reports.emplace_back();
    server.kind = RankReport::Kind::kServer;
    server.rank = 3;
    server.server.requests = 10;
    server.server.dup_msgs_dropped = 1;
  }

  sial::ResolvedProgram resolved;
  std::vector<RankReport> reports;
};

TEST_F(RankReportMergeTest, SumsSumFieldsAndMaxesMaxFields) {
  RankReport retired;  // a server incarnation replaced by a respawn
  retired.kind = RankReport::Kind::kServer;
  retired.rank = 3;
  retired.server.requests = 4;
  retired.server.disk_reads = 1;
  retired.server.dup_msgs_dropped = 2;
  reports.push_back(retired);

  RunResult result;
  merge_reports(reports, resolved, result);
  const ProfileReport& p = result.profile;

  EXPECT_EQ(result.scalar("total"), 42.0);
  EXPECT_EQ(result.scalar("other"), -1.0);
  EXPECT_EQ(result.traffic.messages_sent, 100);

  // Max fields.
  EXPECT_EQ(p.total_elapsed, 3.0);
  EXPECT_EQ(p.executor.window_peak, 9);
  EXPECT_EQ(p.executor.threads, 4);
  EXPECT_EQ(result.workers.peak_local_doubles, 300u);

  // Sum fields, including the retired incarnation's.
  EXPECT_EQ(p.total_wait, 0.75);
  EXPECT_EQ(p.block_wait, 0.3125);
  EXPECT_EQ(p.executor.thread_busy_seconds, 0.875);
  EXPECT_EQ(result.workers.gets_issued, 12);
  EXPECT_EQ(result.workers.coalesce_flushes, 3);
  EXPECT_EQ(p.served.server_requests, 14);
  EXPECT_EQ(p.served.server_disk_reads, 1);
  EXPECT_EQ(p.robustness.dup_msgs_dropped, 4);
  EXPECT_EQ(p.robustness.faults_dropped, 2);
  EXPECT_EQ(p.robustness.faults_disk, 1);
  EXPECT_EQ(p.scheduling.chunks_served, 4);
  EXPECT_EQ(p.scheduling.worker_iterations, (std::vector<std::int64_t>{3, 5}));

  // Per-pc and per-pardo costs, mapped back to the program.
  ASSERT_EQ(p.lines.size(), 1u);
  EXPECT_EQ(p.lines[0].count, 3);
  EXPECT_EQ(p.lines[0].seconds, 1.0);
  EXPECT_EQ(p.lines[0].line, resolved.code().code[0].line);
  EXPECT_EQ(p.total_busy, 1.0 - 0.75);
  ASSERT_EQ(p.pardos.size(), 1u);
  EXPECT_EQ(p.pardos[0].iterations, 3);
  EXPECT_EQ(p.pardos[0].wait, 0.25);
  EXPECT_EQ(p.worker_block_wait, (std::vector<double>{0.375, 0.0625}));

  // Screening: fabric, process and census counters.
  EXPECT_EQ(p.screening.blocks_screened, 6);
  EXPECT_EQ(p.screening.kernels_screened, 7);
  ASSERT_EQ(p.screening.arrays.size(), 1u);
  EXPECT_EQ(p.screening.arrays[0].name, "D");
  EXPECT_EQ(p.screening.arrays[0].total, 16);
  EXPECT_EQ(p.screening.arrays[0].screened, 16 - 3);
}

TEST_F(RankReportMergeTest, AddFoldsByFieldList) {
  RankReport total;
  for (const RankReport& report : reports) fields::fold(total, report);
  EXPECT_EQ(total.profile.total_elapsed(), 3.0);
  EXPECT_EQ(total.profile.total_wait(), 0.75);
  EXPECT_EQ(total.threads, 4);
  EXPECT_EQ(total.executor.window_peak, 9);
  EXPECT_EQ(total.peak_local_doubles, 300u);
  EXPECT_EQ(total.dist.gets_issued, 12);
  EXPECT_EQ(total.profile.instructions().at(0).count, 3);
  EXPECT_EQ(total.executor.thread_busy_seconds,
            (std::vector<double>{0.625, 0.25}));
  EXPECT_EQ(total.resident[0], 3);
}

TEST_F(RankReportMergeTest, ReportsThatDoNotFitAreRejected) {
  RunResult result;
  std::vector<RankReport> bad = reports;
  bad[1].profile.record_instruction(1 << 20, 0, "", 0.0);  // past the end
  EXPECT_THROW(merge_reports(bad, resolved, result), Error);

  bad = reports;
  bad[2].profile.record_pardo_iteration(99);
  EXPECT_THROW(merge_reports(bad, resolved, result), Error);

  bad = reports;
  bad[2].rank = 3;  // a worker report on the server's rank
  EXPECT_THROW(merge_reports(bad, resolved, result), Error);

  bad = reports;
  bad[1].scalars.pop_back();
  EXPECT_THROW(merge_reports(bad, resolved, result), Error);

  bad = reports;
  bad.erase(bad.begin() + 1);  // worker rank 1 never reported
  EXPECT_THROW(merge_reports(bad, resolved, result), RuntimeError);
}

}  // namespace
}  // namespace sia::sip
