// Unit tests for the I/O server internals: the slotted DiskStore with
// deferred presence-map flushing, the batching write-behind lanes, the
// priority disk pool, and the end-to-end request pipeline (paper §V-B:
// blocks "lazily written to disk", all server operations non-blocking).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "block/block_pool.hpp"
#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "common/error.hpp"
#include "msg/tags.hpp"
#include "sial/compiler.hpp"
#include "sip/io_server.hpp"
#include "sip/launch.hpp"
#include "sip/served_array.hpp"

namespace sia::sip {
namespace {

class DiskStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("sia_disk_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(DiskStoreTest, WriteReadRoundTrip) {
  DiskStore store(dir_, "arr", /*slot_doubles=*/8, /*num_blocks=*/10);
  const std::vector<double> data = {1, 2, 3, 4, 5};
  EXPECT_FALSE(store.has(3));
  store.write(3, data.data(), data.size());
  EXPECT_TRUE(store.has(3));
  std::vector<double> back(5, 0.0);
  store.read(3, back.data(), back.size());
  EXPECT_EQ(back, data);
  EXPECT_EQ(store.blocks_written(), 1);
}

TEST_F(DiskStoreTest, SlotsAreIndependent) {
  DiskStore store(dir_, "arr", 4, 5);
  const std::vector<double> a = {1, 1, 1, 1};
  const std::vector<double> b = {2, 2, 2, 2};
  store.write(0, a.data(), 4);
  store.write(4, b.data(), 4);
  std::vector<double> back(4);
  store.read(0, back.data(), 4);
  EXPECT_EQ(back, a);
  store.read(4, back.data(), 4);
  EXPECT_EQ(back, b);
  EXPECT_FALSE(store.has(2));
}

TEST_F(DiskStoreTest, OverwriteReplaces) {
  DiskStore store(dir_, "arr", 4, 2);
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {9, 8, 7, 6};
  store.write(1, a.data(), 4);
  store.write(1, b.data(), 4);
  std::vector<double> back(4);
  store.read(1, back.data(), 4);
  EXPECT_EQ(back, b);
}

TEST_F(DiskStoreTest, ReadOfAbsentBlockThrows) {
  DiskStore store(dir_, "arr", 4, 4);
  std::vector<double> buf(4);
  EXPECT_THROW(store.read(2, buf.data(), 4), RuntimeError);
}

TEST_F(DiskStoreTest, OversizedBlockRejected) {
  DiskStore store(dir_, "arr", 4, 4);
  std::vector<double> big(5, 1.0);
  EXPECT_THROW(store.write(0, big.data(), 5), InternalError);
}

TEST_F(DiskStoreTest, PresenceMapPersistsAcrossReopen) {
  {
    DiskStore store(dir_, "arr", 4, 6);
    const std::vector<double> a = {5, 5, 5, 5};
    store.write(2, a.data(), 4);
  }
  DiskStore reopened(dir_, "arr", 4, 6);
  EXPECT_TRUE(reopened.has(2));
  EXPECT_FALSE(reopened.has(0));
  std::vector<double> back(4);
  reopened.read(2, back.data(), 4);
  EXPECT_EQ(back, (std::vector<double>(4, 5.0)));
}

TEST_F(DiskStoreTest, SeparateArraysSeparateFiles) {
  DiskStore a(dir_, "a", 4, 4);
  DiskStore b(dir_, "b", 4, 4);
  const std::vector<double> data = {1, 2, 3, 4};
  a.write(0, data.data(), 4);
  EXPECT_TRUE(a.has(0));
  EXPECT_FALSE(b.has(0));
}

TEST_F(DiskStoreTest, DeferredMapFlushPersistsAcrossReopen) {
  // Crash-consistency of the batched presence-map path: many deferred
  // writes, one map pwrite, then reopen against the same scratch dir and
  // check that both the presence map and the block contents survived.
  {
    DiskStore store(dir_, "arr", 4, 16);
    std::vector<double> v(4);
    for (int i = 0; i < 10; ++i) {
      std::fill(v.begin(), v.end(), static_cast<double>(i));
      store.write_deferred(i, v.data(), 4);
    }
    EXPECT_TRUE(store.has(7));  // visible in memory before any flush
    store.flush_map();
    EXPECT_EQ(store.map_flushes(), 1);  // one pwrite covers all ten blocks
  }
  DiskStore reopened(dir_, "arr", 4, 16);
  std::vector<double> back(4);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(reopened.has(i)) << "block " << i;
    reopened.read(i, back.data(), 4);
    EXPECT_EQ(back, (std::vector<double>(4, static_cast<double>(i))));
  }
  EXPECT_FALSE(reopened.has(12));
}

TEST_F(DiskStoreTest, DestructorFlushesDeferredMap) {
  {
    DiskStore store(dir_, "arr", 4, 8);
    const std::vector<double> v = {6, 6, 6, 6};
    store.write_deferred(3, v.data(), 4);
    // No explicit flush_map: a clean shutdown must not lose presence.
  }
  DiskStore reopened(dir_, "arr", 4, 8);
  EXPECT_TRUE(reopened.has(3));
  std::vector<double> back(4);
  reopened.read(3, back.data(), 4);
  EXPECT_EQ(back, (std::vector<double>(4, 6.0)));
}

TEST_F(DiskStoreTest, ColdIoRoundTrip) {
  // cold_io adds fdatasync + fadvise on the same data path; semantics
  // must be unchanged.
  DiskStore store(dir_, "arr", 4, 8, /*cold_io=*/true);
  const std::vector<double> v = {1, 2, 3, 4};
  store.write(2, v.data(), 4);
  store.after_batch();
  std::vector<double> back(4);
  store.read(2, back.data(), 4);
  EXPECT_EQ(back, v);
}

TEST_F(DiskStoreTest, EraseAllClearsPresenceOnDisk) {
  {
    DiskStore store(dir_, "arr", 4, 8);
    const std::vector<double> v = {1, 1, 1, 1};
    store.write(1, v.data(), 4);
    store.erase_all();
    EXPECT_FALSE(store.has(1));
  }
  DiskStore reopened(dir_, "arr", 4, 8);
  EXPECT_FALSE(reopened.has(1));
}

// ---------------------------------------------------------------------
// WriteBehind.

BlockPtr block_of(double value, std::size_t count = 4) {
  auto block = std::make_shared<Block>(
      BlockShape(std::vector<int>{static_cast<int>(count)}));
  for (auto& v : block->data()) v = value;
  return block;
}

TEST_F(DiskStoreTest, WriteBehindDrainsToDisk) {
  DiskStore store(dir_, "wb", 4, 8);
  WriteBehind writer;
  writer.enqueue(&store, 0, 1, block_of(3.0));
  writer.enqueue(&store, 0, 2, block_of(4.0));
  writer.drain();
  EXPECT_EQ(writer.writes(), 2);
  EXPECT_TRUE(store.has(1));
  EXPECT_TRUE(store.has(2));
  std::vector<double> back(4);
  store.read(2, back.data(), 4);
  EXPECT_EQ(back, (std::vector<double>(4, 4.0)));
}

TEST_F(DiskStoreTest, WriteBehindLookupSeesQueuedBlock) {
  DiskStore store(dir_, "wb", 4, 8);
  WriteBehind writer;
  BlockPtr block = block_of(7.0);
  writer.enqueue(&store, 0, 5, block);
  // Immediately visible via lookup whether or not written yet.
  BlockPtr seen = writer.lookup(0, 5);
  if (seen) {
    EXPECT_EQ(seen->data()[0], 7.0);
  }
  writer.drain();
  // After the write completes the queue entry is gone, disk has it.
  EXPECT_EQ(writer.lookup(0, 5), nullptr);
  EXPECT_TRUE(store.has(5));
}

TEST_F(DiskStoreTest, WriteBehindNewerVersionWins) {
  DiskStore store(dir_, "wb", 4, 8);
  WriteBehind writer;
  writer.enqueue(&store, 0, 1, block_of(1.0));
  writer.enqueue(&store, 0, 1, block_of(2.0));
  writer.drain();
  std::vector<double> back(4);
  store.read(1, back.data(), 4);
  EXPECT_EQ(back, (std::vector<double>(4, 2.0)));
}

TEST_F(DiskStoreTest, WriteBehindDrainOnEmptyQueueReturns) {
  WriteBehind writer;
  writer.drain();  // must not hang
  EXPECT_EQ(writer.writes(), 0);
}

TEST_F(DiskStoreTest, WriteBehindManyBlocks) {
  DiskStore store(dir_, "wb", 4, 128);
  WriteBehind writer;
  for (int i = 0; i < 128; ++i) {
    writer.enqueue(&store, 0, i, block_of(static_cast<double>(i)));
  }
  writer.drain();
  EXPECT_EQ(writer.writes(), 128);
  std::vector<double> back(4);
  store.read(100, back.data(), 4);
  EXPECT_EQ(back[0], 100.0);
}

TEST_F(DiskStoreTest, WriteBehindBatchesWritesOfOneArray) {
  // pause() lets the whole backlog accumulate, so the lanes must retire
  // it in large per-array batches — far fewer batches (and map flushes)
  // than blocks.
  DiskStore store(dir_, "wb", 4, 64);
  WriteBehind writer(/*lanes=*/2, /*batched=*/true);
  writer.pause();
  for (int i = 0; i < 32; ++i) {
    writer.enqueue(&store, 0, i, block_of(static_cast<double>(i)));
  }
  writer.resume();
  writer.drain();
  EXPECT_EQ(writer.writes(), 32);
  EXPECT_LE(writer.batches(), 4);
  EXPECT_LE(store.map_flushes(), writer.batches());
  std::vector<double> back(4);
  store.read(31, back.data(), 4);
  EXPECT_EQ(back[0], 31.0);
}

TEST_F(DiskStoreTest, LegacyWriterRetiresOneBlockPerBatch) {
  // batched=false reproduces the pre-pipeline policy: one block and one
  // presence-map pwrite per write (the serial baseline of BENCH_io.json).
  DiskStore store(dir_, "wb", 4, 16);
  WriteBehind writer(/*lanes=*/1, /*batched=*/false);
  writer.pause();
  for (int i = 0; i < 8; ++i) {
    writer.enqueue(&store, 0, i, block_of(static_cast<double>(i)));
  }
  writer.resume();
  writer.drain();
  EXPECT_EQ(writer.writes(), 8);
  EXPECT_EQ(writer.batches(), 8);
  EXPECT_EQ(store.map_flushes(), 8);
}

TEST_F(DiskStoreTest, WriteBehindSurfacesWriteErrorsInsteadOfTerminating) {
  // A disk failure on a lane thread (here: a block exceeding its slot,
  // standing in for ENOSPC/short writes) must not escape the thread body
  // — that would std::terminate the process. It is reported through the
  // error handler and rethrown from drain().
  DiskStore store(dir_, "wb", 4, 8);
  std::string reported;
  WriteBehind writer(/*lanes=*/1, /*batched=*/true,
                     [&](const std::string& error) { reported = error; });
  writer.enqueue(&store, 0, 1, block_of(9.0, /*count=*/8));
  EXPECT_THROW(writer.drain(), RuntimeError);
  EXPECT_FALSE(reported.empty());
  EXPECT_FALSE(store.has(1));
}

TEST_F(DiskStoreTest, CancelArrayDropsQueuedWrites) {
  // Regression for the kServedDelete bug: deleting an array must cancel
  // its queued write-behind entries, or a late write resurrects deleted
  // blocks on disk.
  DiskStore a(dir_, "a", 4, 8);
  DiskStore b(dir_, "b", 4, 8);
  WriteBehind writer;
  writer.pause();
  writer.enqueue(&a, 1, 0, block_of(1.0));
  writer.enqueue(&a, 1, 3, block_of(1.5));
  writer.enqueue(&b, 2, 0, block_of(2.0));
  writer.cancel_array(1);
  EXPECT_EQ(writer.lookup(1, 0), nullptr);
  EXPECT_EQ(writer.lookup(1, 3), nullptr);
  writer.resume();
  writer.drain();
  EXPECT_FALSE(a.has(0));  // deleted array was not resurrected on disk
  EXPECT_FALSE(a.has(3));
  EXPECT_TRUE(b.has(0));  // unrelated array unaffected
}

TEST_F(DiskStoreTest, AbandonWaitsForTheBatchOnALane) {
  // A crashed server abandons its stores right after the write-behind
  // queue, discarding unflushed presence bytes. A batch already on a lane
  // must have retired (map flushed, acks journaled) by then, or its acks
  // would outlive the presence of its blocks.
  DiskStore store(dir_, "wb", 4, 8);
  std::mutex mutex;
  std::condition_variable cv;
  bool retiring = false;
  bool release = false;
  WriteBehind writer(/*lanes=*/1, /*batched=*/true, nullptr,
                     [&](const WriteBehind::AckList&) {
                       std::unique_lock<std::mutex> lock(mutex);
                       retiring = true;
                       cv.notify_all();
                       cv.wait(lock, [&] { return release; });
                     });
  writer.enqueue(&store, 0, 1, block_of(1.0), {{1, 7}});
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return retiring; });
  }
  std::atomic<bool> abandoned{false};
  std::thread crash([&] {
    writer.abandon();
    abandoned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(abandoned) << "abandon returned with a batch on a lane";
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  crash.join();
  EXPECT_TRUE(abandoned);
}

// ---------------------------------------------------------------------
// DiskPool priority.

TEST(DiskPoolTest, DemandRunsBeforeReadAhead) {
  DiskPool pool(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::vector<int> order;
  // Occupy the single thread, then queue a read-ahead job followed by a
  // demand job: the demand job must run first once the thread frees up.
  pool.submit({0, 0},
              [&] {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return release; });
              },
              /*low_priority=*/false);
  pool.submit({0, 1},
              [&] {
                std::lock_guard<std::mutex> lock(mutex);
                order.push_back(1);
              },
              /*low_priority=*/true);
  pool.submit({0, 2},
              [&] {
                std::lock_guard<std::mutex> lock(mutex);
                order.push_back(2);
              },
              /*low_priority=*/false);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  pool.drain();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
}

TEST(DiskPoolTest, PromoteUpgradesQueuedReadAhead) {
  DiskPool pool(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::vector<int> order;
  pool.submit({0, 0},
              [&] {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return release; });
              },
              /*low_priority=*/false);
  pool.submit({0, 1},
              [&] {
                std::lock_guard<std::mutex> lock(mutex);
                order.push_back(1);
              },
              /*low_priority=*/true);
  pool.submit({0, 2},
              [&] {
                std::lock_guard<std::mutex> lock(mutex);
                order.push_back(2);
              },
              /*low_priority=*/true);
  // A demand request coalesced onto the queued read-ahead {0,2}: it
  // must now run before the other read-ahead job.
  pool.promote({0, 2});
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  pool.drain();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
}

// ---------------------------------------------------------------------
// End-to-end pipeline: in-flight read coalescing and threaded stress
// (this suite carries the `tsan` label; see tests/CMakeLists.txt).

TEST(ServedPipelineTest, DuplicateColdRequestsCoalesceToOneRead) {
  // Four workers request the same never-cached block of a computed
  // served array whose generator is deliberately slow: the first demand
  // request starts the one generation, the other three must coalesce
  // onto the in-flight entry and share the reply fan-out.
  ServerComputeRegistry::global().register_generator(
      "slow_unit_fill", [](Block& block, std::span<const long>) {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        for (double& v : block.data()) v = 1.0;
      });
  SipConfig config;
  config.workers = 4;
  config.io_servers = 1;
  config.default_segment = 6;
  config.server_disk_threads = 2;
  config.prefetch_depth = 4;
  config.constants = {{"n", 6}};  // one 6-element block
  config.computed_served["V"] = "slow_unit_fill";
  Sip sip(config);
  const RunResult result = sip.run_source(R"(sial test
moindex i = 1, n
served V(i)
temp u(i)
scalar lsum
scalar total
do i
  request V(i)
  u(i) = V(i)
  lsum += u(i) * u(i)
enddo i
total = 0.0
collective total += lsum
endsial
)");
  // Every worker sums the same 6 unit elements.
  EXPECT_DOUBLE_EQ(result.scalar("total"), 4.0 * 6.0);
  EXPECT_EQ(result.profile.served.computed, 1);
  EXPECT_EQ(result.profile.served.reads_coalesced, 3);
}

TEST(ServedPipelineTest, ThreadedStressMatchesSerialBitExact) {
  // io_storm shrunk to test size, threaded pipeline vs the serial
  // engine through an undersized server cache: heavy eviction, disk
  // reads, look-ahead, and shared re-reads — and a bit-identical result.
  const auto run = [](bool pipelined) {
    SipConfig config;
    config.workers = 4;
    config.io_servers = 1;
    config.default_segment = 8;
    config.server_cache_bytes = 8 * 8 * 8 * sizeof(double);  // 8 blocks
    config.server_disk_threads = pipelined ? 4 : 0;
    config.prefetch_depth = pipelined ? 4 : 0;
    config.constants = {{"norb", 96}, {"nsweeps", 2}, {"nshared", 96}};
    Sip sip(config);
    return sip.run_source(chem::io_storm_source());
  };
  chem::register_chem_superinstructions();
  const RunResult threaded = run(true);
  const RunResult serial = run(false);
  EXPECT_DOUBLE_EQ(threaded.scalar("snorm2"), serial.scalar("snorm2"));
  EXPECT_GT(threaded.profile.served.server_lookahead_requests, 0);
  EXPECT_GT(threaded.profile.served.server_disk_reads, 0);
  EXPECT_GT(threaded.profile.served.write_batches, 0);
}

// ---------------------------------------------------------------------
// Lost-update and stale-speculation regressions: a prepare racing with an
// in-flight read of the same block must win on both ends of the protocol.

// Shared fixture bits: a one-block served array program and a fabric of
// {master=0, worker=1, server=2}.
struct ServedProtocolHarness {
  explicit ServedProtocolHarness(SipConfig base, const std::string& dir,
                                 const std::string& array_name) {
    config = std::move(base);
    config.workers = 1;
    config.io_servers = 1;
    config.default_segment = 4;
    config.constants = {{"n", 4}};
    program = std::make_unique<sial::ResolvedProgram>(
        sial::compile_sial("sial test\nmoindex i = 1, n\nserved " +
                           array_name + "(i)\nendsial\n"),
        config);
    fabric = std::make_unique<msg::Fabric>(3);
    shared.program = program.get();
    shared.fabric = fabric.get();
    shared.config = config;
    shared.scratch_dir = dir;
    for (std::size_t i = 0; i < program->arrays().size(); ++i) {
      if (program->arrays()[i].name == array_name) {
        array_id = static_cast<int>(i);
      }
    }
    id = BlockId(array_id, std::vector<int>{1});
    linear = id.linearize(program->array(array_id).num_segments);
  }

  SipConfig config;
  std::unique_ptr<sial::ResolvedProgram> program;
  std::unique_ptr<msg::Fabric> fabric;
  SipShared shared;
  int array_id = -1;
  BlockId id;
  std::int64_t linear = 0;
};

TEST_F(DiskStoreTest, PrepareDuringInflightReadIsNotLost) {
  // A speculative read of block B is in flight (a deliberately slow
  // generation) when a prepare of B lands. The prepared dirty block must
  // survive: the stale completion may neither clobber it in the cache
  // (losing the dirty flag and thus the write at the barrier) nor feed
  // later demand reads.
  ServerComputeRegistry::global().register_generator(
      "slow_seven_fill", [](Block& block, std::span<const long>) {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        for (double& v : block.data()) v = 7.0;
      });
  SipConfig base;
  base.server_disk_threads = 2;
  base.computed_served["V"] = "slow_seven_fill";
  ServedProtocolHarness hx(base, dir_, "V");
  IoServer server(hx.shared, /*my_rank=*/2);
  std::thread server_thread([&] { server.run(); });
  const auto send = [&](msg::Message m) {
    hx.fabric->send(1, 2, std::move(m));
  };

  // Look-ahead request: becomes the slow in-flight generation job.
  {
    msg::Message m;
    m.tag = msg::kServedRequest;
    m.header = {hx.array_id, hx.linear, /*reply_rank=*/1, /*lookahead=*/1};
    send(std::move(m));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Prepare of the same block while the read is (normally) in flight.
  {
    msg::Message m;
    m.tag = msg::kServedPrepare;
    m.header = {hx.array_id, hx.linear, /*writer=*/1};
    m.block = block_of(5.0);
    send(std::move(m));
  }
  // The speculative reply arrives either way (answered from the fresh
  // prepare, or — if the generation won the race — from its result).
  std::optional<msg::Message> speculative = hx.fabric->recv_for(1, 5000);
  ASSERT_TRUE(speculative.has_value());
  ASSERT_GE(speculative->header.size(), 4u);
  EXPECT_EQ(speculative->header[3], 1);  // tagged as look-ahead reply
  // Barrier: waits out the generation job and flushes dirty blocks.
  {
    msg::Message m;
    m.tag = msg::kServerBarrierEnter;
    m.header = {0};
    send(std::move(m));
  }
  ASSERT_TRUE(hx.fabric->recv_for(0, 5000).has_value());  // master ack
  // Demand read in the next epoch must see the prepared data, from the
  // cache or from disk — not the stale generated block.
  {
    msg::Message m;
    m.tag = msg::kServedRequest;
    m.header = {hx.array_id, hx.linear, /*reply_rank=*/1};
    send(std::move(m));
  }
  std::optional<msg::Message> reply = hx.fabric->recv_for(1, 5000);
  ASSERT_TRUE(reply.has_value());
  ASSERT_NE(reply->block, nullptr);
  for (const double v : reply->block->data()) EXPECT_EQ(v, 5.0);
  {
    msg::Message m;
    m.tag = msg::kShutdown;
    send(std::move(m));
  }
  server_thread.join();
  EXPECT_TRUE(hx.shared.first_error.empty()) << hx.shared.first_error;
}

TEST_F(DiskStoreTest, ClientPrepareInvalidatesPendingLookahead) {
  // prepare-then-request of the same block in one epoch, with a
  // look-ahead already in flight: the request must not be absorbed by
  // the pending speculation (whose reply pre-dates the prepare). The
  // client re-issues a demand request and discards the stale speculative
  // reply — in either arrival order.
  for (const bool stale_reply_first : {true, false}) {
    ServedProtocolHarness hx(SipConfig{}, dir_, "S");
    BlockPool pool;
    ServedArrayClient client(hx.shared, /*my_rank=*/1, pool,
                             /*cache_capacity_doubles=*/1 << 16);

    client.issue_lookahead(hx.id);
    std::optional<msg::Message> la_req = hx.fabric->recv_for(2, 1000);
    ASSERT_TRUE(la_req.has_value());
    EXPECT_EQ(la_req->tag, msg::kServedRequest);
    ASSERT_EQ(la_req->header.size(), 4u);
    EXPECT_EQ(la_req->header[3], 1);

    // The prepare supersedes whatever the speculation will return.
    client.prepare(hx.id, block_of(2.0), /*accumulate=*/false);
    ASSERT_TRUE(hx.fabric->recv_for(2, 1000).has_value());  // prepare msg

    // The demand read is NOT suppressed by the pending look-ahead: a
    // demand request goes out (server-side it promotes the queued job).
    client.issue_request(hx.id);
    std::optional<msg::Message> demand_req = hx.fabric->recv_for(2, 1000);
    ASSERT_TRUE(demand_req.has_value());
    EXPECT_EQ(demand_req->tag, msg::kServedRequest);
    EXPECT_EQ(client.stats().lookahead_promoted, 1);

    // Server's two replies: the stale speculative one (pre-prepare data)
    // and the fresh demand one. Deliver in both orders; the client must
    // end up with the post-prepare data either way.
    msg::Message stale;
    stale.tag = msg::kServedReply;
    stale.header = {hx.array_id, hx.linear, /*miss=*/0, /*lookahead=*/1};
    stale.block = block_of(1.0);
    msg::Message fresh;
    fresh.tag = msg::kServedReply;
    fresh.header = {hx.array_id, hx.linear, /*miss=*/0, /*lookahead=*/0};
    fresh.block = block_of(2.0);
    if (stale_reply_first) {
      client.handle_reply(stale);
      client.handle_reply(fresh);
    } else {
      client.handle_reply(fresh);
      client.handle_reply(stale);
    }
    BlockPtr got = client.try_read(hx.id);
    ASSERT_NE(got, nullptr) << "stale_reply_first=" << stale_reply_first;
    EXPECT_EQ(got->data()[0], 2.0)
        << "demand read missed its own prepare (stale_reply_first="
        << stale_reply_first << ")";
    EXPECT_FALSE(client.pending(hx.id));
  }
}

}  // namespace
}  // namespace sia::sip
