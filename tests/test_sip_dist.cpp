// SIP distributed-array tests: put/get/accumulate, create/delete, caching,
// and barrier-epoch semantics across worker counts.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "block/block_pool.hpp"
#include "msg/tags.hpp"
#include "sial/compiler.hpp"
#include "sip/dist_array.hpp"
#include "sip/launch.hpp"
#include "sip/shared.hpp"

namespace sia::sip {
namespace {

SipConfig config_with(int workers, int segment = 3) {
  SipConfig config;
  config.workers = workers;
  config.io_servers = 0;
  config.default_segment = segment;
  config.constants = {{"n", 9}};
  return config;
}

RunResult run(const std::string& body, const SipConfig& config) {
  Sip sip(config);
  return sip.run_source("sial test\n" + body + "\nendsial\n");
}

constexpr const char* kPutGetRoundTrip = R"(
moindex i = 1, n
moindex j = 1, n
distributed d(i,j)
temp t(i,j)
temp u(i,j)
scalar lsum
scalar total
pardo i, j
  execute fill_coords t(i,j)
  put d(i,j) = t(i,j)
endpardo i, j
sip_barrier
pardo i, j
  get d(i,j)
  execute fill_coords t(i,j)
  u(i,j) = d(i,j)
  u(i,j) -= t(i,j)
  lsum += u(i,j) * u(i,j)
endpardo i, j
total = 0.0
collective total += lsum
)";

TEST(SipDistTest, PutGetRoundTripAcrossWorkerCounts) {
  for (const int workers : {1, 2, 4, 7}) {
    const RunResult result = run(kPutGetRoundTrip, config_with(workers));
    EXPECT_NEAR(result.scalar("total"), 0.0, 1e-18)
        << workers << " workers";
  }
}

TEST(SipDistTest, AccumulatePutsSumContributions) {
  // Every (i,j) iteration accumulates 1.0 into the SAME block d(1,1)...
  // rather: every worker accumulates into its own (i,j); we instead
  // accumulate twice from two pardos without a barrier (allowed for +=).
  const RunResult result = run(R"(
moindex i = 1, n
distributed d(i)
temp t(i)
temp u(i)
scalar lsum
scalar total
pardo i
  t(i) = 1.0
  put d(i) = t(i)
endpardo i
sip_barrier
pardo i
  t(i) = 2.0
  put d(i) += t(i)
  put d(i) += t(i)
endpardo i
sip_barrier
pardo i
  get d(i)
  u(i) = d(i)
  lsum += u(i) * u(i)
endpardo i
total = 0.0
collective total += lsum
)",
                               config_with(3));
  // Elements are 1 + 2 + 2 = 5; 9 elements.
  EXPECT_DOUBLE_EQ(result.scalar("total"), 9.0 * 25.0);
}

TEST(SipDistTest, GetWithoutExplicitGetStillWorks) {
  // Reading a distributed block without a preceding `get` issues the
  // fetch implicitly (counted in the stats).
  const RunResult result = run(R"(
moindex i = 1, n
distributed d(i)
temp t(i)
temp u(i)
scalar lsum
scalar total
pardo i
  t(i) = 3.0
  put d(i) = t(i)
endpardo i
sip_barrier
pardo i
  u(i) = d(i)
  lsum += u(i) * u(i)
endpardo i
total = 0.0
collective total += lsum
)",
                               config_with(3));
  EXPECT_DOUBLE_EQ(result.scalar("total"), 9.0 * 9.0);
}

TEST(SipDistTest, CreateDeleteAndRefill) {
  const RunResult result = run(R"(
moindex i = 1, n
distributed d(i)
temp t(i)
temp u(i)
scalar lsum
scalar total
create d
pardo i
  t(i) = 1.0
  put d(i) = t(i)
endpardo i
sip_barrier
delete d
sip_barrier
create d
pardo i
  t(i) = 7.0
  put d(i) = t(i)
endpardo i
sip_barrier
pardo i
  get d(i)
  u(i) = d(i)
  lsum += u(i) * u(i)
endpardo i
total = 0.0
collective total += lsum
)",
                               config_with(2));
  EXPECT_DOUBLE_EQ(result.scalar("total"), 9.0 * 49.0);
}

TEST(SipDistTest, ManySmallBlocksManyWorkers) {
  SipConfig config = config_with(6, /*segment=*/1);
  const RunResult result = run(kPutGetRoundTrip, config);
  EXPECT_NEAR(result.scalar("total"), 0.0, 1e-18);
  // With segment 1 there are 81 blocks; communication must have happened.
  EXPECT_GT(result.traffic.messages_sent, 81);
}

TEST(SipDistTest, StatsAccountLocalAndRemote) {
  const RunResult result = run(kPutGetRoundTrip, config_with(4));
  EXPECT_GT(result.workers.puts_remote + result.workers.puts_local, 0);
  EXPECT_GT(result.workers.gets_issued + result.workers.gets_local +
                result.workers.gets_cached,
            0);
}

TEST(SipDistTest, CacheReusesFetchedBlocks) {
  // The same remote block is read twice in one iteration: the second read
  // must hit the worker cache, not the network.
  const RunResult result = run(R"(
moindex i = 1, n
distributed d(i)
temp t(i)
temp u(i)
temp v(i)
scalar lsum
scalar total
pardo i
  t(i) = 2.0
  put d(i) = t(i)
endpardo i
sip_barrier
pardo i
  get d(i)
  u(i) = d(i)
  v(i) = d(i)
  lsum += u(i) * v(i)
endpardo i
total = 0.0
collective total += lsum
)",
                               config_with(4));
  EXPECT_DOUBLE_EQ(result.scalar("total"), 9.0 * 4.0);
  EXPECT_GT(result.workers.gets_cached + result.workers.gets_local, 0);
}

TEST(SipDistTest, PrefetchIssuesLookaheadGets) {
  // A get inside a sequential do loop triggers look-ahead fetches.
  SipConfig config = config_with(2);
  config.prefetch_depth = 2;
  const RunResult with_prefetch = run(R"(
moindex i = 1, n
moindex j = 1, n
distributed d(i,j)
temp t(i,j)
temp u(i,j)
scalar lsum
scalar total
pardo i, j
  t(i,j) = 1.0
  put d(i,j) = t(i,j)
endpardo i, j
sip_barrier
pardo i
  do j
    get d(i,j)
    u(i,j) = d(i,j)
    lsum += u(i,j) * u(i,j)
  enddo j
endpardo i
total = 0.0
collective total += lsum
)",
                                      config);
  EXPECT_DOUBLE_EQ(with_prefetch.scalar("total"), 81.0);
}

TEST(SipDistTest, PrefetchOffGivesSameAnswer) {
  SipConfig off = config_with(3);
  off.prefetch_depth = 0;
  SipConfig on = config_with(3);
  on.prefetch_depth = 4;
  const RunResult result_off = run(kPutGetRoundTrip, off);
  const RunResult result_on = run(kPutGetRoundTrip, on);
  EXPECT_DOUBLE_EQ(result_off.scalar("total"), result_on.scalar("total"));
}

TEST(SipDistTest, CoalescingMergesRepeatedAccumulatePuts) {
  // Every iteration of the do loop accumulates into the SAME distributed
  // block: write combining merges the n/segment contributions of one
  // pardo task into a single put message.
  constexpr const char* kRepeatedAccumulate = R"(
moindex i = 1, n
moindex k = 1, n
distributed d(i)
temp t(i)
temp u(i)
scalar lsum
scalar total
pardo i
  do k
    t(i) = 1.0
    put d(i) += t(i)
  enddo k
endpardo i
sip_barrier
pardo i
  get d(i)
  u(i) = d(i)
  lsum += u(i) * u(i)
endpardo i
total = 0.0
collective total += lsum
)";
  const RunResult result = run(kRepeatedAccumulate, config_with(4));

  // 3 k-segments accumulate 1.0 -> each of the 9 elements is 3.0.
  EXPECT_DOUBLE_EQ(result.scalar("total"), 9.0 * 9.0);

  // The shadow table absorbed repeat accumulates...
  EXPECT_GT(result.workers.puts_coalesced, 0);
  // ...and every `put +=` the program executed (3 i-tasks x 3 k
  // iterations) either became a message or merged into one. (Asserting
  // on whole-run traffic.messages_sent here was flaky — totals include
  // timing-dependent background traffic such as chunk requests landing
  // in different epochs, demand-get dedup races, and heartbeats.)
  EXPECT_EQ(result.workers.puts_remote + result.workers.puts_local +
                result.workers.puts_coalesced,
            3 * 3);
}

TEST(SipDistTest, CoalescingFlushedAtBarrierIsVisibleToOtherWorkers) {
  // A worker's shadowed accumulates must all be applied at the home
  // before any reader past the barrier sees the block; the round-trip
  // equality above plus this cross-worker read exercises the flush path
  // with several blocks per shadow table.
  const RunResult result = run(R"(
moindex i = 1, n
moindex k = 1, n
distributed d(i)
temp t(i)
temp u(i)
scalar lsum
scalar total
pardo k
  do i
    t(i) = 2.0
    put d(i) += t(i)
  enddo i
endpardo k
sip_barrier
pardo i
  get d(i)
  u(i) = d(i)
  lsum += u(i) * u(i)
endpardo i
total = 0.0
collective total += lsum
)",
                               config_with(3, /*segment=*/2));
  // 5 k-segment tasks each accumulate 2.0 -> every element is 10.0.
  EXPECT_DOUBLE_EQ(result.scalar("total"), 9.0 * 100.0);
}

TEST(SipDistTest, PermutedPut) {
  // put with permuted source indices stores the transposed block.
  const RunResult result = run(R"(
moindex i = 1, n
moindex j = 1, n
distributed d(i,j)
temp t(j,i)
temp u(i,j)
temp w(j,i)
scalar lsum
scalar total
pardo i, j
  execute fill_coords t(j,i)
  put d(i,j) = t(j,i)
endpardo i, j
sip_barrier
pardo i, j
  get d(i,j)
  execute fill_coords w(j,i)
  u(i,j) = w(j,i)
  u(i,j) -= d(i,j)
  lsum += u(i,j) * u(i,j)
endpardo i, j
total = 0.0
collective total += lsum
)",
                               config_with(2));
  EXPECT_NEAR(result.scalar("total"), 0.0, 1e-18);
}

// The master releases a barrier one worker at a time, so a released
// worker's get can reach an owner before the owner's own release. The
// owner must answer it in the new epoch instead of flagging it as racing
// the put the owner took before the barrier.
TEST(SipDistTest, GetOvertakingTheOwnersReleaseWaitsForIt) {
  SipConfig config = config_with(2, 3);
  const sial::ResolvedProgram program(
      sial::compile_sial("sial test\nmoindex i = 1, n\ndistributed d(i)\n"
                         "endsial\n"),
      config);
  msg::Fabric fabric(config.total_ranks());
  SipShared shared(program, config, "", {});
  shared.fabric = &fabric;
  BlockPool reader_pool, owner_pool;
  DistArrayManager reader(shared, 1, reader_pool, 1 << 16);
  DistArrayManager owner(shared, 2, owner_pool, 1 << 16);
  BlockId id(0, std::vector<int>{1});
  for (int segment = 2; shared.owner_rank(id) != 2; ++segment) {
    id = BlockId(0, std::vector<int>{segment});
  }
  auto block = std::make_shared<Block>(BlockShape(std::vector<int>{3}));
  for (double& v : block->data()) v = 5.0;
  owner.put(id, block, /*accumulate=*/false);

  reader.advance_epoch();  // the reader's release arrived first
  reader.issue_get(id);
  std::optional<msg::Message> request = fabric.try_recv(2);
  ASSERT_TRUE(request.has_value());
  ASSERT_EQ(request->tag, msg::kBlockGetRequest);
  owner.handle_get_request(*request);
  EXPECT_FALSE(fabric.try_recv(1).has_value()) << "answered a stale epoch";

  owner.advance_epoch();  // the owner's release
  std::optional<msg::Message> reply = fabric.try_recv(1);
  ASSERT_TRUE(reply.has_value());
  reader.handle_get_reply(*reply);
  const BlockPtr got = reader.try_read(id);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->data()[0], 5.0);
}

// The same ordering race for puts: worker 1 puts a block in epoch 0,
// worker 2 is released first and replaces it in epoch 1 before the
// owner's own release. That is a legal put-barrier-put, not two workers
// writing one block in the same epoch: the owner applies it once it is
// released.
TEST(SipDistTest, PutOvertakingTheOwnersReleaseWaitsForIt) {
  SipConfig config = config_with(3, 3);
  const sial::ResolvedProgram program(
      sial::compile_sial("sial test\nmoindex i = 1, n\ndistributed d(i)\n"
                         "endsial\n"),
      config);
  msg::Fabric fabric(config.total_ranks());
  SipShared shared(program, config, "", {});
  shared.fabric = &fabric;
  BlockPool first_pool, second_pool, owner_pool;
  DistArrayManager first(shared, 1, first_pool, 1 << 16);
  DistArrayManager second(shared, 2, second_pool, 1 << 16);
  DistArrayManager owner(shared, 3, owner_pool, 1 << 16);
  BlockId id(0, std::vector<int>{1});
  for (int segment = 2; shared.owner_rank(id) != 3; ++segment) {
    id = BlockId(0, std::vector<int>{segment});
  }
  const auto put_value = [&](DistArrayManager& writer, double value) {
    auto block = std::make_shared<Block>(BlockShape(std::vector<int>{3}));
    for (double& v : block->data()) v = value;
    writer.put(id, block, /*accumulate=*/false);
    std::optional<msg::Message> put = fabric.try_recv(3);
    EXPECT_TRUE(put.has_value());
    if (put.has_value()) {
      EXPECT_EQ(put->tag, msg::kBlockPut);
      EXPECT_NO_THROW(owner.handle_put(*put, /*accumulate=*/false));
    }
  };
  put_value(first, 5.0);

  second.advance_epoch();  // worker 2's release arrived first
  put_value(second, 7.0);
  EXPECT_EQ(owner.home_blocks().at(id)->data()[0], 5.0)
      << "applied a put from a later epoch";

  owner.advance_epoch();  // the owner's release
  EXPECT_EQ(owner.home_blocks().at(id)->data()[0], 7.0);
}

// Direct-manager harness, set up as in GetOvertakingTheOwnersReleaseWaitsForIt:
// a reader on rank 1 and the home of block `id` on rank 2.
struct HomeAndReader {
  HomeAndReader() {
    shared.fabric = &fabric;
    for (int segment = 2; shared.owner_rank(id) != 2; ++segment) {
      id = BlockId(0, std::vector<int>{segment});
    }
  }
  static BlockPtr block_of(double value) {
    auto block = std::make_shared<Block>(BlockShape(std::vector<int>{3}));
    for (double& v : block->data()) v = value;
    return block;
  }
  // Delivers every message queued for `rank` to its manager.
  void deliver(int rank) {
    DistArrayManager& to = rank == 1 ? reader : owner;
    while (std::optional<msg::Message> m = fabric.try_recv(rank)) {
      if (m->tag == msg::kBlockGetRequest) {
        to.handle_get_request(*m);
      } else if (m->tag == msg::kBlockGetReply) {
        to.handle_get_reply(*m);
      } else {
        to.handle_put(*m, m->tag == msg::kBlockPutAcc);
      }
    }
  }
  // The reader's get of `id`: its zero-copy snapshot of the home block.
  BlockPtr fetch() {
    reader.issue_get(id);
    deliver(2);
    deliver(1);
    return reader.try_read(id);
  }
  void barrier() {
    reader.advance_epoch();
    owner.advance_epoch();
  }

  SipConfig config = config_with(2, 3);
  const sial::ResolvedProgram program{
      sial::compile_sial("sial test\nmoindex i = 1, n\ndistributed d(i)\n"
                         "endsial\n"),
      config};
  msg::Fabric fabric{config.total_ranks()};
  SipShared shared{program, config, "", {}};
  BlockPool reader_pool, owner_pool;
  DistArrayManager reader{shared, 1, reader_pool, 1 << 16};
  DistArrayManager owner{shared, 2, owner_pool, 1 << 16};
  BlockId id{0, std::vector<int>{1}};
};

// A replace put whose payload the sender no longer references moves into
// the home store without a copy, whether it arrives from another worker
// or is the home worker's own replace of a block a reader still holds.
TEST(SipDistTest, ExclusiveReplacePutIsAdopted) {
  HomeAndReader hx;
  BlockPtr remote = HomeAndReader::block_of(5.0);
  const Block* remote_sent = remote.get();
  hx.reader.put(hx.id, std::move(remote), /*accumulate=*/false);
  hx.deliver(2);
  EXPECT_EQ(hx.owner.home_blocks().at(hx.id).get(), remote_sent);

  hx.barrier();
  const BlockPtr snapshot = hx.fetch();
  ASSERT_NE(snapshot, nullptr);
  hx.barrier();
  BlockPtr local = HomeAndReader::block_of(7.0);
  const Block* local_sent = local.get();
  hx.owner.put(hx.id, std::move(local), /*accumulate=*/false);
  EXPECT_EQ(hx.owner.home_blocks().at(hx.id).get(), local_sent);
  EXPECT_EQ(snapshot->data()[0], 5.0);
  EXPECT_EQ(hx.owner.stats().home_cow_copies, 0);
}

// A put += onto a home block that a reader still holds must not change
// the reader's snapshot: the home copies the block once, then adds.
TEST(SipDistTest, AccumulateOntoHeldHomeBlockCopiesOnce) {
  HomeAndReader hx;
  hx.reader.put(hx.id, HomeAndReader::block_of(5.0), /*accumulate=*/false);
  hx.deliver(2);
  hx.barrier();
  const BlockPtr snapshot = hx.fetch();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot.get(), hx.owner.home_blocks().at(hx.id).get());

  hx.owner.put(hx.id, HomeAndReader::block_of(2.0), /*accumulate=*/true);
  EXPECT_EQ(hx.owner.stats().home_cow_copies, 1);
  EXPECT_EQ(hx.owner.home_blocks().at(hx.id)->data()[0], 7.0);
  for (const double v : snapshot->data()) EXPECT_EQ(v, 5.0);
}

// A get of a block another worker put in the same epoch is a missing
// sip_barrier: the home detects it when the request arrives.
TEST(SipDistTest, GetInTheEpochOfAnotherWorkersPutThrows) {
  HomeAndReader hx;
  hx.owner.put(hx.id, HomeAndReader::block_of(5.0), /*accumulate=*/false);
  hx.reader.issue_get(hx.id);
  std::optional<msg::Message> request = hx.fabric.try_recv(2);
  ASSERT_TRUE(request.has_value());
  try {
    hx.owner.handle_get_request(*request);
    FAIL() << "expected RuntimeError";
  } catch (const RuntimeError& error) {
    EXPECT_NE(std::string(error.what()).find("same epoch as a put"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace sia::sip
