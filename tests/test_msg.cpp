// Unit tests for the message fabric (the MPI substitute).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "block/block.hpp"
#include "common/error.hpp"
#include "msg/fabric.hpp"
#include "msg/socket_fabric.hpp"
#include "msg/tags.hpp"

namespace sia::msg {
namespace {

Message make(int tag, std::vector<std::int64_t> header = {},
             std::vector<double> data = {}) {
  Message message;
  message.tag = tag;
  message.header = std::move(header);
  message.data = std::move(data);
  return message;
}

TEST(FabricTest, SendStampsSource) {
  Fabric fabric(3);
  fabric.send(1, 2, make(7));
  auto got = fabric.try_recv(2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, 1);
  EXPECT_EQ(got->tag, 7);
}

TEST(FabricTest, FifoOrderPreserved) {
  Fabric fabric(2);
  for (int i = 0; i < 10; ++i) fabric.send(0, 1, make(i));
  for (int i = 0; i < 10; ++i) {
    auto got = fabric.try_recv(1);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->tag, i);
  }
  EXPECT_FALSE(fabric.try_recv(1).has_value());
}

TEST(FabricTest, CrossSenderOrderAfterCausalChain) {
  // A sends to C, then A sends to B; B forwards to C. The forwarded
  // message must be behind A's direct message in C's queue.
  Fabric fabric(3);
  fabric.send(0, 2, make(1));
  fabric.send(0, 1, make(2));
  auto via_b = fabric.try_recv(1);
  ASSERT_TRUE(via_b.has_value());
  fabric.send(1, 2, make(3));
  EXPECT_EQ(fabric.try_recv(2)->tag, 1);
  EXPECT_EQ(fabric.try_recv(2)->tag, 3);
}

TEST(FabricTest, TryRecvTagSkipsOthers) {
  Fabric fabric(2);
  fabric.send(0, 1, make(10));
  fabric.send(0, 1, make(20));
  fabric.send(0, 1, make(10));
  auto got = fabric.try_recv_tag(1, 20);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, 20);
  // Remaining messages keep their order.
  EXPECT_EQ(fabric.try_recv(1)->tag, 10);
  EXPECT_EQ(fabric.try_recv(1)->tag, 10);
}

TEST(FabricTest, PayloadRoundTrips) {
  Fabric fabric(2);
  fabric.send(0, 1, make(1, {4, 5, 6}, {1.5, 2.5}));
  auto got = fabric.try_recv(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->header, (std::vector<std::int64_t>{4, 5, 6}));
  EXPECT_EQ(got->data, (std::vector<double>{1.5, 2.5}));
}

TEST(FabricTest, BlockingRecvWakesOnSend) {
  Fabric fabric(2);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fabric.send(0, 1, make(42));
  });
  auto got = fabric.recv(1);
  sender.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, 42);
}

TEST(FabricTest, RecvForTimesOut) {
  Fabric fabric(2);
  EXPECT_FALSE(fabric.recv_for(1, 10).has_value());
}

TEST(FabricTest, StopWakesBlockedReceiver) {
  Fabric fabric(2);
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fabric.stop();
  });
  EXPECT_FALSE(fabric.recv(1).has_value());
  stopper.join();
  EXPECT_TRUE(fabric.stopped());
}

TEST(FabricTest, SendAfterStopIsCountedNoOp) {
  // During shutdown, in-flight senders racing fabric.stop() must not blow
  // up the run with a spurious error: the send is swallowed and counted.
  Fabric fabric(2);
  fabric.stop();
  EXPECT_NO_THROW(fabric.send(0, 1, make(1)));
  EXPECT_NO_THROW(fabric.send(1, 0, make(2)));
  EXPECT_FALSE(fabric.recv_for(1, 5).has_value());
  EXPECT_EQ(fabric.total_stats().sends_after_stop, 2);
}

TEST(FabricTest, SendToBadRankThrows) {
  Fabric fabric(2);
  EXPECT_THROW(fabric.send(0, 5, make(1)), InternalError);
  EXPECT_THROW(fabric.send(-1, 1, make(1)), InternalError);
}

TEST(FabricTest, BarrierSynchronizesAllRanks) {
  constexpr int kRanks = 4;
  Fabric fabric(kRanks);
  std::atomic<int> before{0}, after{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      before.fetch_add(1);
      fabric.barrier(r);
      EXPECT_EQ(before.load(), kRanks);  // nobody passes until all arrive
      after.fetch_add(1);
      fabric.barrier(r);
      EXPECT_EQ(after.load(), kRanks);
    });
  }
  for (auto& thread : threads) thread.join();
}

TEST(FabricTest, TrafficStatsCountSends) {
  Fabric fabric(3);
  fabric.send(0, 1, make(1, {1, 2}, {1.0, 2.0, 3.0}));
  fabric.send(0, 2, make(2));
  fabric.send(1, 2, make(3));
  const TrafficStats rank0 = fabric.stats(0);
  EXPECT_EQ(rank0.messages_sent, 2);
  EXPECT_EQ(rank0.payload_doubles_sent, 3);
  EXPECT_EQ(rank0.header_words_sent, 2);
  const TrafficStats total = fabric.total_stats();
  EXPECT_EQ(total.messages_sent, 3);
}

TEST(FabricTest, BlockPayloadMovesZeroCopy) {
  // A message carrying a BlockPtr must deliver the very same Block object
  // to the receiver — no pack/unpack copy anywhere in the fabric.
  Fabric fabric(2);
  auto block = std::make_shared<Block>(BlockShape(std::vector<int>{3, 4}));
  block->data()[0] = 1.25;
  block->data()[11] = -7.5;
  const Block* raw = block.get();

  Message message;
  message.tag = 5;
  message.header = {9};
  message.block = block;  // sender keeps its reference
  fabric.send(0, 1, std::move(message));

  auto got = fabric.try_recv(1);
  ASSERT_TRUE(got.has_value());
  ASSERT_NE(got->block, nullptr);
  EXPECT_EQ(got->block.get(), raw);  // zero-copy: identical object
  EXPECT_EQ(got->block->data()[0], 1.25);
  EXPECT_EQ(got->block->data()[11], -7.5);

  const TrafficStats stats = fabric.stats(0);
  EXPECT_EQ(stats.zero_copy_messages, 1);
  EXPECT_EQ(stats.zero_copy_doubles, 12);
  EXPECT_EQ(stats.payload_doubles_sent, 12);  // block counts as payload
}

TEST(FabricTest, BlockAndInlineDataBothCountAsPayload) {
  Fabric fabric(2);
  Message message;
  message.tag = 1;
  message.data = {1.0, 2.0};
  message.block =
      std::make_shared<Block>(BlockShape(std::vector<int>{5}));
  fabric.send(0, 1, std::move(message));
  EXPECT_EQ(fabric.stats(0).payload_doubles_sent, 7);
  EXPECT_EQ(fabric.stats(0).zero_copy_doubles, 5);
}

TEST(FabricTest, StopWhileBlockedInRecvFor) {
  // stop() must wake a receiver parked inside recv_for well before its
  // timeout expires, and the receiver must observe nullopt.
  Fabric fabric(2);
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fabric.stop();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(fabric.recv_for(1, 10000).has_value());
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  stopper.join();
  EXPECT_LT(waited.count(), 5000);  // did not sleep the full timeout
}

TEST(FabricTest, ConcurrentSendersPreservePerSourceFifo) {
  // Several senders blast numbered messages at one receiver while it
  // drains concurrently. Messages from different sources may interleave,
  // but each source's stream must arrive in send order.
  constexpr int kSenders = 4;
  constexpr int kPerSender = 500;
  Fabric fabric(kSenders + 1);
  const int dst = kSenders;

  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (int i = 0; i < kPerSender; ++i) {
        fabric.send(s, dst, make(1, {i}));
      }
    });
  }

  std::map<int, std::int64_t> next_expected;
  int received = 0;
  while (received < kSenders * kPerSender) {
    auto got = fabric.recv_for(dst, 1000);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->header[0], next_expected[got->src])
        << "out-of-order delivery from rank " << got->src;
    ++next_expected[got->src];
    ++received;
  }
  for (auto& sender : senders) sender.join();
  EXPECT_FALSE(fabric.try_recv(dst).has_value());
}

TEST(FabricTest, ConcurrentTaggedAndFifoReceivers) {
  // One thread drains only tag 2 via try_recv_tag while another drains
  // the rest in FIFO order; nothing is lost or duplicated.
  constexpr int kMessages = 900;  // tags 0,1,2 round-robin
  Fabric fabric(2);
  std::thread sender([&] {
    for (int i = 0; i < kMessages; ++i) {
      fabric.send(0, 1, make(i % 3, {i}));
    }
  });

  std::atomic<int> tagged{0}, fifo{0};
  std::thread tag_drain([&] {
    while (tagged.load() < kMessages / 3) {
      auto got = fabric.try_recv_tag(1, 2);
      if (!got.has_value()) {
        std::this_thread::yield();
        continue;
      }
      EXPECT_EQ(got->tag, 2);
      tagged.fetch_add(1);
    }
  });
  // FIFO receiver competes on the same mailbox; it may legitimately see
  // tag-2 messages the tagged thread has not claimed yet.
  std::int64_t last_tag2 = -1;
  while (fifo.load() + tagged.load() < kMessages) {
    auto got = fabric.recv_for(1, 1000);
    if (!got.has_value()) continue;
    if (got->tag == 2) {
      // Order among tag-2 messages must still be FIFO from this side.
      EXPECT_GT(got->header[0], last_tag2);
      last_tag2 = got->header[0];
      tagged.fetch_add(1);
    } else {
      fifo.fetch_add(1);
    }
  }
  sender.join();
  tag_drain.join();
  EXPECT_EQ(tagged.load() + fifo.load(), kMessages);
  EXPECT_FALSE(fabric.has_message(1));
}

TEST(FabricTest, ManyThreadsManyMessages) {
  constexpr int kRanks = 5;
  constexpr int kPerRank = 200;
  Fabric fabric(kRanks);
  std::vector<std::thread> threads;
  std::atomic<int> received{0};
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < kPerRank; ++i) {
        fabric.send(r, (r + 1) % kRanks, make(i));
      }
      int got = 0;
      while (got < kPerRank) {
        if (fabric.recv_for(r, 100).has_value()) {
          ++got;
          received.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(received.load(), kRanks * kPerRank);
}

// With fault tolerance off nothing would retransmit what a dropped
// connection lost, so one corrupted frame must end the run with a
// diagnostic naming the peer and the status, not leave it waiting.
TEST(SocketFabricTest, CorruptFrameWithoutFaultToleranceIsFatal) {
  std::promise<std::string> fatal;
  std::atomic<bool> once{false};
  SocketOptions options;
  options.role = SocketOptions::Role::kLoopback;
  options.rejected_frame_is_fatal = true;
  options.on_fatal = [&](const std::string& what) {
    if (!once.exchange(true)) fatal.set_value(what);
  };
  SocketFabric fabric(3, options);
  fabric.debug_corrupt_next_frame();
  fabric.send(1, 2, make(7, {1, 2}, {3.0}));
  std::future<std::string> diagnostic = fatal.get_future();
  ASSERT_EQ(diagnostic.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "no diagnostic for a corrupted frame";
  const std::string what = diagnostic.get();
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  EXPECT_NE(what.find("bad checksum"), std::string::npos) << what;
  EXPECT_FALSE(fabric.try_recv(2).has_value());
  EXPECT_EQ(fabric.total_stats().frames_rejected, 1);
  fabric.stop();
}

}  // namespace
}  // namespace sia::msg
