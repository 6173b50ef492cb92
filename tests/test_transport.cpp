// Unit tests for the WAN transport: reliable FIFO streams with epochs,
// driven directly (no network) via its callback interfaces.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "wankeeper/wan_transport.h"

namespace wankeeper::wk {
namespace {

struct Probe : sim::Message {
  int n = 0;
  explicit Probe(int v) : n(v) {}
  const char* name() const override { return "test.probe"; }
  std::size_t wire_size() const override { return 64; }
};

struct Harness {
  // Frames "sent" by each side, waiting to be carried to the other.
  std::vector<std::pair<SiteId, sim::MessagePtr>> wire_a, wire_b;
  std::vector<int> delivered_a, delivered_b;
  WanTransport a{0,
                 [this](SiteId d, sim::MessagePtr m) { wire_a.emplace_back(d, m); },
                 [this](SiteId, const sim::MessagePtr& m) {
                   delivered_a.push_back(dynamic_cast<const Probe*>(m.get())->n);
                 }};
  WanTransport b{1,
                 [this](SiteId d, sim::MessagePtr m) { wire_b.emplace_back(d, m); },
                 [this](SiteId, const sim::MessagePtr& m) {
                   delivered_b.push_back(dynamic_cast<const Probe*>(m.get())->n);
                 }};

  Harness() {
    a.open_streams(1);
    b.open_streams(1);
  }

  // Carry frames between the transports; `drop` skips matching indices.
  void carry_a_to_b(const std::set<std::size_t>& drop = {}) {
    auto frames = std::move(wire_a);
    wire_a.clear();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (drop.count(i) != 0) continue;
      b.on_message(0, frames[i].second);
    }
    // acks generated by b flow back
    auto acks = std::move(wire_b);
    wire_b.clear();
    for (auto& [d, m] : acks) a.on_message(1, m);
  }
};

TEST(WanTransport, InOrderDelivery) {
  Harness h;
  for (int i = 0; i < 5; ++i) h.a.send(1, std::make_shared<Probe>(i));
  h.carry_a_to_b();
  EXPECT_EQ(h.delivered_b, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(h.a.unacked(1), 0u);  // cumulative acks drained the outbox
}

TEST(WanTransport, ReordersOutOfOrderFrames) {
  Harness h;
  for (int i = 0; i < 3; ++i) h.a.send(1, std::make_shared<Probe>(i));
  auto frames = std::move(h.wire_a);
  // Deliver 2, 0, 1.
  h.b.on_message(0, frames[2].second);
  EXPECT_TRUE(h.delivered_b.empty());  // buffered, waiting for seq 1
  h.b.on_message(0, frames[0].second);
  EXPECT_EQ(h.delivered_b, (std::vector<int>{0}));
  h.b.on_message(0, frames[1].second);
  EXPECT_EQ(h.delivered_b, (std::vector<int>{0, 1, 2}));
}

TEST(WanTransport, DuplicatesDeliveredOnce) {
  Harness h;
  h.a.send(1, std::make_shared<Probe>(7));
  auto frames = h.wire_a;  // keep a copy
  h.carry_a_to_b();
  // Redeliver the same frame (a retransmission that crossed the ack).
  h.b.on_message(0, frames[0].second);
  EXPECT_EQ(h.delivered_b, (std::vector<int>{7}));
}

TEST(WanTransport, RetransmitRecoversDroppedFrames) {
  Harness h;
  for (int i = 0; i < 4; ++i) h.a.send(1, std::make_shared<Probe>(i));
  h.carry_a_to_b({1});  // frame 1 lost
  EXPECT_EQ(h.delivered_b, (std::vector<int>{0}));
  EXPECT_GT(h.a.unacked(1), 0u);
  // Retransmission timer fires: everything unacked goes again.
  h.a.retransmit_tick(kSecond, 0);
  h.carry_a_to_b();
  EXPECT_EQ(h.delivered_b, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(h.a.unacked(1), 0u);
  EXPECT_GT(h.a.retransmits(), 0u);
}

TEST(WanTransport, NewEpochSupersedesOldStream) {
  Harness h;
  h.a.send(1, std::make_shared<Probe>(1));
  h.carry_a_to_b();
  // The sender's leadership changes: new stream epoch, fresh seqs.
  h.a.open_streams(2);
  h.a.send(1, std::make_shared<Probe>(2));
  h.carry_a_to_b();
  EXPECT_EQ(h.delivered_b, (std::vector<int>{1, 2}));
}

TEST(WanTransport, StaleEpochFramesIgnored) {
  Harness h;
  h.a.send(1, std::make_shared<Probe>(1));
  auto old_frames = std::move(h.wire_a);
  h.wire_a.clear();
  h.a.open_streams(5);
  h.a.send(1, std::make_shared<Probe>(2));
  h.carry_a_to_b();  // epoch 5 arrives first
  EXPECT_EQ(h.delivered_b, (std::vector<int>{2}));
  // The stale epoch-1 frame straggles in afterwards: dropped.
  h.b.on_message(0, old_frames[0].second);
  EXPECT_EQ(h.delivered_b, (std::vector<int>{2}));
}

TEST(WanTransport, AcksForWrongEpochIgnored) {
  Harness h;
  h.a.send(1, std::make_shared<Probe>(1));
  auto ack = std::make_shared<WanAckMsg>();
  ack->from_site = 1;
  ack->stream_epoch = 99;  // not our epoch
  ack->cumulative = 1;
  h.a.on_message(1, ack);
  EXPECT_EQ(h.a.unacked(1), 1u);
}

TEST(WanTransport, ResetDropsAllState) {
  Harness h;
  h.a.send(1, std::make_shared<Probe>(1));
  h.a.reset();
  EXPECT_EQ(h.a.unacked(1), 0u);
  h.a.retransmit_tick(kSecond, 0);
  EXPECT_TRUE(h.wire_a.size() == 1);  // only the original send, no retransmit
}

// ----------------------------------------------------------- coalescing

WanBatchOptions small_batches() {
  WanBatchOptions b;
  b.max_msgs = 4;
  b.max_bytes = 64 * 1024;
  b.max_delay = 500 * kMicrosecond;
  return b;
}

// Like Harness but with coalescing on both sides and a recorded flush
// schedule (the owner's timer is driven by hand via flush_all()).
struct BatchHarness {
  std::vector<std::pair<SiteId, sim::MessagePtr>> wire_a, wire_b;
  std::vector<int> delivered_a, delivered_b;
  std::vector<Time> flushes_scheduled;
  WanTransport a{0,
                 [this](SiteId d, sim::MessagePtr m) { wire_a.emplace_back(d, m); },
                 [this](SiteId, const sim::MessagePtr& m) {
                   delivered_a.push_back(dynamic_cast<const Probe*>(m.get())->n);
                 },
                 small_batches(),
                 [this](Time delay) { flushes_scheduled.push_back(delay); }};
  WanTransport b{1,
                 [this](SiteId d, sim::MessagePtr m) { wire_b.emplace_back(d, m); },
                 [this](SiteId, const sim::MessagePtr& m) {
                   delivered_b.push_back(dynamic_cast<const Probe*>(m.get())->n);
                 },
                 small_batches(),
                 [](Time) {}};

  BatchHarness() {
    a.open_streams(1);
    b.open_streams(1);
  }

  void carry_a_to_b(const std::set<std::size_t>& drop = {}) {
    auto frames = std::move(wire_a);
    wire_a.clear();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (drop.count(i) != 0) continue;
      b.on_message(0, frames[i].second);
    }
    auto acks = std::move(wire_b);
    wire_b.clear();
    for (auto& [d, m] : acks) a.on_message(1, m);
  }
};

TEST(WanTransportBatch, CoalescesUpToMaxMsgsIntoOneFrame) {
  BatchHarness h;
  for (int i = 0; i < 4; ++i) h.a.send(1, std::make_shared<Probe>(i));
  ASSERT_EQ(h.wire_a.size(), 1u);  // max_msgs reached => one frame
  const auto* f = dynamic_cast<const WanEnvelopeMsg*>(h.wire_a[0].second.get());
  EXPECT_EQ(f->seq, 1u);
  EXPECT_EQ(f->inners.size(), 4u);
  EXPECT_EQ(f->last_seq(), 4u);
  EXPECT_EQ(h.a.unacked(1), 4u);  // backlog is counted in messages
  h.carry_a_to_b();
  EXPECT_EQ(h.delivered_b, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(h.a.unacked(1), 0u);  // one cumulative ack retired the frame
}

TEST(WanTransportBatch, PartialBatchWaitsForScheduledFlush) {
  BatchHarness h;
  h.a.send(1, std::make_shared<Probe>(0));
  h.a.send(1, std::make_shared<Probe>(1));
  EXPECT_TRUE(h.wire_a.empty());  // below max_msgs: buffered
  ASSERT_EQ(h.flushes_scheduled.size(), 1u);  // armed on first pending msg
  EXPECT_EQ(h.flushes_scheduled[0], small_batches().max_delay);
  EXPECT_EQ(h.a.unacked(1), 2u);  // pending still counts as backlog
  h.a.flush_all();  // the owner's timer fires
  ASSERT_EQ(h.wire_a.size(), 1u);
  const auto* f = dynamic_cast<const WanEnvelopeMsg*>(h.wire_a[0].second.get());
  EXPECT_EQ(f->inners.size(), 2u);
  h.carry_a_to_b();
  EXPECT_EQ(h.delivered_b, (std::vector<int>{0, 1}));
}

TEST(WanTransportBatch, MaxBytesForcesFlush) {
  std::vector<std::pair<SiteId, sim::MessagePtr>> wire;
  WanBatchOptions opts = small_batches();
  opts.max_bytes = 2 * Probe(0).wire_size();  // two default-size probes
  WanTransport t(0, [&](SiteId d, sim::MessagePtr m) { wire.emplace_back(d, m); },
                 [](SiteId, const sim::MessagePtr&) {}, opts, [](Time) {});
  t.open_streams(1);
  t.send(1, std::make_shared<Probe>(0));
  EXPECT_TRUE(wire.empty());
  t.send(1, std::make_shared<Probe>(1));  // crosses max_bytes
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_EQ(dynamic_cast<const WanEnvelopeMsg*>(wire[0].second.get())->inners.size(), 2u);
}

TEST(WanTransportBatch, FifoExactlyOnceUnderReorderAndLoss) {
  BatchHarness h;
  // Three frames of four messages each.
  for (int i = 0; i < 12; ++i) h.a.send(1, std::make_shared<Probe>(i));
  ASSERT_EQ(h.wire_a.size(), 3u);
  auto frames = std::move(h.wire_a);
  h.wire_a.clear();
  // Frame 1 lost; frame 2 arrives before frame 0.
  h.b.on_message(0, frames[2].second);
  EXPECT_TRUE(h.delivered_b.empty());  // buffered behind the hole
  h.b.on_message(0, frames[0].second);
  EXPECT_EQ(h.delivered_b, (std::vector<int>{0, 1, 2, 3}));
  // Retransmission resends whole unacked frames; duplicates are dropped.
  h.a.retransmit_tick(kSecond, 0);
  h.carry_a_to_b();
  std::vector<int> want(12);
  for (int i = 0; i < 12; ++i) want[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(h.delivered_b, want);
  EXPECT_EQ(h.a.unacked(1), 0u);
}

TEST(WanTransportBatch, RetransmitResendsWholeFramesWithoutDuplicateDelivery) {
  BatchHarness h;
  for (int i = 0; i < 4; ++i) h.a.send(1, std::make_shared<Probe>(i));
  h.carry_a_to_b({0});  // the only frame is lost
  EXPECT_TRUE(h.delivered_b.empty());
  h.a.retransmit_tick(kSecond, 0);
  ASSERT_EQ(h.wire_a.size(), 1u);
  const auto* f = dynamic_cast<const WanEnvelopeMsg*>(h.wire_a[0].second.get());
  EXPECT_EQ(f->inners.size(), 4u);  // the whole frame, not fragments
  EXPECT_EQ(f->seq, 1u);
  // Deliver it twice (retransmission crossing the ack).
  auto frame = h.wire_a[0].second;
  h.carry_a_to_b();
  h.b.on_message(0, frame);
  EXPECT_EQ(h.delivered_b, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(h.a.unacked(1), 0u);
}

TEST(WanTransportBatch, PartialFrameAckKeepsFrameForRetransmit) {
  BatchHarness h;
  for (int i = 0; i < 4; ++i) h.a.send(1, std::make_shared<Probe>(i));
  // A stale cumulative ack covering only part of the frame must not retire it.
  auto ack = std::make_shared<WanAckMsg>();
  ack->from_site = 1;
  ack->stream_epoch = 1;
  ack->cumulative = 2;
  h.a.on_message(1, ack);
  EXPECT_EQ(h.a.unacked(1), 4u);
  h.a.retransmit_tick(kSecond, 0);
  EXPECT_EQ(h.wire_a.size(), 2u);  // original + retransmit
}

TEST(WanTransportBatch, EpochBumpDropsInFlightBatches) {
  BatchHarness h;
  h.a.send(1, std::make_shared<Probe>(100));  // pending, below thresholds
  EXPECT_TRUE(h.wire_a.empty());
  h.a.open_streams(2);  // leadership change before the flush timer fired
  h.a.flush_all();      // the stale timer firing later must send nothing
  EXPECT_TRUE(h.wire_a.empty());
  EXPECT_EQ(h.a.unacked(1), 0u);
  h.a.send(1, std::make_shared<Probe>(200));
  h.a.flush_all();
  ASSERT_EQ(h.wire_a.size(), 1u);
  const auto* f = dynamic_cast<const WanEnvelopeMsg*>(h.wire_a[0].second.get());
  EXPECT_EQ(f->stream_epoch, 2u);
  EXPECT_EQ(f->seq, 1u);  // fresh stream, fresh seqs
  h.carry_a_to_b();
  EXPECT_EQ(h.delivered_b, (std::vector<int>{200}));
}

TEST(WanTransportBatch, RetransmitTickFlushesStalePartialBatch) {
  BatchHarness h;
  h.a.send(1, std::make_shared<Probe>(5));
  EXPECT_TRUE(h.wire_a.empty());
  // No flush timer wired into a sim here; the retransmit tick is the backstop.
  h.a.retransmit_tick(kSecond, 300 * kMillisecond);
  ASSERT_EQ(h.wire_a.size(), 1u);
  h.carry_a_to_b();
  EXPECT_EQ(h.delivered_b, (std::vector<int>{5}));
}

TEST(WanTransport, IndependentStreamsPerDestination) {
  std::vector<std::pair<SiteId, sim::MessagePtr>> wire;
  WanTransport t(0, [&](SiteId d, sim::MessagePtr m) { wire.emplace_back(d, m); },
                 [](SiteId, const sim::MessagePtr&) {});
  t.open_streams(1);
  t.send(1, std::make_shared<Probe>(1));
  t.send(2, std::make_shared<Probe>(2));
  t.send(1, std::make_shared<Probe>(3));
  ASSERT_EQ(wire.size(), 3u);
  const auto* f0 = dynamic_cast<const WanEnvelopeMsg*>(wire[0].second.get());
  const auto* f1 = dynamic_cast<const WanEnvelopeMsg*>(wire[1].second.get());
  const auto* f2 = dynamic_cast<const WanEnvelopeMsg*>(wire[2].second.get());
  EXPECT_EQ(f0->seq, 1u);
  EXPECT_EQ(f1->seq, 1u);  // separate stream to site 2
  EXPECT_EQ(f2->seq, 2u);
  EXPECT_EQ(t.unacked(1), 2u);
  EXPECT_EQ(t.unacked(2), 1u);
}

// The hub-handover catch-up pair rides the same FIFO streams as everything
// else: a ResyncPullMsg and its (final, frontier-carrying) ResyncChunkMsg
// must arrive in order with every field intact after framing.
TEST(WanTransport, ResyncPullAndChunkRoundTrip) {
  std::vector<std::pair<SiteId, sim::MessagePtr>> wire;
  std::vector<sim::MessagePtr> got;
  WanTransport a(0, [&](SiteId d, sim::MessagePtr m) { wire.emplace_back(d, m); },
                 [](SiteId, const sim::MessagePtr&) {});
  WanTransport b(1, [](SiteId, sim::MessagePtr) {},
                 [&](SiteId, const sim::MessagePtr& m) { got.push_back(m); });
  a.open_streams(1);
  b.open_streams(1);

  auto pull = std::make_shared<ResyncPullMsg>();
  pull->from_site = 0;
  pull->l2_epoch = 42;
  pull->have = {{1, 7}, {2, 0}};
  a.send(1, pull);

  auto chunk = std::make_shared<ResyncChunkMsg>();
  chunk->from_site = 0;
  chunk->done = true;
  chunk->frontiers = {{3, 99}};
  zk::Envelope env;
  env.txn.type = store::TxnType::kSetData;
  env.txn.path = "/k1";
  env.txn.gseq = make_gseq(3, 99);
  chunk->envelopes.push_back(env);
  a.send(1, chunk);

  for (auto& [dst, m] : wire) b.on_message(0, m);
  ASSERT_EQ(got.size(), 2u);
  const auto* p = dynamic_cast<const ResyncPullMsg*>(got[0].get());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->from_site, 0);
  EXPECT_EQ(p->l2_epoch, 42u);
  ASSERT_EQ(p->have.size(), 2u);
  EXPECT_EQ(p->have[0], (GseqFrontier{1, 7}));
  EXPECT_EQ(p->have[1], (GseqFrontier{2, 0}));
  const auto* c = dynamic_cast<const ResyncChunkMsg*>(got[1].get());
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->done);
  ASSERT_EQ(c->envelopes.size(), 1u);
  EXPECT_EQ(c->envelopes[0].txn.path, "/k1");
  EXPECT_EQ(c->envelopes[0].txn.gseq, make_gseq(3, 99));
  ASSERT_EQ(c->frontiers.size(), 1u);
  EXPECT_EQ(c->frontiers[0], (GseqFrontier{3, 99}));
  // Chunk accounting covers its payload, not just the fixed header.
  EXPECT_GT(c->wire_size(), p->wire_size());
}

}  // namespace
}  // namespace wankeeper::wk
