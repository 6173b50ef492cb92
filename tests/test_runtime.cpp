// Runtime-seam conformance: the same Actor code must behave identically on
// the deterministic simulator and on rt::ThreadRuntime (real threads +
// loopback TCP) for the contract the seam promises — timer ordering per
// node, cancellation, crashed-actor isolation (no deliveries, no stale
// timers), restart with a fresh incarnation, and FIFO delivery per sender.
// Plus: wire-codec round-trips for every message family (including the
// recursive WanEnvelopeMsg), the cross-process TCP framing path, and a
// small end-to-end cluster (election + hub registration + client ops) on
// the thread runtime.
//
// The DES side of the seam is additionally pinned by test_determinism.cpp:
// its golden FNV-1a digests prove the refactor left the simulator's event
// schedule byte-identical.
#include <gtest/gtest.h>

#include <signal.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "rt/cluster.h"
#include "rt/codec.h"
#include "rt/thread_runtime.h"
#include "sim/actor.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "wankeeper/messages.h"
#include "zab/messages.h"
#include "zk/messages.h"

namespace wankeeper {
namespace {

// --- codec round-trips ---

template <typename T>
std::shared_ptr<const T> roundtrip(const std::shared_ptr<T>& m) {
  const std::vector<std::uint8_t> bytes = rt::encode_message(*m);
  sim::MessagePtr decoded = rt::decode_message(bytes);
  const T* cast = sim::msg_cast<T>(decoded.get());
  EXPECT_NE(cast, nullptr) << "decoded to wrong type";
  return std::shared_ptr<const T>(decoded, cast);
}

TEST(Codec, ZabMessages) {
  auto vote = sim::make_mutable_message<zab::VoteMsg>();
  vote->round = 7;
  vote->candidate = 3;
  vote->candidate_zxid = (5ULL << 32) | 42;
  vote->candidate_priority = 2;
  auto v2 = roundtrip(vote);
  EXPECT_EQ(v2->round, 7u);
  EXPECT_EQ(v2->candidate, 3);
  EXPECT_EQ(v2->candidate_zxid, vote->candidate_zxid);
  EXPECT_EQ(v2->candidate_priority, 2);

  auto sync = sim::make_mutable_message<zab::SyncMsg>();
  sync->epoch = 4;
  sync->truncate_to = 9;
  sync->entries.push_back({10, common::Bytes({1, 2, 3})});
  sync->entries.push_back({11, common::Bytes({})});
  sync->commit_up_to = 11;
  auto s2 = roundtrip(sync);
  EXPECT_EQ(s2->epoch, 4u);
  EXPECT_EQ(s2->entries.size(), 2u);
  EXPECT_EQ(s2->entries[0].zxid, 10u);
  EXPECT_TRUE(s2->entries[0].payload == sync->entries[0].payload);
  EXPECT_TRUE(s2->entries[1].payload.empty());
  EXPECT_EQ(s2->commit_up_to, 11u);

  auto inform = sim::make_mutable_message<zab::InformMsg>();
  inform->epoch = 2;
  inform->entry = {77, common::Bytes({9, 9})};
  auto i2 = roundtrip(inform);
  EXPECT_EQ(i2->entry.zxid, 77u);
  EXPECT_TRUE(i2->entry.payload == inform->entry.payload);
}

TEST(Codec, ZkMessages) {
  auto req = sim::make_mutable_message<zk::ClientRequest>();
  req->session = 10001;
  req->xid = 5;
  req->op.op = zk::OpCode::kCreate;
  req->op.path = "/a/b";
  req->op.data = {1, 2, 3, 4};
  req->op.ephemeral = true;
  req->op.sequential = true;
  req->op.version = 3;
  req->watch = true;
  zk::Op extra;
  extra.op = zk::OpCode::kSetData;
  extra.path = "/c";
  req->multi_ops.push_back(extra);
  req->session_timeout = 6 * kSecond;
  req->trace = 999;
  auto r2 = roundtrip(req);
  EXPECT_EQ(r2->session, 10001);
  EXPECT_EQ(r2->op.path, "/a/b");
  EXPECT_EQ(r2->op.data, req->op.data);
  EXPECT_TRUE(r2->op.ephemeral);
  EXPECT_TRUE(r2->op.sequential);
  EXPECT_EQ(r2->op.version, 3);
  EXPECT_TRUE(r2->watch);
  ASSERT_EQ(r2->multi_ops.size(), 1u);
  EXPECT_EQ(r2->multi_ops[0].path, "/c");
  EXPECT_EQ(r2->session_timeout, 6 * kSecond);
  EXPECT_EQ(r2->trace, 999u);

  auto reply = sim::make_mutable_message<zk::ClientReply>();
  reply->session = 10001;
  reply->xid = 5;
  reply->op = zk::OpCode::kGetChildren;
  reply->rc = store::Rc::kNoNode;
  reply->data = {7};
  reply->stat.version = 12;
  reply->stat.mzxid = 34;
  reply->stat.ephemeral_owner = 10001;
  reply->children = {"x", "y"};
  reply->created_path = "/a/b0000000001";
  reply->zxid = 55;
  auto p2 = roundtrip(reply);
  EXPECT_EQ(p2->rc, store::Rc::kNoNode);
  EXPECT_EQ(p2->stat.version, 12);
  EXPECT_EQ(p2->stat.mzxid, 34u);
  EXPECT_EQ(p2->stat.ephemeral_owner, 10001);
  EXPECT_EQ(p2->children, reply->children);
  EXPECT_EQ(p2->created_path, "/a/b0000000001");
  EXPECT_EQ(p2->zxid, 55u);

  auto fwd = sim::make_mutable_message<zk::ForwardRequestMsg>();
  fwd->origin_server = 4;
  fwd->request.session = 3;
  fwd->request.op.path = "/fwd";
  auto f2 = roundtrip(fwd);
  EXPECT_EQ(f2->origin_server, 4);
  EXPECT_EQ(f2->request.op.path, "/fwd");

  auto touch = sim::make_mutable_message<zk::SessionTouchMsg>();
  touch->sessions = {1, 2, 30000};
  EXPECT_EQ(roundtrip(touch)->sessions, touch->sessions);
}

TEST(Codec, WanMessagesAndRecursion) {
  auto up = sim::make_mutable_message<wk::ReplicateUpMsg>();
  up->envelope.session = 20001;
  up->envelope.xid = 9;
  up->envelope.trace = 5;
  up->envelope.txn.path = "/k1";

  auto ack = sim::make_mutable_message<wk::WanAckMsg>();
  ack->from_site = 1;
  ack->from_node = 6;
  ack->stream_epoch = 2;
  ack->stream_gen = 3;
  ack->cumulative = 17;

  auto env = sim::make_mutable_message<wk::WanEnvelopeMsg>();
  env->from_site = 0;
  env->from_node = 1;
  env->stream_epoch = 8;
  env->stream_gen = 1;
  env->seq = 100;
  env->inners.push_back(up);
  env->inners.push_back(ack);
  auto e2 = roundtrip(env);
  EXPECT_EQ(e2->seq, 100u);
  ASSERT_EQ(e2->inners.size(), 2u);
  const auto* up2 = sim::msg_cast<wk::ReplicateUpMsg>(e2->inners[0].get());
  ASSERT_NE(up2, nullptr);
  EXPECT_EQ(up2->envelope.session, 20001);
  EXPECT_EQ(up2->envelope.txn.path, "/k1");
  const auto* ack2 = sim::msg_cast<wk::WanAckMsg>(e2->inners[1].get());
  ASSERT_NE(ack2, nullptr);
  EXPECT_EQ(ack2->cumulative, 17u);

  auto reg = sim::make_mutable_message<wk::RegisterMsg>();
  reg->from_site = 2;
  reg->from_node = 9;
  reg->zab_epoch = 3;
  reg->down_frontiers = {{1, 40}, {2, 7}};
  reg->owned_tokens = {"node:/a", "seq:/b"};
  reg->trace = 77;
  auto g2 = roundtrip(reg);
  EXPECT_EQ(g2->down_frontiers.size(), 2u);
  EXPECT_EQ(g2->down_frontiers[1].counter, 7u);
  EXPECT_EQ(g2->owned_tokens, reg->owned_tokens);

  auto hb = sim::make_mutable_message<wk::WanHeartbeatMsg>();
  hb->from_site = 1;
  hb->live_sessions = {10001, 10002};
  hb->down_frontiers = {{1, 5}};
  hb->l2_site = 0;
  hb->l2_epoch = 4;
  auto h2 = roundtrip(hb);
  EXPECT_EQ(h2->live_sessions, hb->live_sessions);
  EXPECT_EQ(h2->l2_epoch, 4u);

  auto down = sim::make_mutable_message<wk::ReplicateDownMsg>();
  down->envelope.session = 3;
  down->envelope.txn.path = "/fanout";
  down->l2_epoch = 2;
  down->resync = true;
  down->resync_trace = 6;
  auto d2 = roundtrip(down);
  EXPECT_EQ(d2->envelope.txn.path, "/fanout");
  EXPECT_TRUE(d2->resync);

  auto chunk = sim::make_mutable_message<wk::ResyncChunkMsg>();
  chunk->from_site = 1;
  chunk->done = true;
  zk::Envelope ce;
  ce.session = 8;
  ce.txn.path = "/resync";
  chunk->envelopes.push_back(ce);
  chunk->frontiers = {{2, 90}};
  auto c2 = roundtrip(chunk);
  ASSERT_EQ(c2->envelopes.size(), 1u);
  EXPECT_EQ(c2->envelopes[0].txn.path, "/resync");
  EXPECT_TRUE(c2->done);

  auto recall = sim::make_mutable_message<wk::TokenRecallMsg>();
  recall->keys = {"node:/x"};
  EXPECT_EQ(roundtrip(recall)->keys, recall->keys);
}

TEST(Codec, BadInputThrows) {
  std::vector<std::uint8_t> junk = {0xff, 0xff, 1, 2, 3};
  EXPECT_THROW(rt::decode_message(junk), BufferError);
  std::vector<std::uint8_t> truncated =
      rt::encode_message(*sim::make_mutable_message<zab::NewEpochMsg>());
  truncated.pop_back();
  EXPECT_THROW(rt::decode_message(truncated), BufferError);
}

// --- seam conformance on both runtimes ---

// Records timer firings and received message tags; thread-safe so the
// thread runtime's loops can append while the test thread polls.
class ProbeActor : public sim::Actor {
 public:
  ProbeActor(rt::Runtime& rt, std::string name) : Actor(rt, std::move(name)) {}

  void on_message(NodeId from, const sim::MessagePtr& msg) override {
    const auto* ping = sim::msg_cast<zab::PingMsg>(msg.get());
    ASSERT_NE(ping, nullptr);
    std::lock_guard<std::mutex> lk(mu_);
    received_.push_back({from, ping->epoch});
  }

  void fire(std::uint32_t label) {
    std::lock_guard<std::mutex> lk(mu_);
    fired_.push_back(label);
  }

  std::vector<std::uint32_t> fired() const {
    std::lock_guard<std::mutex> lk(mu_);
    return fired_;
  }
  std::vector<std::pair<NodeId, std::uint32_t>> received() const {
    std::lock_guard<std::mutex> lk(mu_);
    return received_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::uint32_t> fired_;
  std::vector<std::pair<NodeId, std::uint32_t>> received_;
};

sim::MessagePtr ping(std::uint32_t label) {
  auto m = sim::make_mutable_message<zab::PingMsg>();
  m->epoch = label;
  return m;
}

// One harness per runtime: register two probes, let time pass, poke actors.
// `settle` blocks until the runtime has processed everything in flight.
struct SimHarness {
  sim::Simulator sim;
  sim::Network net{sim, sim::LatencyModel(1, 100, 100)};
  ProbeActor a{sim, "a"}, b{sim, "b"};
  NodeId ida = net.add_node(a, 0);
  NodeId idb = net.add_node(b, 0);

  void on_actor(ProbeActor& actor, std::function<void()> fn) {
    (void)actor;
    fn();
  }
  void settle(Time virtual_time) { sim.run_for(virtual_time); }
};

struct ThreadHarness {
  rt::ThreadRuntime rt{42};
  ProbeActor a{rt, "a"}, b{rt, "b"};
  NodeId ida = rt.spawn(a, 0);
  NodeId idb = rt.spawn(b, 0);

  ThreadHarness() { rt.start(); }
  ~ThreadHarness() { rt.stop(); }

  void on_actor(ProbeActor& actor, std::function<void()> fn) {
    rt.call(actor.id(), std::move(fn));
  }
  void settle(Time virtual_time) {
    // Real time: sleep the virtual duration plus slack for loop wakeups.
    std::this_thread::sleep_for(
        std::chrono::microseconds(virtual_time + 50 * kMillisecond));
  }
};

template <typename H>
class RuntimeConformance : public ::testing::Test {};

using Harnesses = ::testing::Types<SimHarness, ThreadHarness>;
TYPED_TEST_SUITE(RuntimeConformance, Harnesses);

TYPED_TEST(RuntimeConformance, TimersFireInDeadlineOrder) {
  TypeParam h;
  h.on_actor(h.a, [&] {
    h.a.set_timer(30 * kMillisecond, [&] { h.a.fire(3); });
    h.a.set_timer(10 * kMillisecond, [&] { h.a.fire(1); });
    h.a.set_timer(20 * kMillisecond, [&] { h.a.fire(2); });
  });
  h.settle(100 * kMillisecond);
  EXPECT_EQ(h.a.fired(), (std::vector<std::uint32_t>{1, 2, 3}));
}

TYPED_TEST(RuntimeConformance, CancelledTimerNeverFires) {
  TypeParam h;
  h.on_actor(h.a, [&] {
    const rt::TimerId doomed =
        h.a.set_timer(10 * kMillisecond, [&] { h.a.fire(666); });
    h.a.set_timer(20 * kMillisecond, [&] { h.a.fire(1); });
    h.a.cancel_timer(doomed);
    h.a.cancel_timer(0);  // "no timer" id: harmless no-op
  });
  h.settle(100 * kMillisecond);
  EXPECT_EQ(h.a.fired(), (std::vector<std::uint32_t>{1}));
}

TYPED_TEST(RuntimeConformance, SendToDeadNodeIsDroppedAndFifoOtherwise) {
  TypeParam h;
  h.on_actor(h.b, [&] { h.b.crash(); });
  h.on_actor(h.a, [&] { h.a.rt().send(h.ida, h.idb, ping(1)); });
  h.settle(50 * kMillisecond);
  EXPECT_TRUE(h.b.received().empty());

  h.on_actor(h.b, [&] { h.b.restart(); });
  h.on_actor(h.a, [&] {
    for (std::uint32_t i = 2; i <= 5; ++i) h.a.rt().send(h.ida, h.idb, ping(i));
  });
  h.settle(50 * kMillisecond);
  const auto got = h.b.received();
  ASSERT_EQ(got.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i].first, h.ida);
    EXPECT_EQ(got[i].second, i + 2);
  }
}

TYPED_TEST(RuntimeConformance, CrashInvalidatesPendingTimers) {
  TypeParam h;
  h.on_actor(h.a, [&] {
    h.a.set_timer(10 * kMillisecond, [&] { h.a.fire(666); });
    h.a.crash();
  });
  h.settle(50 * kMillisecond);
  h.on_actor(h.a, [&] {
    h.a.restart();
    // Timers armed before the crash belong to the old incarnation and must
    // not fire even after restart; new ones do.
    h.a.set_timer(10 * kMillisecond, [&] { h.a.fire(1); });
  });
  h.settle(50 * kMillisecond);
  EXPECT_EQ(h.a.fired(), (std::vector<std::uint32_t>{1}));
}

// --- thread-runtime specifics: TCP framing between two runtimes ---

TEST(ThreadRuntime, LoopbackTcpDeliversAcrossProcessesAndReconnects) {
  constexpr std::uint16_t kPortA = 45161;
  constexpr std::uint16_t kPortB = 45162;

  rt::ThreadRuntime rta(1);
  rt::ThreadRuntime rtb(2);
  ProbeActor a(rta, "a");
  ProbeActor b(rtb, "b");

  const std::size_t la = rta.add_loop();
  rta.add_actor(a, 1, 0, la);
  rta.add_remote(2, 1);
  rta.listen(kPortA);
  rta.connect_site(1, kPortB);

  const std::size_t lb = rtb.add_loop();
  rtb.add_actor(b, 2, 1, lb);
  rtb.add_remote(1, 0);
  rtb.connect_site(0, kPortA);

  // Send before the peer runtime is even started: frames queue on the
  // outbound link and flush when the listener comes up.
  rta.start();
  rta.send(1, 2, ping(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  rtb.listen(kPortB);  // throws if called post-start, so start B fully here
  rtb.start();

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (b.received().size() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(b.received().size(), 1u);
  EXPECT_EQ(b.received()[0], (std::pair<NodeId, std::uint32_t>{1, 1}));

  // Reply path B -> A over B's own outbound connection.
  rtb.send(2, 1, ping(7));
  while (a.received().empty() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(a.received().size(), 1u);
  EXPECT_EQ(a.received()[0], (std::pair<NodeId, std::uint32_t>{2, 7}));

  rta.stop();
  rtb.stop();
}

// Accepts any message; records sender and message for inspection.
class SinkActor : public sim::Actor {
 public:
  SinkActor(rt::Runtime& rt, std::string name) : Actor(rt, std::move(name)) {}

  void on_message(NodeId from, const sim::MessagePtr& msg) override {
    std::lock_guard<std::mutex> lk(mu_);
    received_.push_back({from, msg});
  }

  std::vector<std::pair<NodeId, sim::MessagePtr>> received() const {
    std::lock_guard<std::mutex> lk(mu_);
    return received_;
  }
  // Labels of the pings received from `from`, in arrival order.
  std::vector<std::uint32_t> pings_from(NodeId from) const {
    std::vector<std::uint32_t> labels;
    for (const auto& [sender, msg] : received()) {
      const auto* p = sim::msg_cast<zab::PingMsg>(msg.get());
      if (sender == from && p != nullptr) labels.push_back(p->epoch);
    }
    return labels;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<NodeId, sim::MessagePtr>> received_;
};

// Polls `done` every 5 ms for up to `limit`; returns its last value.
template <typename F>
bool eventually(F done, std::chrono::milliseconds limit =
                            std::chrono::milliseconds(20000)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

std::vector<std::uint32_t> iota_labels(std::uint32_t from, std::uint32_t n) {
  std::vector<std::uint32_t> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = from + i;
  return v;
}

sim::MessagePtr big_propose(std::size_t bytes) {
  std::vector<std::uint8_t> payload(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  auto m = sim::make_mutable_message<zab::ProposeMsg>();
  m->epoch = 3;
  m->entries.push_back({99, common::Bytes(std::move(payload))});
  return m;
}

// Runtime A (sender, node 1 at site 0) links to runtime B (node 2 at site
// 1) over loopback TCP; B can be stopped and replaced on the same port.
struct TcpPair {
  explicit TcpPair(std::uint16_t port) : port(port) {
    ra.add_actor(a, 1, 0, ra.add_loop());
    ra.add_remote(2, 1);
    ra.connect_site(1, port);
    ra.start();
    restart_peer();
  }
  ~TcpPair() {
    ra.stop();
    if (rb) rb->stop();
  }

  void restart_peer() {
    if (rb) rb->stop();
    b.reset();
    rb = std::make_unique<rt::ThreadRuntime>(2);
    b = std::make_unique<SinkActor>(*rb, "b");
    rb->add_actor(*b, 2, 1, rb->add_loop());
    rb->add_remote(1, 0);
    rb->listen(port);
    rb->start();
  }

  void send_pings(std::uint32_t from, std::uint32_t n) {
    ra.post(1, [this, from, n] {
      for (std::uint32_t i = 0; i < n; ++i) ra.send(1, 2, ping(from + i));
    });
  }

  // Parks B's only loop, fills the link past both socket buffers with
  // 1 MiB frames, then stops B with them unread: B's kernel resets the
  // connection while A still holds unsent frames.
  void flood_then_stop_peer() {
    rb->post(2, [] { std::this_thread::sleep_for(std::chrono::milliseconds(600)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const sim::MessagePtr big = big_propose(1 << 20);
    ra.post(1, [this, big] {
      for (int i = 0; i < 48; ++i) ra.send(1, 2, big);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    rb->stop();
  }

  const std::uint16_t port;
  rt::ThreadRuntime ra{1};
  ProbeActor a{ra, "a"};
  std::unique_ptr<rt::ThreadRuntime> rb;
  std::unique_ptr<SinkActor> b;
};

TEST(ThreadRuntime, TwoLoopsInterleaveFifoToOneRemoteNode) {
  constexpr std::uint16_t kPortA = 45163;
  constexpr std::uint16_t kPortB = 45164;
  constexpr std::uint32_t kFrames = 10000;
  constexpr std::uint32_t kChunk = 100;
  rt::ThreadRuntime rta(1);
  rt::ThreadRuntime rtb(2);
  ProbeActor a1(rta, "a1"), a2(rta, "a2");
  SinkActor b(rtb, "b");
  rta.add_actor(a1, 1, 0, rta.add_loop());
  rta.add_actor(a2, 3, 0, rta.add_loop());
  rta.add_remote(2, 1);
  rta.listen(kPortA);
  rta.connect_site(1, kPortB);
  rtb.add_actor(b, 2, 1, rtb.add_loop());
  rtb.add_remote(1, 0);
  rtb.add_remote(3, 0);
  rtb.listen(kPortB);
  rtb.connect_site(0, kPortA);
  rta.start();
  rtb.start();

  // Alternate chunks between the two loops so their frames interleave at
  // the destination.
  for (std::uint32_t base = 0; base < kFrames; base += kChunk) {
    for (const NodeId from : {NodeId{1}, NodeId{3}}) {
      rta.post(from, [&rta, from, base] {
        for (std::uint32_t i = base; i < base + kChunk; ++i) {
          rta.send(from, 2, ping(i));
        }
      });
    }
  }
  ASSERT_TRUE(eventually([&] { return b.received().size() >= 2 * kFrames; }));
  EXPECT_EQ(b.pings_from(1), iota_labels(0, kFrames));
  EXPECT_EQ(b.pings_from(3), iota_labels(0, kFrames));
  EXPECT_EQ(rta.frames_dropped(), 0u);
  rta.stop();
  rtb.stop();
}

TEST(ThreadRuntime, FrameLargerThanReadBufferRoundTrips) {
  TcpPair pair(45165);
  const sim::MessagePtr big = big_propose((1 << 20) + 12345);
  pair.ra.post(1, [&pair, big] { pair.ra.send(1, 2, big); });
  pair.send_pings(1, 1);  // a small frame right behind the big one
  ASSERT_TRUE(eventually([&] { return pair.b->received().size() >= 2; }));
  const auto got = pair.b->received();
  const auto* sent = sim::msg_cast<zab::ProposeMsg>(big.get());
  const auto* echo = sim::msg_cast<zab::ProposeMsg>(got[0].second.get());
  ASSERT_NE(echo, nullptr);
  EXPECT_EQ(got[0].first, 1);
  EXPECT_EQ(echo->epoch, 3u);
  ASSERT_EQ(echo->entries.size(), 1u);
  EXPECT_EQ(echo->entries[0].zxid, 99u);
  EXPECT_TRUE(echo->entries[0].payload == sent->entries[0].payload);
  EXPECT_EQ(pair.b->pings_from(1), iota_labels(1, 1));
}

TEST(ThreadRuntime, PeerStopWhileSendingCountsLossesAndSenderSurvives) {
  // The sender must not rely on SIGPIPE being ignored.
  struct sigaction current {};
  ASSERT_EQ(::sigaction(SIGPIPE, nullptr, &current), 0);
  ASSERT_EQ(current.sa_handler, SIG_DFL);

  TcpPair pair(45166);
  pair.send_pings(0, 1);
  ASSERT_TRUE(eventually([&] { return pair.b->received().size() == 1; }));
  pair.flood_then_stop_peer();
  // Keep sending into the dead link while nobody listens.
  for (std::uint32_t i = 1; i <= 20; ++i) {
    pair.send_pings(i, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(eventually([&] { return pair.ra.frames_dropped() > 0; }));
  // Still alive and serving: a loop round trip completes.
  bool served = false;
  pair.ra.call(1, [&] { served = true; });
  EXPECT_TRUE(served);
}

TEST(ThreadRuntime, PeerRestartOnSamePortResumesDeliveryAfterCountedLoss) {
  TcpPair pair(45167);
  pair.send_pings(0, 1);
  ASSERT_TRUE(eventually([&] { return pair.b->received().size() == 1; }));
  pair.flood_then_stop_peer();
  ASSERT_TRUE(eventually([&] { return pair.ra.frames_dropped() > 0; }));

  pair.restart_peer();
  pair.send_pings(100, 10);
  ASSERT_TRUE(eventually([&] { return pair.b->received().size() >= 10; }));
  EXPECT_EQ(pair.b->pings_from(1), iota_labels(100, 10));
}

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(ThreadRuntime, StartAddsExactlyOneThreadPerLoop) {
  rt::ThreadRuntime trt(5);
  ProbeActor a(trt, "a"), b(trt, "b"), c(trt, "c");
  trt.spawn(a, 0);
  trt.spawn(b, 0);
  trt.spawn(c, 0);
  trt.add_remote(99, 1);
  trt.listen(45168);
  trt.connect_site(1, 45169);
  trt.send(a.id(), 99, ping(1));  // an outbound link with a pending connect

  const std::size_t before = thread_count();
  trt.start();
  bool served = false;
  trt.call(a.id(), [&] { served = true; });
  ASSERT_TRUE(served);
  EXPECT_EQ(thread_count(), before + 3);
  trt.stop();
  EXPECT_EQ(thread_count(), before);
}

TEST(ThreadRuntime, SubMillisecondTimersFireInDeadlineOrderNeverEarly) {
  rt::ThreadRuntime trt(6);
  ProbeActor a(trt, "a");
  trt.spawn(a, 0);
  trt.start();
  std::mutex mu;
  std::vector<std::pair<Time, Time>> fired;  // (delay, elapsed at firing)
  Time t0 = 0;
  trt.call(a.id(), [&] {
    t0 = trt.now();
    for (const Time delay : {900, 300, 600}) {
      a.set_timer(delay, [&, delay] {
        std::lock_guard<std::mutex> lk(mu);
        fired.push_back({delay, trt.now() - t0});
      });
    }
  });
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lk(mu);
    return fired.size() == 3;
  }));
  trt.stop();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].first, 300);
  EXPECT_EQ(fired[1].first, 600);
  EXPECT_EQ(fired[2].first, 900);
  for (const auto& [delay, elapsed] : fired) EXPECT_GE(elapsed, delay);
}

// --- end to end: a real (single-process) WanKeeper cluster ---

TEST(ThreadRuntime, HostedClusterElectsRegistersAndServes) {
  rt::ClusterConfig cfg;
  cfg.sites = 2;
  cfg.nodes_per_site = 1;
  cfg.clients_per_site = 1;
  cfg.base_port = 0;  // all sites in-process; no sockets
  rt::ThreadRuntime trt(7);
  rt::HostedCluster cluster(trt, cfg);
  cluster.start();
  ASSERT_TRUE(cluster.wait_ready(20 * kSecond));

  std::atomic<int> done{0};
  std::atomic<bool> all_ok{true};
  for (std::size_t i = 0; i < cluster.local_client_count(); ++i) {
    zk::Client* c = &cluster.client(i);
    const std::string key = "/rt-e2e-" + std::to_string(i);
    trt.call(c->id(), [&, c, key] {
      c->create(key, key, false, false, [&, c, key](const zk::ClientResult& r) {
        if (!r.ok()) all_ok.store(false);
        c->get_data(key, false, [&](const zk::ClientResult& g) {
          if (!g.ok()) all_ok.store(false);
          ++done;
        });
      });
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (done.load() < static_cast<int>(cluster.local_client_count()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(done.load(), static_cast<int>(cluster.local_client_count()));
  EXPECT_TRUE(all_ok.load());

  // Both sites' replicas converge on the same tree once traffic stops.
  const auto conv_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool converged = false;
  while (!converged && std::chrono::steady_clock::now() < conv_deadline) {
    converged = cluster.converged_locally();
    if (!converged) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(converged);

  // Metrics are per-loop-thread on this runtime; the fold must see the zab
  // traffic those creates generated somewhere in the deployment.
  obs::MetricsRegistry all;
  trt.collect_metrics(all);
  EXPECT_GT(all.counter_total("zab.proposals"), 0u);
}

}  // namespace
}  // namespace wankeeper
