// Unit tests: discrete-event simulator, actors, and the simulated WAN.
#include <gtest/gtest.h>

#include <vector>

#include "sim/actor.h"
#include "sim/failure.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace wankeeper {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  sim::Simulator sim;
  std::vector<int> order;
  sim.at(30, [&]() { order.push_back(3); });
  sim.at(10, [&]() { order.push_back(1); });
  sim.at(20, [&]() { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, EqualTimesRunInScheduleOrder) {
  sim::Simulator sim;
  std::vector<int> order;
  sim.at(10, [&]() { order.push_back(1); });
  sim.at(10, [&]() { order.push_back(2); });
  sim.at(10, [&]() { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, CancelSuppressesEvent) {
  sim::Simulator sim;
  bool fired = false;
  const auto id = sim.after(10, [&]() { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  sim.cancel(id);  // double-cancel is a no-op
  sim.cancel(9999);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  sim::Simulator sim;
  int count = 0;
  sim.at(10, [&]() { ++count; });
  sim.at(20, [&]() { ++count; });
  sim.at(30, [&]() { ++count; });
  sim.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  sim::Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  sim::Simulator sim;
  sim.at(100, []() {});
  sim.run();
  EXPECT_THROW(sim.at(50, []() {}), std::invalid_argument);
}

TEST(Simulator, NestedSchedulingWorks) {
  sim::Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) sim.after(10, recurse);
  };
  sim.after(10, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 50);
}

// ----------------------------------------------------------------- actors

class Recorder : public sim::Actor {
 public:
  using Actor::Actor;
  void on_message(NodeId from, const sim::MessagePtr& msg) override {
    received.emplace_back(from, msg, now());
  }
  std::vector<std::tuple<NodeId, sim::MessagePtr, Time>> received;
};

struct PingMsg : sim::Message {
  int n = 0;
  const char* name() const override { return "test.ping"; }
  std::size_t wire_size() const override { return 64; }
};

TEST(Actor, TimerSkippedAfterCrash) {
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel(1, 100, 100));
  Recorder a(sim, "a");
  net.add_node(a, 0);
  bool fired = false;
  a.set_timer(100, [&]() { fired = true; });
  sim.at(50, [&]() { a.crash(); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Actor, TimerFromOldIncarnationSkippedAfterRestart) {
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel(1, 100, 100));
  Recorder a(sim, "a");
  net.add_node(a, 0);
  bool old_fired = false, new_fired = false;
  a.set_timer(100, [&]() { old_fired = true; });
  sim.at(50, [&]() {
    a.crash();
    a.restart();
    a.set_timer(100, [&]() { new_fired = true; });
  });
  sim.run();
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
}

// ---------------------------------------------------------------- network

TEST(Network, DeliversWithSiteLatency) {
  sim::Simulator sim;
  sim::LatencyModel lat({{100, 5000}, {5000, 100}}, /*jitter=*/0.0);
  sim::Network net(sim, lat);
  Recorder a(sim, "a"), b(sim, "b");
  const NodeId ida = net.add_node(a, 0);
  const NodeId idb = net.add_node(b, 1);
  net.send(ida, idb, sim::make_message<PingMsg>());
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(std::get<2>(b.received[0]), 5000);
  EXPECT_EQ(net.stats().wan_messages, 1u);
}

TEST(Network, FifoPerChannelDespiteJitter) {
  sim::Simulator sim(99);
  sim::Network net(sim, sim::LatencyModel(2, 100, 10000, /*jitter=*/0.3));
  Recorder a(sim, "a"), b(sim, "b");
  const NodeId ida = net.add_node(a, 0);
  const NodeId idb = net.add_node(b, 1);
  for (int i = 0; i < 50; ++i) {
    auto m = std::make_shared<PingMsg>();
    m->n = i;
    net.send(ida, idb, m);
  }
  sim.run();
  ASSERT_EQ(b.received.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    const auto* m = dynamic_cast<const PingMsg*>(std::get<1>(b.received[i]).get());
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->n, i) << "FIFO violated at position " << i;
  }
}

TEST(Network, PartitionDropsAndHealRestores) {
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel(2, 100, 1000));
  Recorder a(sim, "a"), b(sim, "b");
  const NodeId ida = net.add_node(a, 0);
  const NodeId idb = net.add_node(b, 1);
  net.partition(0, 1, true);
  net.send(ida, idb, sim::make_message<PingMsg>());
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  net.partition(0, 1, false);
  net.send(ida, idb, sim::make_message<PingMsg>());
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Network, CrashedReceiverDropsDelivery) {
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel(1, 1000, 1000));
  Recorder a(sim, "a"), b(sim, "b");
  const NodeId ida = net.add_node(a, 0);
  const NodeId idb = net.add_node(b, 0);
  net.send(ida, idb, sim::make_message<PingMsg>());
  // Crash b while the message is in flight: connection reset.
  sim.at(500, [&]() { b.crash(); });
  sim.run();
  EXPECT_TRUE(b.received.empty());
}

TEST(Network, DeliveryAcrossRestartIncarnationDropped) {
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel(1, 1000, 1000));
  Recorder a(sim, "a"), b(sim, "b");
  const NodeId ida = net.add_node(a, 0);
  const NodeId idb = net.add_node(b, 0);
  net.send(ida, idb, sim::make_message<PingMsg>());
  sim.at(500, [&]() {
    b.crash();
    b.restart();
  });
  sim.run();
  // The message belonged to the previous incarnation's connection.
  EXPECT_TRUE(b.received.empty());
}

TEST(Network, DropRateLosesRoughlyThatFraction) {
  sim::Simulator sim(7);
  sim::Network net(sim, sim::LatencyModel(1, 100, 100));
  Recorder a(sim, "a"), b(sim, "b");
  const NodeId ida = net.add_node(a, 0);
  const NodeId idb = net.add_node(b, 0);
  net.set_drop_rate(0.25);
  for (int i = 0; i < 2000; ++i) net.send(ida, idb, sim::make_message<PingMsg>());
  sim.run();
  EXPECT_NEAR(static_cast<double>(b.received.size()), 1500.0, 120.0);
}

TEST(Network, IsolateSiteCutsAllPairs) {
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel(3, 100, 1000));
  net.isolate_site(1, true);
  EXPECT_TRUE(net.partitioned(0, 1));
  EXPECT_TRUE(net.partitioned(1, 2));
  EXPECT_FALSE(net.partitioned(0, 2));
  net.isolate_site(1, false);
  EXPECT_FALSE(net.partitioned(0, 1));
}

TEST(Network, OneWayPartitionDropsExactlyOneDirection) {
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel(2, 100, 1000));
  Recorder a(sim, "a"), b(sim, "b");
  const NodeId ida = net.add_node(a, 0);
  const NodeId idb = net.add_node(b, 1);
  net.partition_oneway(0, 1, true);
  EXPECT_TRUE(net.partitioned(0, 1));
  EXPECT_FALSE(net.partitioned(1, 0));
  net.send(ida, idb, sim::make_message<PingMsg>());  // cut direction
  net.send(idb, ida, sim::make_message<PingMsg>());  // open direction
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST(Network, OneWayHealRestoresOnlyThatDirection) {
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel(2, 100, 1000));
  Recorder a(sim, "a"), b(sim, "b");
  const NodeId ida = net.add_node(a, 0);
  const NodeId idb = net.add_node(b, 1);
  net.partition_oneway(0, 1, true);
  net.partition_oneway(1, 0, true);
  net.partition_oneway(0, 1, false);  // heal one leg of a full cut
  net.send(ida, idb, sim::make_message<PingMsg>());
  net.send(idb, ida, sim::make_message<PingMsg>());
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_TRUE(a.received.empty());
}

TEST(Network, SymmetricPartitionIsBothOneWayCuts) {
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel(2, 100, 1000));
  net.partition(0, 1, true);
  EXPECT_TRUE(net.partitioned(0, 1));
  EXPECT_TRUE(net.partitioned(1, 0));
  net.partition(0, 1, false);
  EXPECT_FALSE(net.partitioned(0, 1));
  EXPECT_FALSE(net.partitioned(1, 0));
}

TEST(Network, InFlightMessageHonorsSendTimeLatency) {
  // A scripted latency change applies to sends after the change; messages
  // already on the wire keep the cost sampled when they were sent.
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel(2, 100, 1000, /*jitter=*/0.0));
  Recorder a(sim, "a"), b(sim, "b");
  const NodeId ida = net.add_node(a, 0);
  const NodeId idb = net.add_node(b, 1);
  net.send(ida, idb, sim::make_message<PingMsg>());  // in flight at old cost
  sim.at(500, [&]() {
    net.set_latency(0, 1, 50000);
    net.send(ida, idb, sim::make_message<PingMsg>());
  });
  sim.run();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(std::get<2>(b.received[0]), 1000);          // send-time cost
  EXPECT_EQ(std::get<2>(b.received[1]), 500 + 50000);   // rerouted cost
}

TEST(Network, SetLatencyAsymmetricChangesOneDirection) {
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel(2, 100, 1000, /*jitter=*/0.0));
  net.set_latency(0, 1, 7777, /*symmetric=*/false);
  Recorder a(sim, "a"), b(sim, "b");
  const NodeId ida = net.add_node(a, 0);
  const NodeId idb = net.add_node(b, 1);
  net.send(ida, idb, sim::make_message<PingMsg>());
  net.send(idb, ida, sim::make_message<PingMsg>());
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(std::get<2>(b.received[0]), 7777);
  EXPECT_EQ(std::get<2>(a.received[0]), 1000);
}

TEST(Network, DegradedLinkAddsLatencyAndDropsDirectionally) {
  sim::Simulator sim(3);
  sim::Network net(sim, sim::LatencyModel(2, 100, 1000, /*jitter=*/0.0));
  Recorder a(sim, "a"), b(sim, "b");
  const NodeId ida = net.add_node(a, 0);
  const NodeId idb = net.add_node(b, 1);
  net.degrade_link(0, 1, /*drop_rate=*/0.3, /*extra_latency=*/2000);
  for (int i = 0; i < 1000; ++i) net.send(ida, idb, sim::make_message<PingMsg>());
  net.send(idb, ida, sim::make_message<PingMsg>());  // reverse leg untouched
  sim.run();
  EXPECT_NEAR(static_cast<double>(b.received.size()), 700.0, 90.0);
  for (const auto& r : b.received) EXPECT_EQ(std::get<2>(r), 1000 + 2000);
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(std::get<2>(a.received[0]), 1000);

  // Clearing the degradation restores the pristine link.
  net.degrade_link(0, 1, 0.0, 0);
  EXPECT_TRUE(net.link(0, 1).pristine());
}

TEST(Network, ScaleWanLatencyLeavesIntraSiteAlone) {
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel(2, 100, 1000, /*jitter=*/0.0));
  net.scale_wan_latency(3.0);
  Recorder a(sim, "a"), b(sim, "b"), c(sim, "c");
  const NodeId ida = net.add_node(a, 0);
  const NodeId idb = net.add_node(b, 1);
  const NodeId idc = net.add_node(c, 0);
  net.send(ida, idb, sim::make_message<PingMsg>());
  net.send(ida, idc, sim::make_message<PingMsg>());
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  ASSERT_EQ(c.received.size(), 1u);
  EXPECT_EQ(std::get<2>(b.received[0]), 3000);
  EXPECT_EQ(std::get<2>(c.received[0]), 100);
}

TEST(LatencyModel, PaperWanIsSymmetricWithSubMsIntra) {
  const auto lat = sim::LatencyModel::paper_wan();
  ASSERT_EQ(lat.sites(), 3u);
  for (SiteId i = 0; i < 3; ++i) {
    EXPECT_LT(lat.base(i, i), kMillisecond);
    for (SiteId j = 0; j < 3; ++j) EXPECT_EQ(lat.base(i, j), lat.base(j, i));
  }
  // RTTs: VA-CA 62ms, VA-FRA 88ms, CA-FRA 146ms.
  EXPECT_EQ(lat.base(0, 1) * 2, 62 * kMillisecond);
  EXPECT_EQ(lat.base(0, 2) * 2, 88 * kMillisecond);
  EXPECT_EQ(lat.base(1, 2) * 2, 146 * kMillisecond);
}

TEST(FailureInjector, CrashAndRestartOnSchedule) {
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel(1, 100, 100));
  Recorder a(sim, "a");
  const NodeId id = net.add_node(a, 0);
  sim::FailureInjector inject(net);
  inject.crash_at(1000, id, /*down_for=*/500);
  sim.run_until(1200);
  EXPECT_FALSE(a.up());
  sim.run_until(2000);
  EXPECT_TRUE(a.up());
}

}  // namespace
}  // namespace wankeeper
