// Determinism pins for the simulator hot path.
//
// The event-slab simulator, the message frame arena, and the flat network
// tables are all allowed to change *how fast* a sweep runs — never *what*
// it does. Three families of pins enforce that:
//
//  1. Golden flight-recorder digests for a fixed (scenario, seed, batching)
//     matrix, captured from the tree BEFORE the hot-path rebuild. Any
//     ordering, RNG, or scheduling drift flips a digest.
//  2. Parallel-vs-serial seed-hunt equivalence: forking the range across
//     workers must yield byte-identical report.txt and artifact files.
//  3. Link-table iteration-order independence: applying the same link
//     mutations in different orders must leave the network in an
//     identical state with identical delivery behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/network.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "wankeeper/hunt_driver.h"
#include "wankeeper/sweep_harness.h"

namespace wankeeper {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t cell_digest(const std::string& scenario, std::uint64_t seed,
                          bool batching) {
  wk::DeploymentConfig cfg;
  if (batching) cfg.enable_batching();
  if (scenario == "crash") {
    wk::LoadedDeployment d(seed, cfg);
    (void)wk::run_crash_sweep_on(d, seed);
    return fnv1a(d.sim.obs().events.to_text());
  }
  sim::Scenario sc = sim::make_scenario(scenario);
  cfg.sites = sc.sites();
  wk::LoadedDeployment d(seed, cfg, sim::scenario_latency(sc));
  (void)wk::run_scenario_sweep_on(d, sc);
  return fnv1a(d.sim.obs().events.to_text());
}

struct GoldenCell {
  const char* scenario;
  std::uint64_t seed;
  bool batching;
  std::uint64_t digest;
};

// Captured from the seed tree (PR 8 head, before the hot-path rebuild) by
// hashing obs().events.to_text() after the sweep. If a cell mismatches, the
// change is NOT digest-invisible: either fix it or — only for a deliberate
// semantic change — regenerate every golden with a printer that hashes
// exactly as cell_digest() does, and say so loudly in the PR.
//
// One deliberate re-pin since: asym3/3/batched, when wire_size() became the
// true encoded length. Its site-2 -> site-1 WAN stream now reaches the
// 16 KiB max_bytes flush with 5 queued messages (16547 true bytes) that the
// old per-type estimates put under the threshold. With the byte flush
// disabled, the old and new trees produce identical digests on every cell.
constexpr GoldenCell kGoldens[] = {
    {"crash", 7ULL, false, 0x5aab0bc809e317faULL},
    {"crash", 7ULL, true, 0xd7ab2964c8c5df7fULL},
    {"crash", 41ULL, false, 0x3c148028f9c05c66ULL},
    {"flap3", 11ULL, false, 0xa10d25a0d8add02cULL},
    {"flap3", 11ULL, true, 0x063b893e80af6e0bULL},
    {"asym3", 3ULL, true, 0x9bc64542768ff3e9ULL},
    {"hostile5", 5ULL, false, 0x27ce34320958823cULL},
};

TEST(GoldenDigests, MatrixMatchesSeedTree) {
  for (const GoldenCell& g : kGoldens) {
    const std::uint64_t got = cell_digest(g.scenario, g.seed, g.batching);
    EXPECT_EQ(got, g.digest)
        << "scenario=" << g.scenario << " seed=" << g.seed
        << " batching=" << g.batching << std::hex << " got=0x" << got
        << " want=0x" << g.digest
        << " — the simulator hot path changed observable behavior";
  }
}

// Two sweeps inside one process must match too: slab/arena recycling between
// runs must be invisible (a recycled slot or frame changing behavior would
// diverge the second run).
TEST(GoldenDigests, BackToBackRunsShareAProcessCleanly) {
  const std::uint64_t a = cell_digest("crash", 7, false);
  const std::uint64_t b = cell_digest("crash", 7, false);
  EXPECT_EQ(a, b);
}

// --- parallel seed hunt -----------------------------------------------------

std::map<std::string, std::string> slurp_dir(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream f(e.path(), std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    files[e.path().filename().string()] = ss.str();
  }
  return files;
}

TEST(ParallelHunt, MatchesSerialByteForByte) {
  const std::string base =
      (std::filesystem::temp_directory_path() / "wk_hunt_eq").string();
  const std::string serial_dir = base + "_serial";
  const std::string par_dir = base + "_par";
  std::filesystem::remove_all(serial_dir);
  std::filesystem::remove_all(par_dir);

  wk::hunt::HuntOptions opt;
  opt.start = 5;
  opt.count = 2;
  opt.batching = 2;
  opt.events = true;  // artifacts for passing cells too → real file diff
  opt.progress = false;

  opt.out_dir = serial_dir;
  opt.parallel = 1;
  const wk::hunt::HuntReport serial = wk::hunt::run_hunt(opt);

  opt.out_dir = par_dir;
  opt.parallel = 2;
  const wk::hunt::HuntReport par = wk::hunt::run_hunt(opt);

  EXPECT_EQ(serial.cells, par.cells);
  EXPECT_EQ(serial.failures, par.failures);
  ASSERT_EQ(serial.fail_lines.size(), par.fail_lines.size());
  for (std::size_t i = 0; i < serial.fail_lines.size(); ++i) {
    EXPECT_EQ(serial.fail_lines[i], par.fail_lines[i]);
  }

  const auto serial_files = slurp_dir(serial_dir);
  const auto par_files = slurp_dir(par_dir);
  std::set<std::string> serial_names, par_names;
  for (const auto& [name, _] : serial_files) serial_names.insert(name);
  for (const auto& [name, _] : par_files) par_names.insert(name);
  EXPECT_EQ(serial_names, par_names) << "artifact sets diverged";
  for (const auto& [name, body] : serial_files) {
    const auto it = par_files.find(name);
    if (it == par_files.end()) continue;
    EXPECT_EQ(body, it->second) << "artifact " << name << " diverged";
  }

  std::filesystem::remove_all(serial_dir);
  std::filesystem::remove_all(par_dir);
}

// --- link-table order independence ------------------------------------------

struct CountingActor final : sim::Actor {
  using sim::Actor::Actor;
  int received = 0;
  void on_message(NodeId, const sim::MessagePtr&) override { ++received; }
};

struct PingMsg final : sim::Message {
  const char* name() const override { return "ping"; }
  std::size_t wire_size() const override { return 64; }
};

// Applies the same set of link mutations in a given order, then runs a
// fixed send schedule and returns (per-node receive counts, net stats).
std::pair<std::vector<int>, sim::NetworkStats> run_link_schedule(
    const std::vector<int>& order) {
  sim::Simulator sim(99);
  sim::Network net(sim, sim::LatencyModel(3, 100, 20000, 0.0));
  std::vector<std::unique_ptr<CountingActor>> actors;
  for (int i = 0; i < 3; ++i) {
    actors.push_back(std::make_unique<CountingActor>(
        sim, "n" + std::to_string(i)));
    net.add_node(*actors.back(), static_cast<SiteId>(i));
  }

  // Three mutations, applied in the permutation `order` gives.
  const auto mutate = [&](int which) {
    switch (which) {
      case 0: net.partition_oneway(0, 1, true); break;
      case 1: net.degrade_link(1, 2, 0.0, 5000); break;
      case 2: net.degrade_link(2, 0, 1.0, 0); break;
      default: break;
    }
  };
  for (const int which : order) mutate(which);

  // Every directed pair sends one message; FIFO clocks + link state decide.
  for (NodeId from = 0; from < 3; ++from) {
    for (NodeId to = 0; to < 3; ++to) {
      if (from != to) net.send(from, to, sim::make_message<PingMsg>());
    }
  }
  sim.run_for(1 * kSecond);

  std::vector<int> received;
  for (const auto& a : actors) received.push_back(a->received);
  return {received, net.stats()};
}

TEST(LinkTables, MutationOrderIsInvisible) {
  const auto [recv_a, stats_a] = run_link_schedule({0, 1, 2});
  const auto [recv_b, stats_b] = run_link_schedule({2, 1, 0});
  const auto [recv_c, stats_c] = run_link_schedule({1, 2, 0});
  EXPECT_EQ(recv_a, recv_b);
  EXPECT_EQ(recv_a, recv_c);
  EXPECT_EQ(stats_a.messages_delivered, stats_b.messages_delivered);
  EXPECT_EQ(stats_a.messages_dropped, stats_b.messages_dropped);
  EXPECT_EQ(stats_a.messages_delivered, stats_c.messages_delivered);
  EXPECT_EQ(stats_a.messages_dropped, stats_c.messages_dropped);

  // The cut link dropped 0->1, the fully-lossy link dropped 2->0; 2 of 6
  // sends lost regardless of mutation order.
  EXPECT_EQ(stats_a.messages_dropped, 2u);
  EXPECT_EQ(stats_a.messages_delivered, 4u);
}

TEST(LinkTables, StateReadsMatchAcrossOrders) {
  sim::Simulator sim_a(1), sim_b(1);
  sim::Network a(sim_a, sim::LatencyModel(4, 100, 20000, 0.0));
  sim::Network b(sim_b, sim::LatencyModel(4, 100, 20000, 0.0));

  a.partition(0, 1, true);
  a.degrade_link(1, 2, 0.25, 777);
  a.partition_oneway(3, 0, true);

  b.partition_oneway(3, 0, true);
  b.degrade_link(1, 2, 0.25, 777);
  b.partition(0, 1, true);

  for (SiteId i = 0; i < 4; ++i) {
    for (SiteId j = 0; j < 4; ++j) {
      const sim::LinkState& la = a.link(i, j);
      const sim::LinkState& lb = b.link(i, j);
      EXPECT_EQ(la.cut, lb.cut) << i << "->" << j;
      EXPECT_EQ(la.drop_rate, lb.drop_rate) << i << "->" << j;
      EXPECT_EQ(la.extra_latency, lb.extra_latency) << i << "->" << j;
    }
  }
}

// --- event slab semantics ----------------------------------------------------

TEST(EventSlab, CancelledEventsAreSkippedAndIdsDoNotAlias) {
  sim::Simulator s(1);
  int fired = 0;
  const sim::EventId a = s.after(10, [&] { ++fired; });
  const sim::EventId b = s.after(20, [&] { ++fired; });
  s.cancel(a);
  s.cancel(a);  // double cancel: no-op
  s.run();
  EXPECT_EQ(fired, 1);
  // `a`'s slot has been recycled by now; a stale cancel must not touch the
  // new occupant.
  const sim::EventId c = s.after(30, [&] { ++fired; });
  s.cancel(a);
  s.cancel(b);  // already fired: no-op
  s.run();
  EXPECT_EQ(fired, 2);
  (void)c;
}

TEST(EventSlab, PendingCountExcludesCancelled) {
  sim::Simulator s(1);
  const sim::EventId a = s.after(10, [] {});
  s.after(20, [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(EventSlab, PoolRecyclesSlots) {
  sim::Simulator s(1);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 100; ++i) s.after(i, [] {});
    s.run();
  }
  const sim::SimProfile& p = s.profile();
  EXPECT_EQ(p.events_scheduled, 400u);
  EXPECT_EQ(p.events_executed, 400u);
  // One slab chunk suffices for 100 concurrent events; later rounds reuse.
  EXPECT_GE(p.events_pooled, 300u);
  EXPECT_EQ(p.events_grown, 1u);
}

}  // namespace
}  // namespace wankeeper
