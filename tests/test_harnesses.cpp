// Tests for the evaluation harnesses themselves: workload generators, key
// mappers, metrics, the YCSB runner, the BookKeeper bench, and the SCFS
// metadata client — so the numbers the figure benches print rest on tested
// machinery.
#include <gtest/gtest.h>

#include <set>

#include "bookkeeper/writer.h"
#include "scfs/metadata.h"
#include "scfs/workload.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "wankeeper/deployment.h"
#include "ycsb/client.h"
#include "ycsb/runner.h"
#include "zk/messages.h"

namespace wankeeper {
namespace {

using namespace wankeeper::ycsb;

// ------------------------------------------------------------- workloads

TEST(YcsbWorkload, OpStreamIsDeterministicPerSeed) {
  WorkloadSpec spec;
  spec.seed = 9;
  OpStream a(spec), b(spec);
  for (int i = 0; i < 100; ++i) {
    const auto oa = a.next();
    const auto ob = b.next();
    EXPECT_EQ(oa.rank, ob.rank);
    EXPECT_EQ(oa.is_write, ob.is_write);
  }
}

TEST(YcsbWorkload, WriteFractionRespected) {
  WorkloadSpec spec;
  spec.write_fraction = 0.3;
  spec.seed = 4;
  OpStream s(spec);
  int writes = 0;
  for (int i = 0; i < 10000; ++i) writes += s.next().is_write ? 1 : 0;
  EXPECT_NEAR(writes, 3000, 200);
}

TEST(YcsbWorkload, ZipfianSkewsTowardLowRanks) {
  WorkloadSpec spec;
  spec.distribution = KeyDistribution::kZipfian;
  OpStream s(spec);
  int low = 0;
  for (int i = 0; i < 10000; ++i) low += s.next().rank < 100 ? 1 : 0;
  EXPECT_GT(low, 4000);  // top 10% of keys draw far more than 10% of ops
}

TEST(YcsbWorkload, UniformCoversKeyspaceEvenly) {
  WorkloadSpec spec;
  spec.distribution = KeyDistribution::kUniform;
  spec.record_count = 10;
  OpStream s(spec);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 10000; ++i) ++counts[s.next().rank];
  for (const auto& [rank, n] : counts) EXPECT_GT(n, 700);
}

TEST(YcsbWorkload, KeyMapperSharesLowRanksOnly) {
  KeyMapper a("/y", "a", 0.3, 100);
  KeyMapper b("/y", "b", 0.3, 100);
  for (std::uint64_t r = 0; r < 30; ++r) {
    EXPECT_TRUE(a.is_shared(r));
    EXPECT_EQ(a.path_of(r), b.path_of(r));  // shared record, same path
  }
  for (std::uint64_t r = 30; r < 100; ++r) {
    EXPECT_FALSE(a.is_shared(r));
    EXPECT_NE(a.path_of(r), b.path_of(r));  // private records
  }
  EXPECT_EQ(a.private_paths().size(), 70u);
  EXPECT_EQ(a.all_paths().size(), 100u);
}

TEST(YcsbMetrics, AggregateThroughputSpansAllClients) {
  ClientMetrics a, b;
  a.ops = 100;
  a.started = 0;
  a.finished = 10 * kSecond;
  b.ops = 300;
  b.started = 5 * kSecond;
  b.finished = 20 * kSecond;
  AggregateMetrics agg;
  agg.clients = {&a, &b};
  EXPECT_DOUBLE_EQ(agg.total_throughput(), 400.0 / 20.0);
  a.read_latency.record(10);
  b.read_latency.record(20);
  EXPECT_EQ(agg.merged_reads().count(), 2u);
}

// ----------------------------------------------------------- YCSB runner

TEST(YcsbRunner, SmokeAllThreeSystems) {
  for (SystemKind sys : {SystemKind::kZooKeeper, SystemKind::kZooKeeperObserver,
                         SystemKind::kWanKeeper}) {
    RunConfig cfg;
    cfg.system = sys;
    ClientSpec c;
    c.site = kCalifornia;
    c.shared_fraction = 0.0;
    c.workload.record_count = 50;
    c.workload.op_count = 200;
    c.workload.write_fraction = 0.5;
    cfg.clients = {c};
    const RunResult r = run_experiment(cfg);
    EXPECT_EQ(r.clients[0].ops, 200u) << system_name(sys);
    EXPECT_GT(r.total_throughput, 0.0) << system_name(sys);
    EXPECT_EQ(r.reads.count() + r.writes.count(), 200u) << system_name(sys);
    EXPECT_TRUE(r.token_audit_clean) << system_name(sys);
  }
}

TEST(YcsbRunner, WanKeeperBeatsZooKeeperOnWriteHeavyLocality) {
  auto run = [](SystemKind sys) {
    RunConfig cfg;
    cfg.system = sys;
    ClientSpec c;
    c.site = kCalifornia;
    c.shared_fraction = 0.0;
    c.workload.record_count = 100;
    c.workload.op_count = 1000;
    c.workload.write_fraction = 0.5;
    cfg.clients = {c};
    return run_experiment(cfg).total_throughput;
  };
  const double zk = run(SystemKind::kZooKeeper);
  const double wk = run(SystemKind::kWanKeeper);
  EXPECT_GT(wk, 3.0 * zk);  // the paper's headline effect, conservatively
}

TEST(YcsbRunner, HotStartOutperformsColdStart) {
  auto run = [](bool hot) {
    RunConfig cfg;
    cfg.system = SystemKind::kWanKeeper;
    cfg.wk_hot_start = hot;
    for (SiteId site : {kCalifornia, kFrankfurt}) {
      ClientSpec c;
      c.site = site;
      c.shared_fraction = 0.0;
      c.workload.record_count = 200;
      c.workload.op_count = 500;
      c.workload.write_fraction = 0.5;
      c.workload.seed = 1 + static_cast<std::uint64_t>(site);
      cfg.clients.push_back(c);
    }
    return run_experiment(cfg).total_throughput;
  };
  EXPECT_GT(run(true), run(false));
}

// Answers every data request after `delay`, with kUnavailable for the
// first `refusals` of them and kOk after that.
class RefusingServer : public sim::Actor {
 public:
  RefusingServer(sim::Simulator& sim, Time delay, int refusals)
      : Actor(sim, "refusing"), delay_(delay), refusals_(refusals) {}

  void on_message(NodeId from, const sim::MessagePtr& msg) override {
    const auto* req = sim::msg_cast<zk::ClientRequest>(msg.get());
    if (req == nullptr || req->op.op == zk::OpCode::kPing) return;
    zk::ClientReply reply;
    reply.session = req->session;
    reply.xid = req->xid;
    reply.op = req->op.op;
    const bool data = req->op.op != zk::OpCode::kCreateSession;
    if (data && refusals_ > 0) {
      --refusals_;
      reply.rc = store::Rc::kUnavailable;
    }
    set_timer(delay_, [this, from, reply] {
      rt().send(id(), from, sim::make_message<zk::ClientReply>(reply));
    });
  }

 private:
  const Time delay_;
  int refusals_;
};

TEST(YcsbDriver, RetryKeepsTheFirstIssueTime) {
  constexpr Time kDelay = 10 * kMillisecond;
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel(1, 0, 0, 0.0));
  RefusingServer server(sim, kDelay, /*refusals=*/2);
  zk::Client client(sim, "client", 1);
  net.add_node(server, 0);
  net.add_node(client, 0);
  client.connect(server.id());
  sim.run_for(kSecond);

  WorkloadSpec spec;
  spec.record_count = 1;
  spec.op_count = 1;
  spec.write_fraction = 1.0;
  ClientMetrics metrics;
  Driver driver(client, spec, KeyMapper("/r", "c", 0.0, 1), metrics);
  driver.start();
  sim.run_for(kSecond);

  ASSERT_TRUE(driver.done());
  EXPECT_EQ(metrics.retries, 2u);
  ASSERT_EQ(metrics.write_latency.count(), 1u);
  // Three attempts, each answered after kDelay: the op took all three.
  EXPECT_GE(metrics.write_latency.max_us(), 3 * kDelay);
}

// ------------------------------------------------------------ bookkeeper

TEST(BookKeeper, BenchSmokeBothLockRecipes) {
  for (bool fair : {false, true}) {
    bk::BkBenchConfig cfg;
    cfg.system = SystemKind::kWanKeeper;
    cfg.write_duration = 200 * kMillisecond;
    cfg.horizon = 5 * kSecond;
    cfg.fair_lock = fair;
    const bk::BkBenchResult r = bk::run_bk_bench(cfg);
    EXPECT_GT(r.total_entries, 0u) << "fair=" << fair;
    EXPECT_GT(r.total_rounds, 1u) << "fair=" << fair;
    EXPECT_TRUE(r.audit_clean) << "fair=" << fair;
  }
}

TEST(BookKeeper, BookieStoresAfterQuorumAck) {
  sim::Simulator sim(1);
  sim::Network net(sim, sim::LatencyModel(1, 200, 200));
  bk::Bookie b1(sim, "b1"), b2(sim, "b2"), b3(sim, "b3");
  const NodeId i1 = net.add_node(b1, 0);
  const NodeId i2 = net.add_node(b2, 0);
  const NodeId i3 = net.add_node(b3, 0);
  for (auto* b : {&b1, &b2, &b3}) b->set_network(net);

  bk::LedgerWriter writer(sim, "w", {i1, i2, i3}, /*write_quorum=*/2);
  net.add_node(writer, 0);
  writer.set_network(net);
  writer.open(7);
  std::uint64_t wrote = 0;
  writer.write_until(sim.now() + kSecond, [&](std::uint64_t n) { wrote = n; });
  sim.run_for(2 * kSecond);
  EXPECT_GT(wrote, 100u);
  EXPECT_EQ(writer.total_entries(), wrote);
  // Every acked entry is on at least the quorum; spot-check the first.
  int copies = 0;
  for (auto* b : {&b1, &b2, &b3}) copies += b->has_entry(7, 0) ? 1 : 0;
  EXPECT_GE(copies, 2);
}

// ------------------------------------------------------------------ scfs

TEST(Scfs, MetadataClientRoundTrip) {
  sim::Simulator sim(6);
  sim::Network net(sim, sim::LatencyModel::paper_wan());
  wk::Deployment deploy(sim, net, {});
  ASSERT_TRUE(deploy.wait_ready());
  auto zk = deploy.make_client("fs", 1, 300);
  sim.run_for(kSecond);
  scfs::MetadataClient mds(*zk);

  bool done = false;
  auto wait = [&]() {
    const Time guard = sim.now() + 30 * kSecond;
    while (!done && sim.now() < guard) sim.step();
    ASSERT_TRUE(done);
    done = false;
  };

  mds.init([&](store::Rc rc) {
    EXPECT_EQ(rc, store::Rc::kOk);
    done = true;
  });
  wait();
  mds.create_file("/a/b.txt", [&](store::Rc rc, const scfs::FileMeta&) {
    EXPECT_EQ(rc, store::Rc::kOk);
    done = true;
  });
  wait();
  scfs::FileMeta meta;
  meta.path = "/a/b.txt";
  meta.size = 4096;
  meta.backend_ref = "s3://x/y";
  mds.update(meta, [&](store::Rc rc, const scfs::FileMeta& out) {
    EXPECT_EQ(rc, store::Rc::kOk);
    EXPECT_EQ(out.version, 1);
    done = true;
  });
  wait();
  mds.lookup("/a/b.txt", [&](store::Rc rc, const scfs::FileMeta& out) {
    EXPECT_EQ(rc, store::Rc::kOk);
    EXPECT_EQ(out.size, 4096u);
    EXPECT_EQ(out.backend_ref, "s3://x/y");
    done = true;
  });
  wait();
  mds.list_dir([&](store::Rc rc, const std::vector<std::string>& names) {
    EXPECT_EQ(rc, store::Rc::kOk);
    EXPECT_EQ(names.size(), 1u);
    done = true;
  });
  wait();
  mds.remove_file("/a/b.txt", [&](store::Rc rc) {
    EXPECT_EQ(rc, store::Rc::kOk);
    done = true;
  });
  wait();
}

TEST(Scfs, BenchSmokeShowsWanKeeperAdvantageAtLowOverlap) {
  scfs::ScfsBenchConfig wk_cfg;
  wk_cfg.system = SystemKind::kWanKeeper;
  wk_cfg.overlap = 0.1;
  wk_cfg.files = 100;
  wk_cfg.ops_per_site = 400;
  const auto wk = scfs::run_scfs_bench(wk_cfg);
  EXPECT_TRUE(wk.audit_clean);
  EXPECT_GT(wk.total_throughput, 0.0);

  scfs::ScfsBenchConfig zko_cfg = wk_cfg;
  zko_cfg.system = SystemKind::kZooKeeperObserver;
  const auto zko = scfs::run_scfs_bench(zko_cfg);
  EXPECT_GT(wk.total_throughput, zko.total_throughput);
}

TEST(Scfs, ZnodeOfFlattensPaths) {
  EXPECT_EQ(scfs::MetadataClient::znode_of("/scfs", "/a/b/c.txt"),
            "/scfs/_a_b_c.txt");
}

}  // namespace
}  // namespace wankeeper
