// Flight-recorder tests: the metrics registry and tracer in isolation,
// LatencyRecorder edge cases, the WANKEEPER_LOG parser, the YCSB
// throughput guard — and end-to-end: the span sequence of a contended
// remote write, registry counters agreeing with the token auditor, and
// byte-identical exports across identical-seed experiment runs.
#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "wankeeper/deployment.h"
#include "ycsb/metrics.h"
#include "ycsb/runner.h"

namespace wankeeper {
namespace {

using obs::SpanKind;

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, CountersGaugesHistogramsBasics) {
  obs::MetricsRegistry reg;
  reg.counter("a.ops").inc();
  reg.counter("a.ops").inc(4);
  EXPECT_EQ(reg.counter("a.ops").value(), 5u);

  reg.gauge("a.depth").set(7);
  reg.gauge("a.depth").add(-3);
  EXPECT_EQ(reg.gauge("a.depth").value(), 4);

  reg.histogram("a.lat_us").record(100);
  reg.histogram("a.lat_us").record(300);
  EXPECT_EQ(reg.histogram("a.lat_us").count(), 2u);
  EXPECT_EQ(reg.histogram("a.lat_us").recorder().max_us(), 300);
}

TEST(MetricsRegistry, PerSiteScopingAndTotals) {
  obs::MetricsRegistry reg;
  reg.counter("token.grants", 0).inc(2);
  reg.counter("token.grants", 1).inc(3);
  reg.counter("token.grants").inc();  // global scope is a distinct key
  EXPECT_EQ(reg.counter("token.grants", 0).value(), 2u);
  EXPECT_EQ(reg.counter("token.grants", 1).value(), 3u);
  EXPECT_EQ(reg.counter_total("token.grants"), 6u);
  EXPECT_EQ(reg.counter_total("token.recalls"), 0u);
}

TEST(MetricsRegistry, HandlesAreStableAcrossInsertions) {
  obs::MetricsRegistry reg;
  obs::Counter& first = reg.counter("z.last");
  for (int i = 0; i < 100; ++i) {
    reg.counter("a." + std::to_string(i)).inc();
  }
  first.inc();
  EXPECT_EQ(reg.counter("z.last").value(), 1u);
}

TEST(MetricsRegistry, MergeFromSumsCountersGaugesAndHistograms) {
  obs::MetricsRegistry a;
  a.counter("zab.proposals", 0).inc(5);
  a.gauge("q.depth").set(3);
  a.histogram("lat_us").record(100);

  obs::MetricsRegistry b;
  b.counter("zab.proposals", 0).inc(2);
  b.counter("zab.proposals", 1).inc(4);  // site only present in b
  b.gauge("q.depth").set(-1);
  b.histogram("lat_us").record(900);

  a.merge_from(b);
  EXPECT_EQ(a.counter("zab.proposals", 0).value(), 7u);
  EXPECT_EQ(a.counter("zab.proposals", 1).value(), 4u);
  EXPECT_EQ(a.counter_total("zab.proposals"), 11u);
  EXPECT_EQ(a.gauge("q.depth").value(), 2);
  EXPECT_EQ(a.histogram("lat_us").count(), 2u);
  EXPECT_EQ(a.histogram("lat_us").recorder().max_us(), 900);
  // b is untouched by the fold.
  EXPECT_EQ(b.counter_total("zab.proposals"), 6u);
}

TEST(MetricsRegistry, SnapshotSortedAndJsonDeterministic) {
  auto populate = [](obs::MetricsRegistry& reg) {
    // Insert in unsorted order; exports must sort by (name, site).
    reg.counter("b.second", 2).inc(2);
    reg.counter("a.first", 1).inc();
    reg.counter("a.first", 0).inc();
    reg.gauge("c.depth").set(-5);
    reg.histogram("d.lat_us", 1).record(250);
    reg.histogram("d.lat_us", 1).record(750);
  };
  obs::MetricsRegistry r1, r2;
  populate(r1);
  populate(r2);

  const auto snap = r1.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(std::get<0>(snap.counters[0]), "a.first");
  EXPECT_EQ(std::get<1>(snap.counters[0]), 0);
  EXPECT_EQ(std::get<0>(snap.counters[2]), "b.second");

  EXPECT_EQ(r1.to_json(), r2.to_json());
  EXPECT_EQ(r1.to_table(), r2.to_table());
  EXPECT_NE(r1.to_json().find("\"a.first@0\": 1"), std::string::npos);
  EXPECT_NE(r1.to_json().find("\"c.depth@*\": -5"), std::string::npos);
  EXPECT_NE(r1.to_json().find("\"p50_us\": 250"), std::string::npos);

  r1.clear();
  EXPECT_EQ(r1.counter_total("a.first"), 0u);
}

// ------------------------------------------------------------------ tracer

TEST(Tracer, SpanLifecycleAndKeying) {
  obs::Tracer tr;
  const obs::TraceId t = tr.begin("setData /x", /*origin_site=*/1, /*now=*/100);
  ASSERT_NE(t, obs::kNoTrace);

  tr.open(t, SpanKind::kEnqueue, 1, "s1", 100);
  tr.open(t, SpanKind::kZabPropose, 0, "va", 150);  // concurrent, other site
  tr.open(t, SpanKind::kZabPropose, 1, "ca", 160);
  tr.close(t, SpanKind::kZabPropose, 0, 200);  // must hit site 0, not site 1
  tr.close(t, SpanKind::kZabPropose, 1, 260);
  tr.close(t, SpanKind::kEnqueue, 1, 120);
  tr.point(t, SpanKind::kApply, 1, "s1", 300);
  tr.end(t, 310);

  const obs::TraceRecord* rec = tr.find(t);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->completed());
  EXPECT_EQ(rec->duration(), 210);
  ASSERT_EQ(rec->spans.size(), 4u);
  EXPECT_EQ(rec->spans[1].site, 0);
  EXPECT_EQ(rec->spans[1].duration(), 50);
  EXPECT_EQ(rec->spans[2].site, 1);
  EXPECT_EQ(rec->spans[2].duration(), 100);
  EXPECT_EQ(rec->spans[3].duration(), 0);  // point event

  const auto kinds = tr.kinds_of(t);
  const std::vector<SpanKind> want{SpanKind::kEnqueue, SpanKind::kZabPropose,
                                   SpanKind::kZabPropose, SpanKind::kApply};
  EXPECT_EQ(kinds, want);
}

TEST(Tracer, CloseWithoutOpenAndUnknownTraceAreNoOps) {
  obs::Tracer tr;
  tr.close(42, SpanKind::kWanHop, 0, 10);  // unknown trace
  const obs::TraceId t = tr.begin("op", 0, 0);
  tr.close(t, SpanKind::kWanHop, 0, 10);  // never opened
  tr.open(t, SpanKind::kWanHop, 0, "b", 20);
  tr.close(t, SpanKind::kWanHop, 1, 30);  // wrong site: no-op
  ASSERT_EQ(tr.find(t)->spans.size(), 1u);
  EXPECT_FALSE(tr.find(t)->spans[0].closed());
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  obs::Tracer tr;
  tr.set_enabled(false);
  EXPECT_EQ(tr.begin("op", 0, 0), obs::kNoTrace);
  EXPECT_EQ(tr.trace_count(), 0u);
}

TEST(Tracer, SlowestOrdersByDurationThenId) {
  obs::Tracer tr;
  const auto a = tr.begin("a", 0, 0);
  tr.end(a, 100);
  const auto b = tr.begin("b", 0, 0);
  tr.end(b, 500);
  const auto c = tr.begin("c", 0, 0);
  tr.end(c, 100);
  const auto d = tr.begin("d", 0, 0);  // never completes: excluded
  (void)d;

  const auto top = tr.slowest(10);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0]->id, b);
  EXPECT_EQ(top[1]->id, a);  // duration tie with c: lower id first
  EXPECT_EQ(top[2]->id, c);
  EXPECT_EQ(tr.slowest(1).size(), 1u);
}

TEST(Tracer, SpanLatenciesAndReports) {
  obs::Tracer tr;
  const auto t = tr.begin("setData /k", 2, 1000);
  tr.open(t, SpanKind::kWanHop, 0, "fra-l1", 1000, "site 2 -> site 0");
  tr.close(t, SpanKind::kWanHop, 0, 45000);
  tr.end(t, 90000);

  const auto lat = tr.span_latencies(SpanKind::kWanHop);
  ASSERT_EQ(lat.count(), 1u);
  EXPECT_EQ(lat.max_us(), 44000);
  EXPECT_EQ(tr.span_latencies(SpanKind::kTokenWait).count(), 0u);

  const std::string text = tr.format_trace(t);
  EXPECT_NE(text.find("setData /k"), std::string::npos);
  EXPECT_NE(text.find("wan_hop"), std::string::npos);
  EXPECT_NE(text.find("site 2 -> site 0"), std::string::npos);
  const std::string table = tr.breakdown_table();
  EXPECT_NE(table.find("wan_hop"), std::string::npos);
  EXPECT_EQ(table.find("token_wait"), std::string::npos);  // empty kinds omitted
}

// ------------------------------------------- satellite: LatencyRecorder

TEST(LatencyRecorder, MergePreservesExactPercentiles) {
  LatencyRecorder a, b;
  for (Time v : {10, 30, 50, 70, 90}) a.record(v);
  for (Time v : {20, 40, 60, 80, 100}) b.record(v);
  a.merge(b);
  ASSERT_EQ(a.count(), 10u);
  // Nearest-rank over the merged, sorted samples 10..100.
  EXPECT_EQ(a.percentile_us(0.5), 50);
  EXPECT_EQ(a.percentile_us(0.9), 90);
  EXPECT_EQ(a.percentile_us(0.91), 100);
  EXPECT_EQ(a.min_us(), 10);
  EXPECT_EQ(a.max_us(), 100);
}

TEST(LatencyRecorder, PercentileBoundaryRanks) {
  LatencyRecorder r;
  for (Time v : {5, 15, 25}) r.record(v);
  EXPECT_EQ(r.percentile_us(0.0), 5);   // rank 0 clamps to the first sample
  EXPECT_EQ(r.percentile_us(1.0), 25);  // rank n is the last sample
  EXPECT_THROW(r.percentile_us(1.5), std::invalid_argument);
  LatencyRecorder empty;
  EXPECT_EQ(empty.percentile_us(0.5), 0);
}

TEST(LatencyRecorder, CdfEmptyAndSingleSample) {
  LatencyRecorder empty;
  EXPECT_TRUE(empty.cdf().empty());

  LatencyRecorder one;
  one.record(2000);
  const auto points = one.cdf();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].first, 2.0);  // ms
  EXPECT_DOUBLE_EQ(points[0].second, 1.0);
}

// --------------------------------------- satellite: throughput guard

TEST(ClientMetrics, ThroughputGuardsUnfinishedRuns) {
  ycsb::ClientMetrics m;
  m.ops = 100;
  m.started = 5 * kSecond;
  m.finished = 0;  // crashed mid-run: finished never stamped
  EXPECT_DOUBLE_EQ(m.throughput(), 0.0);
  m.finished = m.started;  // zero-length window
  EXPECT_DOUBLE_EQ(m.throughput(), 0.0);
  m.finished = m.started + 10 * kSecond;
  EXPECT_DOUBLE_EQ(m.throughput(), 10.0);
}

// --------------------------------------- satellite: WANKEEPER_LOG parsing

TEST(Logging, LevelFromStringAcceptsDocumentedLevels) {
  EXPECT_EQ(log_level_from_string("trace"), LogLevel::kTrace);
  EXPECT_EQ(log_level_from_string("debug"), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_string("info"), LogLevel::kInfo);
  EXPECT_EQ(log_level_from_string("warn"), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_string("error"), LogLevel::kError);
}

TEST(Logging, LevelFromStringIgnoresJunk) {
  EXPECT_EQ(log_level_from_string(nullptr), LogLevel::kOff);
  EXPECT_EQ(log_level_from_string(""), LogLevel::kOff);
  EXPECT_EQ(log_level_from_string("off"), LogLevel::kOff);
  EXPECT_EQ(log_level_from_string("DEBUG"), LogLevel::kOff);  // case-sensitive
  EXPECT_EQ(log_level_from_string("verbose"), LogLevel::kOff);
  EXPECT_EQ(log_level_from_string("info "), LogLevel::kOff);
}

// ------------------------------------------------------------ integration

constexpr SiteId kVA = 0;
constexpr SiteId kCA = 1;
constexpr SiteId kFRA = 2;

struct WanFixture {
  sim::Simulator sim{2024};
  sim::Network net{sim, sim::LatencyModel::paper_wan()};
  wk::TokenAuditor audit;
  wk::Deployment deploy;

  explicit WanFixture(wk::DeploymentConfig cfg = {})
      : deploy(sim, net, cfg, &audit) {}

  zk::ClientResult run_op(const std::function<void(zk::Client::Callback)>& op,
                          Time max_wait = 5 * kSecond) {
    zk::ClientResult out;
    bool done = false;
    op([&](const zk::ClientResult& r) {
      out = r;
      done = true;
    });
    const Time deadline = sim.now() + max_wait;
    while (!done && sim.now() < deadline && sim.step()) {
    }
    EXPECT_TRUE(done) << "op did not complete";
    return out;
  }
};

bool has_subsequence(const std::vector<SpanKind>& kinds,
                     const std::vector<SpanKind>& want) {
  std::size_t i = 0;
  for (const SpanKind k : kinds) {
    if (i < want.size() && k == want[i]) ++i;
  }
  return i == want.size();
}

// Migrate /hot's token to California, then write it from Frankfurt: the
// write must be forwarded to L2, park behind a recall, get serialized at
// Virginia, and fan back out — and its trace must say exactly that.
TEST(ObsIntegration, ContendedRemoteWriteSpanSequence) {
  WanFixture f;
  ASSERT_TRUE(f.deploy.wait_ready());
  auto ca = f.deploy.make_client("ca-client", kCA, 9001);
  auto fra = f.deploy.make_client("fra-client", kFRA, 9002);

  // Two consecutive CA accesses: the consecutive:2 policy migrates the token.
  ASSERT_TRUE(f.run_op([&](zk::Client::Callback cb) {
                 ca->create("/hot", "0", false, false, std::move(cb));
               }).ok());
  ASSERT_TRUE(f.run_op([&](zk::Client::Callback cb) {
                 ca->set_data("/hot", "1", -1, std::move(cb));
               }).ok());
  f.sim.run_for(1 * kSecond);
  ASSERT_TRUE(f.deploy.site_leader(kCA)->site_tokens().owns(wk::node_token("/hot")));

  // Record only the contended write.
  f.sim.obs().clear();
  const Time t0 = f.sim.now();
  ASSERT_TRUE(f.run_op([&](zk::Client::Callback cb) {
                 fra->set_data("/hot", "2", -1, std::move(cb));
               }).ok());
  const Time latency = f.sim.now() - t0;

  const auto& tracer = f.sim.obs().tracer;
  const obs::TraceRecord* trace = nullptr;
  for (const obs::TraceRecord& rec : tracer.traces()) {
    if (rec.what == "setData /hot" && rec.origin_site == kFRA) trace = &rec;
  }
  ASSERT_NE(trace, nullptr) << "contended write left no trace";
  EXPECT_TRUE(trace->completed());
  EXPECT_EQ(trace->duration(), latency);

  const auto kinds = tracer.kinds_of(trace->id);
  EXPECT_TRUE(has_subsequence(
      kinds, {SpanKind::kEnqueue, SpanKind::kWanHop, SpanKind::kTokenWait,
              SpanKind::kZabPropose, SpanKind::kApply}))
      << tracer.format_trace(trace->id);

  // Up hop (FRA->VA) and down hop (VA->FRA): at least two WAN hops, and the
  // recall round-trip puts the token wait at >= one VA<->CA RTT (62 ms).
  std::size_t wan_hops = 0;
  Time token_wait = 0;
  for (const auto& span : trace->spans) {
    if (span.kind == SpanKind::kWanHop) ++wan_hops;
    if (span.kind == SpanKind::kTokenWait && span.closed()) {
      token_wait += span.duration();
    }
  }
  EXPECT_GE(wan_hops, 2u) << tracer.format_trace(trace->id);
  EXPECT_GE(token_wait, 60 * kMillisecond) << tracer.format_trace(trace->id);
  EXPECT_TRUE(f.audit.clean());

  // The recall RTT landed in the registry too.
  EXPECT_EQ(f.sim.obs().metrics.counter_total("token.recalls"), 1u);
  EXPECT_EQ(
      f.sim.obs().metrics.histogram("token.recall_latency_us").count(), 1u);
}

// Registry counters are incremented adjacent to every auditor count, so
// after any workload the two books must agree exactly.
TEST(ObsIntegration, RegistryCountersMatchTokenAuditor) {
  WanFixture f;
  ASSERT_TRUE(f.deploy.wait_ready());
  auto ca = f.deploy.make_client("ca-client", kCA, 9001);
  auto fra = f.deploy.make_client("fra-client", kFRA, 9002);

  auto write = [&](zk::Client& c, const std::string& path, const char* v) {
    ASSERT_TRUE(f.run_op([&](zk::Client::Callback cb) {
                   c.set_data(path, v, -1, std::move(cb));
                 }).ok());
  };
  ASSERT_TRUE(f.run_op([&](zk::Client::Callback cb) {
                 ca->create("/contended", "0", false, false, std::move(cb));
               }).ok());
  for (int round = 0; round < 3; ++round) {
    write(*ca, "/contended", "ca");
    write(*ca, "/contended", "ca2");  // migrates the token to CA
    f.sim.run_for(1 * kSecond);
    write(*ca, "/contended", "local");  // local commit under the token
    write(*fra, "/contended", "fra");   // recall + L2 serve
    f.sim.run_for(1 * kSecond);
  }
  f.sim.run_for(2 * kSecond);

  const auto& reg = f.sim.obs().metrics;
  EXPECT_EQ(reg.counter_total("token.grants"), f.audit.grants());
  EXPECT_EQ(reg.counter_total("token.recalls"), f.audit.recalls());
  EXPECT_EQ(reg.counter_total("token.returns"), f.audit.returns());
  EXPECT_EQ(reg.counter_total("token.local_commits"), f.audit.local_commits());
  EXPECT_EQ(reg.counter_total("token.remote_commits"), f.audit.remote_commits());
  EXPECT_GT(f.audit.grants(), 0u);
  EXPECT_GT(f.audit.recalls(), 0u);
  EXPECT_GT(f.audit.local_commits(), 0u);
  EXPECT_TRUE(f.audit.clean());
}

// A hub-site write whose token is home serializes at once: the hub's local
// commit, counted in token.local_commits (the auditor's book stays commits
// under tokens a site holds from the hub). A hub-site write that parks
// behind a recall and is re-served once the token returns is not local.
TEST(ObsIntegration, HubSiteWriteCountsAsLocalCommitUnlessParked) {
  WanFixture f;
  ASSERT_TRUE(f.deploy.wait_ready());
  auto va = f.deploy.make_client("va-client", kVA, 9003);
  auto ca = f.deploy.make_client("ca-client", kCA, 9001);
  const auto& reg = f.sim.obs().metrics;
  auto write = [&](zk::Client& c, const char* v) {
    ASSERT_TRUE(f.run_op([&](zk::Client::Callback cb) {
                   c.set_data("/h", v, -1, std::move(cb));
                 }).ok());
  };

  ASSERT_TRUE(f.run_op([&](zk::Client::Callback cb) {
                 va->create("/h", "0", false, false, std::move(cb));
               }).ok());
  write(*va, "1");
  EXPECT_EQ(reg.counter_total("token.local_commits"), 2u);
  EXPECT_EQ(f.audit.local_commits(), 0u);

  // Two consecutive CA writes migrate the token to CA; serving them is not
  // a hub-site commit.
  write(*ca, "2");
  write(*ca, "3");
  f.sim.run_for(1 * kSecond);
  ASSERT_TRUE(f.deploy.site_leader(kCA)->site_tokens().owns(wk::node_token("/h")));
  EXPECT_EQ(reg.counter_total("token.local_commits"), 2u);

  // The hub-site write now parks behind a recall and is re-served.
  write(*va, "4");
  EXPECT_EQ(reg.counter_total("broker.parked"), 1u);
  EXPECT_EQ(reg.counter_total("token.local_commits"), 2u);
  EXPECT_TRUE(f.audit.clean());
}

// Same config + seed twice: the flight-recorder exports must be identical,
// byte for byte.
TEST(ObsIntegration, ExportsAreDeterministicAcrossRuns) {
  auto run = [] {
    ycsb::RunConfig cfg;
    cfg.system = ycsb::SystemKind::kWanKeeper;
    cfg.seed = 7;
    for (SiteId site : {kCA, kFRA}) {
      ycsb::ClientSpec client;
      client.site = site;
      client.shared_fraction = 0.5;
      client.workload.record_count = 40;
      client.workload.op_count = 120;
      client.workload.write_fraction = 1.0;
      client.workload.seed = 42 + static_cast<std::uint64_t>(site);
      cfg.clients.push_back(client);
    }
    return ycsb::run_experiment(cfg);
  };
  const ycsb::RunResult r1 = run();
  const ycsb::RunResult r2 = run();

  EXPECT_FALSE(r1.metrics_json.empty());
  EXPECT_EQ(r1.metrics_json, r2.metrics_json);
  ASSERT_EQ(r1.slow_traces.size(), r2.slow_traces.size());
  EXPECT_GT(r1.slow_traces.size(), 0u);
  for (std::size_t i = 0; i < r1.slow_traces.size(); ++i) {
    EXPECT_EQ(r1.slow_traces[i], r2.slow_traces[i]);
  }
  ASSERT_EQ(r1.phase_breakdown.size(), obs::kSpanKindCount);
  for (std::size_t i = 0; i < r1.phase_breakdown.size(); ++i) {
    EXPECT_EQ(r1.phase_breakdown[i].kind, r2.phase_breakdown[i].kind);
    EXPECT_EQ(r1.phase_breakdown[i].count, r2.phase_breakdown[i].count);
    EXPECT_EQ(r1.phase_breakdown[i].p50_us, r2.phase_breakdown[i].p50_us);
    EXPECT_EQ(r1.phase_breakdown[i].p99_us, r2.phase_breakdown[i].p99_us);
    EXPECT_EQ(r1.phase_breakdown[i].total_us, r2.phase_breakdown[i].total_us);
  }
  // The breakdown actually saw the workload: every write proposes via Zab.
  const auto& zab = r1.phase_breakdown[static_cast<std::size_t>(
      SpanKind::kZabPropose)];
  EXPECT_GT(zab.count, 0u);
}

}  // namespace
}  // namespace wankeeper
