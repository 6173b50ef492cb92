// Wall-clock runtime baseline: the same WanKeeper stack the simulator
// exercises virtually, hosted on rt::ThreadRuntime and timed against real
// hardware. Three sites live in one process (no sockets — bench_rt measures
// the runtime + protocol stack, the rt-soak CI job covers the TCP mesh).
//
// Workload: closed-loop clients, Zipfian key choice over a keyspace that is
// half site-private, half shared across sites (shared keys force token
// recalls through the hub), 50/50 read/write.
//
// Reported, emitted to BENCH_rt.json:
//   ops/sec, latency percentiles (p50/p95/p99/max, microseconds),
//   per-op error count, dropped frames, final convergence.
//
// Regression gates (CI runs `fig_rt --quick`):
//   liveness    — every op completes ok, replicas converge at the end;
//   throughput  — a deliberately conservative ops/sec floor. The modeled
//                 service time (150 us) + head overhead (100 us) are real
//                 timer waits on this runtime, so a closed-loop client is
//                 bounded near ~4k ops/s; the floor only catches an
//                 order-of-magnitude stall, not host jitter;
//   tail        — p99 ceiling, again orders of magnitude above healthy.
//
//   ./build/bench/fig_rt [--quick] [--out BENCH_rt.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "rt/cluster.h"
#include "rt/thread_runtime.h"
#include "zk/client.h"

using namespace wankeeper;

namespace {

struct BenchResult {
  std::vector<std::uint64_t> latencies_us;  // merged, sorted
  std::uint64_t errors = 0;
  double wall_ms = 0.0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t zab_proposals = 0;  // aggregated across loop threads
  bool converged = false;
  bool ready = true;

  double ops_per_sec() const {
    return wall_ms <= 0.0 ? 0.0
                          : static_cast<double>(latencies_us.size()) /
                                (wall_ms / 1000.0);
  }
  std::uint64_t pct(double p) const {
    if (latencies_us.empty()) return 0;
    const auto at = static_cast<std::size_t>(
        p * static_cast<double>(latencies_us.size() - 1));
    return latencies_us[at];
  }
};

class BenchDriver {
 public:
  BenchDriver(rt::ThreadRuntime& rt, rt::HostedCluster& cluster,
              std::size_t ops_per_client, std::size_t keys)
      : rt_(rt),
        cluster_(cluster),
        ops_per_client_(ops_per_client),
        keys_(keys),
        zipf_(keys * 2) {
    per_client_.resize(cluster.local_client_count());
    for (auto& v : per_client_) v.reserve(ops_per_client);
  }

  bool precreate() {
    std::atomic<long> pending{0};
    for (std::size_t i = 0; i < cluster_.local_client_count(); ++i) {
      // Every client creates its own site's keys; redundant creates across
      // co-sited clients fail benignly with kNodeExists.
      zk::Client* c = &cluster_.client(i);
      const SiteId site = cluster_.client_site(i);
      for (std::size_t j = 0; j < keys_; ++j) {
        for (const std::string& key :
             {"/s" + std::to_string(site) + "-k" + std::to_string(j),
              "/shared-k" + std::to_string(j)}) {
          ++pending;
          rt_.call(c->id(), [c, key, &pending] {
            c->create(key, key, false, false,
                      [&pending](const zk::ClientResult&) { --pending; });
          });
        }
      }
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (pending.load() > 0) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return true;
  }

  bool run() {
    const std::size_t n = cluster_.local_client_count();
    const auto bench_start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      zk::Client* c = &cluster_.client(i);
      const SiteId site = cluster_.client_site(i);
      rt_.call(c->id(), [this, c, site, i] { next_op(c, site, i, 0); });
    }
    const auto deadline = bench_start + std::chrono::seconds(180);
    while (clients_done_.load() < static_cast<long>(n)) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    wall_ms_ = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - bench_start)
                   .count();
    return true;
  }

  BenchResult collect() {
    BenchResult r;
    for (const auto& v : per_client_) {
      r.latencies_us.insert(r.latencies_us.end(), v.begin(), v.end());
    }
    std::sort(r.latencies_us.begin(), r.latencies_us.end());
    r.errors = errors_.load();
    r.wall_ms = wall_ms_;
    return r;
  }

 private:
  // Runs on the client's loop. per_client_[idx] is loop-confined until
  // collect(), which runs after every client reported done.
  void next_op(zk::Client* c, SiteId site, std::size_t idx, std::size_t done) {
    if (done >= ops_per_client_) {
      ++clients_done_;
      return;
    }
    Rng& rng = rt_.rng();
    const std::uint64_t draw = zipf_.next(rng);
    const std::string key =
        draw < keys_
            ? "/shared-k" + std::to_string(draw)
            : "/s" + std::to_string(site) + "-k" + std::to_string(draw - keys_);
    const bool write = rng.chance(0.5);
    const auto start = std::chrono::steady_clock::now();
    auto finish = [this, c, site, idx, done,
                   start](const zk::ClientResult& r) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      per_client_[idx].push_back(static_cast<std::uint64_t>(us));
      if (!r.ok()) ++errors_;
      next_op(c, site, idx, done + 1);
    };
    if (write) {
      c->set_data(key, "v" + std::to_string(done), -1, std::move(finish));
    } else {
      c->get_data(key, false, std::move(finish));
    }
  }

  rt::ThreadRuntime& rt_;
  rt::HostedCluster& cluster_;
  const std::size_t ops_per_client_;
  const std::size_t keys_;
  Zipfian zipf_;
  std::vector<std::vector<std::uint64_t>> per_client_;
  std::atomic<long> clients_done_{0};
  std::atomic<std::uint64_t> errors_{0};
  double wall_ms_ = 0.0;
};

BenchResult run_bench(bool quick) {
  rt::ClusterConfig cfg;
  cfg.sites = 3;
  cfg.nodes_per_site = 2;
  cfg.clients_per_site = quick ? 2 : 4;
  cfg.base_port = 0;  // all sites in-process; rt-soak covers the TCP path
  cfg.seed = 7;
  const std::size_t ops = quick ? 400 : 2000;
  const std::size_t keys = 16;

  rt::ThreadRuntime trt(cfg.seed);
  rt::HostedCluster cluster(trt, cfg);
  cluster.start();

  BenchResult r;
  if (!cluster.wait_ready(60 * kSecond)) {
    r.ready = false;
    return r;
  }
  BenchDriver driver(trt, cluster, ops, keys);
  if (!driver.precreate() || !driver.run()) {
    r.ready = false;
    return r;
  }
  r = driver.collect();

  // Converge: fan-outs from the last writes are still in flight.
  const Time settle_deadline = trt.now() + 20 * kSecond;
  while (trt.now() < settle_deadline) {
    if (cluster.converged_locally()) {
      r.converged = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  r.frames_dropped = trt.frames_dropped();

  // Metrics live in per-loop registries on this runtime; fold them into
  // one deployment-wide view (obs::MetricsRegistry::merge_from).
  obs::MetricsRegistry all;
  trt.collect_metrics(all);
  r.zab_proposals = all.counter_total("zab.proposals");
  return r;
}

int gate(bool pass, const char* what) {
  if (!pass) std::printf("!! FAIL: %s\n", what);
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_rt.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  std::printf("=== Thread-runtime wall-clock baseline (3 sites, %s) ===\n",
              quick ? "quick" : "full");
  const BenchResult r = run_bench(quick);
  if (!r.ready) {
    std::printf("!! FAIL: cluster never became ready / load stalled\n");
    return 1;
  }

  const double ops_per_sec = r.ops_per_sec();
  std::printf("ops:         %zu (%llu error(s))\n", r.latencies_us.size(),
              static_cast<unsigned long long>(r.errors));
  std::printf("wall time:   %.1f ms  ->  %.0f ops/sec\n", r.wall_ms,
              ops_per_sec);
  std::printf("latency us:  p50 %llu  p95 %llu  p99 %llu  max %llu\n",
              static_cast<unsigned long long>(r.pct(0.50)),
              static_cast<unsigned long long>(r.pct(0.95)),
              static_cast<unsigned long long>(r.pct(0.99)),
              static_cast<unsigned long long>(r.pct(1.0)));
  std::printf("frames dropped: %llu, converged: %s, zab proposals: %llu\n",
              static_cast<unsigned long long>(r.frames_dropped),
              r.converged ? "yes" : "no",
              static_cast<unsigned long long>(r.zab_proposals));

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::printf("!! cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"ops\": %zu, \"errors\": %llu,\n",
                 r.latencies_us.size(),
                 static_cast<unsigned long long>(r.errors));
    std::fprintf(f, "  \"wall_ms\": %.1f, \"ops_per_sec\": %.0f,\n", r.wall_ms,
                 ops_per_sec);
    std::fprintf(
        f,
        "  \"p50_us\": %llu, \"p95_us\": %llu, \"p99_us\": %llu, "
        "\"max_us\": %llu,\n",
        static_cast<unsigned long long>(r.pct(0.50)),
        static_cast<unsigned long long>(r.pct(0.95)),
        static_cast<unsigned long long>(r.pct(0.99)),
        static_cast<unsigned long long>(r.pct(1.0)));
    std::fprintf(f, "  \"frames_dropped\": %llu, \"zab_proposals\": %llu, "
                 "\"converged\": %s\n}\n",
                 static_cast<unsigned long long>(r.frames_dropped),
                 static_cast<unsigned long long>(r.zab_proposals),
                 r.converged ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  int rc = 0;
  rc |= gate(!r.latencies_us.empty(), "no ops completed");
  rc |= gate(r.errors == 0, "client ops failed");
  rc |= gate(r.converged, "replicas did not converge after the burst");
  rc |= gate(r.frames_dropped == 0, "runtime dropped frames");
  rc |= gate(r.zab_proposals > 0, "metrics aggregation saw no zab proposals");
  // Loose floors: a closed-loop client is bounded near ~4k ops/s by the
  // modeled 250 us of per-op timer waits; 200 total catches a stall only.
  rc |= gate(ops_per_sec >= 200.0, "below 200 ops/sec");
  rc |= gate(r.pct(0.99) < 500000, "p99 above 500 ms");

  std::printf(rc == 0 ? "\nall rt-bench gates passed\n"
                      : "\nrt-bench gates FAILED\n");
  return rc;
}
