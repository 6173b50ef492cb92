// Experiment orchestration: builds one of the three systems the paper
// compares — plain ZooKeeper (voters spread across regions, leader in
// Virginia), ZooKeeper-with-observers (voting core in Virginia, observers
// in the other regions), and WanKeeper (an L1 cluster per region, Virginia
// as L2) — on the calibrated WAN, preloads records, drives closed-loop
// clients, and reports throughput/latency plus WanKeeper token statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/ownership.h"
#include "ycsb/client.h"
#include "ycsb/metrics.h"
#include "ycsb/testbed.h"
#include "ycsb/workload.h"

namespace wankeeper::ycsb {

struct ClientSpec {
  SiteId site = kCalifornia;
  WorkloadSpec workload;
  // Fraction of each client's record space that is shared with the other
  // clients (access overlap): Fig 6 uses 0, Fig 7 sweeps 0..1.
  double shared_fraction = 1.0;
  std::string tag;  // defaults to "c<i>"
};

struct RunConfig {
  SystemKind system = SystemKind::kWanKeeper;
  std::vector<ClientSpec> clients;
  std::string wk_policy = "consecutive:2";
  bool wk_hot_start = false;  // pre-grant private tokens (Fig 6 "WK Hot")
  bool batching = false;      // group commit + WAN coalescing (canonical knobs)
  // WAN channel occupancy (see sim::WanCostModel); default latency-only.
  Time wan_frame_overhead = 0;
  std::uint64_t seed = 1;
  Time settle = 1 * kSecond;
  Time max_sim_time = 4 * 3600 * kSecond;  // runaway guard
  // Flight recorder: how many of the slowest traces to carry back in the
  // result (0 disables the report; tracing itself is always on and cheap).
  std::size_t trace_report_n = 5;
};

struct RunResult {
  std::vector<ClientMetrics> clients;
  double total_throughput = 0.0;
  LatencyRecorder reads;
  LatencyRecorder writes;

  // Flight-recorder exports, captured over the measurement phase only (the
  // registry and tracer are reset after load/settle). All three are
  // deterministic for a fixed config+seed.
  struct SpanStat {
    std::string kind;        // enqueue, wan_hop, token_wait, zab_propose, apply
    std::size_t count = 0;
    Time p50_us = 0;
    Time p99_us = 0;
    Time total_us = 0;       // summed span time (where requests spend latency)
  };
  std::vector<SpanStat> phase_breakdown;  // one entry per span kind, in order
  std::string metrics_json;               // MetricsRegistry::to_json()
  std::vector<std::string> slow_traces;   // formatted N slowest traces
  // Token movement over the measurement phase, distilled from the event
  // log: per-record ownership timelines, migration counts, recall RTTs.
  obs::OwnershipAnalytics ownership;
  Time measure_end = 0;  // virtual end of the phase, for open timelines

  // WanKeeper-only accounting.
  std::uint64_t wk_local_commits = 0;
  std::uint64_t wk_forwards = 0;
  std::uint64_t wk_grants = 0;
  std::uint64_t wk_recalls = 0;
  // WAN transport frame accounting over the measurement phase (all sites):
  // frames on the wire and protocol messages inside them; their ratio is
  // the realized coalescing factor.
  std::uint64_t wk_frames_sent = 0;
  std::uint64_t wk_frame_msgs = 0;
  bool token_audit_clean = true;

  double local_write_fraction() const {
    const auto total = wk_local_commits + wk_forwards;
    return total == 0 ? 0.0
                      : static_cast<double>(wk_local_commits) /
                            static_cast<double>(total);
  }
};

RunResult run_experiment(const RunConfig& config);

}  // namespace wankeeper::ycsb
