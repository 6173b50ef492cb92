// Scenario cells on the deterministic simulator (DES), through the same
// sweep harness the tier-1 scenario tests and tools/seed_hunt use. Wall
// time per cell is what every seed hunt pays; the counters are
// deterministic per (scenario, seed, batching) and virtual-time latencies
// are labelled as such.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "phases.h"
#include "sim/message.h"
#include "wankeeper/sweep_harness.h"

namespace wkbench {
namespace {

using namespace wankeeper;

constexpr int kRounds = 11;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

void run_des_phase(const DesOptions& opt, Report& rep, Tally& tally) {
  Report::section("des: scenario cells on the deterministic simulator");
  std::vector<double> check_ms;
  std::vector<Time> virt_us;
  double events = 0, client_ops = 0, fn_heap = 0, arena_allocs = 0,
         arena_reused = 0, queue_hw = 0, msgs = 0, bytes = 0, wan_msgs = 0,
         dropped = 0, elections = 0, resync_rounds = 0, reconcile = 0,
         profiled_ns = 0;
  // Every cell runs kRounds times, round-robin over the list, and its
  // fastest run counts: host noise here only ever adds time, and a slow
  // spell of the host lands in one round rather than in every run of one
  // cell. The runs of a cell must agree on the event digest (the DES is
  // deterministic, so a difference is a bug, not noise).
  const std::size_t ns = opt.scenarios.size();
  const auto cells = static_cast<std::size_t>(opt.cells);
  std::vector<double> best_s(cells, 1e30);
  std::vector<std::uint64_t> digests(cells, 0);
  auto run_cell = [&](std::size_t c) {
    const std::string& name = opt.scenarios[c % ns];
    const bool batching = (c / ns) % 2 == 1;
    sim::reset_message_arena_stats();
    const std::int64_t t0 = now_ns();
    sim::Scenario scenario = sim::make_scenario(name);
    wk::DeploymentConfig cfg;
    cfg.sites = scenario.sites();
    if (batching) cfg.enable_batching();
    // A fixed seed list: the cells, their event counts and digests are the
    // same in every run, so only the host moves sim_cell_s.
    auto d = std::make_unique<wk::LoadedDeployment>(
        c + 1, cfg, sim::scenario_latency(scenario));
    if (opt.trace) d->sim.enable_profiling();
    wk::SweepResult r = wk::run_scenario_sweep_on(*d, scenario);
    best_s[c] = std::min(best_s[c], static_cast<double>(now_ns() - t0) / 1e9);
    return std::make_pair(std::move(d), r);
  };
  for (int round = 1; round < kRounds; ++round) {
    for (std::size_t c = 0; c < cells; ++c) {
      auto run = run_cell(c);
      const std::uint64_t digest = fnv1a(run.first->sim.obs().events.to_text());
      if (round > 1 && digest != digests[c]) {
        tally.fail("DES cell " + std::to_string(c + 1) +
                   " is nondeterministic: event digests differ across runs");
      }
      digests[c] = digest;
    }
  }
  // The last round is the one reported.
  for (std::size_t c = 0; c < cells; ++c) {
    const std::string& name = opt.scenarios[c % ns];
    const bool batching = (c / ns) % 2 == 1;
    const std::uint64_t seed = c + 1;
    auto [d, r] = run_cell(c);
    const std::uint64_t digest = fnv1a(d->sim.obs().events.to_text());
    if (digest != digests[c]) {
      tally.fail("DES cell " + name + " seed " + std::to_string(seed) +
                 " is nondeterministic: event digests differ across runs");
    }

    ++tally.attempted;
    if (!r.ok()) {
      ++tally.failed;
      tally.fail("DES cell " + name + " seed " + std::to_string(seed) +
                 " failed: audit_clean=" + std::to_string(r.audit_clean) +
                 " converged=" + std::to_string(r.converged) +
                 " consistency_clean=" + std::to_string(r.consistency_clean) +
                 " duplicate_mints=" + std::to_string(r.duplicate_mints) +
                 " dueling_hubs=" + std::to_string(r.dueling_hubs));
    }

    const sim::SimProfile& prof = d->sim.profile();
    const sim::NetworkStats& net = d->net.stats();
    const auto& arena = sim::message_arena_stats();
    const auto merged = d->sim.obs().events.merged();
    double cell_elections = 0;
    for (const obs::Event& ev : merged) {
      if (ev.kind == obs::EventKind::kLeaderElected) ++cell_elections;
    }
    // Steadiness self-check: the event digest repeats exactly for a given
    // (scenario, seed, batching) on any host.
    std::printf("  cell %-11s seed %-7llu batching %d: %.3f s, %llu ops, "
                "%llu events, digest %016llx, %s\n",
                name.c_str(), static_cast<unsigned long long>(seed),
                int(batching), best_s[c],
                static_cast<unsigned long long>(r.completed_total),
                static_cast<unsigned long long>(prof.events_executed),
                static_cast<unsigned long long>(digest),
                r.ok() ? "ok" : "FAILED");

    events += static_cast<double>(prof.events_executed);
    client_ops += static_cast<double>(r.completed_total);
    fn_heap += static_cast<double>(prof.fn_heap_allocs);
    arena_allocs += static_cast<double>(arena.allocs);
    arena_reused += static_cast<double>(arena.reused);
    queue_hw = std::max(queue_hw, static_cast<double>(prof.queue_high_water));
    msgs += static_cast<double>(net.messages_sent);
    bytes += static_cast<double>(net.bytes_sent);
    wan_msgs += static_cast<double>(net.wan_messages);
    dropped += static_cast<double>(net.messages_dropped);
    elections += cell_elections;
    const auto& metrics = d->sim.obs().metrics;
    resync_rounds +=
        static_cast<double>(metrics.counter_total("resync.rounds"));
    reconcile +=
        static_cast<double>(metrics.counter_total("reconcile.entered"));
    profiled_ns += static_cast<double>(prof.wall_ns);
    if (opt.trace) {
      const std::int64_t c0 = now_ns();
      const auto violations = wk::ConsistencyChecker::check(d->history);
      check_ms.push_back(static_cast<double>(now_ns() - c0) / 1e6);
      if (!violations.empty()) tally.fail("DES consistency violation");
      for (const wk::ClientOp& op : d->history.ops()) {
        if (op.ok) virt_us.push_back(op.end - op.start);
      }
    }
  }

  // Mean over the fixed cell list, not a median: cells of different
  // scenarios differ several-fold in cost, so a median across cells would
  // jump between them.
  double total_s = 0;
  for (const double s : best_s) total_s += s;
  const std::string n_cells = std::to_string(opt.cells);
  rep.metric("sim_cell_s", total_s / opt.cells, "s",
             "(mean over " + n_cells + " cells of each cell's fastest of " +
                 std::to_string(kRounds) + " runs)");
  if (!opt.trace) return;

  const std::string per_op = "simulated client ops";
  rep.ratio("sim.events_per_op", events, "events", client_ops, per_op, "count");
  rep.ratio("sim.events_per_s", events, "events", profiled_ns / 1e9,
            "s in the profiled event loop", "1/s");
  rep.ratio("sim.fn_heap_allocs_per_cell", fn_heap, "heap-allocated callables",
            opt.cells, "cells", "count");
  rep.ratio("sim.arena_reuse_ratio", arena_reused, "recycled frames",
            arena_allocs, "message frames");
  rep.metric("sim.queue_high_water", queue_hw, "count", "(max over cells)");
  rep.ratio("net.msgs_per_op", msgs, "messages", client_ops, per_op, "count");
  rep.ratio("net.bytes_per_op", bytes, "modelled bytes", client_ops, per_op,
            "bytes");
  rep.ratio("net.wan_msgs_per_op", wan_msgs, "WAN messages", client_ops, per_op,
            "count");
  rep.ratio("net.drop_ratio", dropped, "dropped", msgs, "messages sent");
  rep.metric("check.ms_per_cell", median(check_ms), "ms",
             "(ConsistencyChecker::check, median of " + n_cells + " cells)");
  rep.ratio("recovery.elections_per_cell", elections, "leader elections",
            opt.cells, "cells", "count");
  rep.ratio("recovery.resync_rounds_per_cell", resync_rounds, "resync rounds",
            opt.cells, "cells", "count");
  rep.ratio("recovery.reconcile_entered_per_cell", reconcile,
            "hub RECONCILING entries", opt.cells, "cells", "count");
  std::sort(virt_us.begin(), virt_us.end());
  std::printf("  virtual time below (DES clock, not wall clock):\n");
  rep.pct("virt.op_p50_ms", percentile(virt_us, 0.50), 1e-3, "ms");
  rep.pct("virt.op_p99_ms", percentile(virt_us, 0.99), 1e-3, "ms");
}

}  // namespace wkbench
