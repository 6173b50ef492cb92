// The benchmark's two phases. Each workload runs both: open-loop client
// load on three thread-runtime sites linked over loopback TCP, then a
// fixed list of deterministic-simulator (DES) scenario cells.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "open_loop.h"
#include "report.h"

namespace wkbench {

// Outcome bookkeeping shared by the phases. An op that fails, is refused
// or never completes counts as failed; a DES cell counts as one op.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

struct RtOptions {
  LoadShape shape;
  bool shared = false;  // records shared by all sites, else site-private
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Sets up the three-site cluster several times (setup_s is the fastest),
// runs the open-loop schedule on the last one, checks convergence and
// client-visible consistency, and reports latency, CPU and memory; with
// trace, also the per-layer metrics of the rt, zab, wankeeper and obs
// layers.
void run_rt_phase(const RtOptions& opt, Report& report, Tally& tally);

// Times codec, Zab log and DataTree calls on the workload's own messages,
// log entries and records (trace runs only).
void run_layer_probes(const RtOptions& opt, Report& report);

struct DesOptions {
  std::vector<std::string> scenarios;  // cycled over the cells
  int cells = 8;  // seeds 1..cells
  bool trace = false;
};

// Runs each cell through wk::run_scenario_sweep_on; every cell must pass
// SweepResult::ok(). Reports sim_cell_s and, with trace, the sim, net,
// checker, recovery and virtual-time metrics.
void run_des_phase(const DesOptions& opt, Report& report, Tally& tally);

}  // namespace wkbench
