// wkbench: the repository benchmark.
//
//   wkbench --phase <rt|des> --workload <name> --seed <n> --seconds <s>
//           --trace <0|1> [--rate <ops/s>]
//
// Each workload has two phases, run as separate processes by run.py:
// open-loop client load on three thread-runtime sites linked over loopback
// TCP (rt), and a fixed list of DES scenario cells (des). A separate
// process keeps the rt phase's threads and heap out of the simulator's
// timing. The last stdout line is the phase's JSON result with every metric
// it measured; run.py keeps those BENCHMARK.json names for the trace mode.
// --rate overrides the workload's fixed rate, for calibration only. See
// README.md.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "phases.h"

namespace wkbench {
namespace {

struct Workload {
  RtOptions rt;
  std::vector<std::string> des_scenarios;
  int des_cells = 0;
};

// Rates sit at 35-40% of each workload's knee on a 4-core host. Shared keys
// are uniform over 1000 records: Zipfian keys made three sites fight over
// one hot record, and fewer records stalled whole sites (README.md).
std::map<std::string, Workload> workloads() {
  std::map<std::string, Workload> w;
  Workload& local = w["local-mixed"];
  local.rt.shape = LoadShape{8000.0, 0.5, 100, 0.99};
  local.rt.shared = false;
  local.des_scenarios = {"calm3", "calm5"};
  local.des_cells = 36;
  Workload& shared = w["shared-writes"];
  shared.rt.shape = LoadShape{3000.0, 0.9, 1000, 0.0};
  shared.rt.shared = true;
  shared.des_scenarios = {"hostile5", "asym3_flap"};
  shared.des_cells = 12;
  return w;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "wkbench: %s\nusage: wkbench --phase <rt|des> --workload "
               "<local-mixed|shared-writes> --seed <n> --seconds <s> "
               "--trace <0|1> [--rate <ops/s>]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace wkbench

int main(int argc, char** argv) {
  using namespace wkbench;
  // The thread runtime writes frames with write(2): when a site's runtime
  // stops first (between set-ups), a peer's writer would otherwise die of
  // SIGPIPE instead of seeing EPIPE and dropping the connection.
  std::signal(SIGPIPE, SIG_IGN);
  std::string name;
  std::string phase;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  double rate = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--phase") {
      phase = value;
    } else if (arg == "--workload") {
      name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (arg == "--rate") {
      rate = std::atof(value.c_str());
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const auto all = workloads();
  const auto it = all.find(name);
  if (it == all.end()) {
    return usage(("unknown workload '" + name + "'").c_str());
  }
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  if (phase != "rt" && phase != "des") {
    return usage("--phase must be rt or des");
  }
  if (!(seconds >= 1.0 && seconds <= 60.0)) {
    return usage("--seconds out of range");
  }

  Workload w = it->second;
  w.rt.seed = seed;
  w.rt.seconds = seconds;
  w.rt.trace = trace == 1;
  if (rate > 0) w.rt.shape.rate_per_s = rate;
  std::printf("wkbench phase=%s workload=%s seed=%llu seconds=%.1f trace=%d\n",
              phase.c_str(), name.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace);

  Report report;
  Tally tally;
  if (phase == "rt") {
    run_rt_phase(w.rt, report, tally);
    if (w.rt.trace && tally.correct) run_layer_probes(w.rt, report);
  } else {
    DesOptions des;
    des.scenarios = w.des_scenarios;
    des.cells = w.des_cells;
    des.trace = w.rt.trace;
    run_des_phase(des, report, tally);
  }

  for (const std::string& p : tally.problems) {
    std::printf("!! %s\n", p.c_str());
  }
  const std::string result =
      report.json(tally.correct, tally.attempted, tally.failed);
  std::printf("%s\n", result.c_str());
  return 0;
}
