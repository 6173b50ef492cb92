// Shared sweep harness: a loaded multi-site deployment driven through a
// seed-derived schedule of node crashes (the canonical crash sweep) or a
// scripted hostile-WAN scenario (sim/scenario.h), then quiesced and checked
// for token safety, cross-site convergence, and — via the recorded
// operation history — client-visible consistency (wankeeper/consistency.h).
// One definition serves the gtest sweeps (tests/test_failures.cpp,
// tests/test_scenario.cpp), the recovery fault-injection tests
// (tests/test_recovery.cpp), and the CI seed hunter (tools/seed_hunt) so
// "seed N failed under scenario S" means the same schedule everywhere.
//
// Header-only and gtest-free on purpose: the callers assert on SweepResult
// with whatever reporting they have (EXPECT_*, exit codes, artifacts).
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "obs/ownership.h"
#include "sim/failure.h"
#include "sim/network.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "wankeeper/consistency.h"
#include "wankeeper/deployment.h"

namespace wankeeper::wk {

struct LoadedDeployment {
  sim::Simulator sim;
  sim::Network net;
  TokenAuditor audit;
  Deployment deploy;
  OpHistory history;
  std::vector<std::unique_ptr<zk::Client>> clients;
  std::vector<std::uint32_t> session_epoch;
  std::vector<std::uint64_t> completed;
  bool stop = false;

  // Scenario-sweep knobs (unused by the legacy crash sweep).
  sim::Scenario* scenario = nullptr;  // polled for per-site load factors
  int keys = 10;
  double read_fraction = 0.3;
  Time think_base = 20 * kMillisecond;  // per-op think time at load 1.0
  Time op_timeout = 25 * kSecond;       // watchdog: reconnect + move on

  LoadedDeployment(std::uint64_t seed, DeploymentConfig cfg,
                   sim::LatencyModel lat)
      : sim(seed), net(sim, std::move(lat)), deploy(sim, net, cfg, &audit) {}

  explicit LoadedDeployment(std::uint64_t seed, DeploymentConfig cfg = {})
      : LoadedDeployment(seed, cfg, sim::LatencyModel::paper_wan()) {}

  SiteId client_site(std::size_t i) const { return static_cast<SiteId>(i); }

  // --- legacy write-only load (the canonical crash sweep) ---
  // The op schedule (RNG draws, paths, timing) is frozen: tests and the
  // nightly hunt identify failures by seed, so "seed N" must mean the same
  // run it meant in PR 5. History recording rides along without consuming
  // randomness.
  void start_load() {
    auto setup = deploy.make_client("setup", 0, 50);
    sim.run_for(500 * kMillisecond);
    int created = 0;
    for (int k = 0; k < 10; ++k) {
      setup->create("/k" + std::to_string(k), "0", false, false,
                    [&](const zk::ClientResult&) { ++created; });
    }
    sim.run_for(5 * kSecond);

    const std::size_t n = deploy.sites();
    completed.assign(n, 0);
    session_epoch.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      clients.push_back(deploy.make_client("c" + std::to_string(i),
                                           client_site(i),
                                           1000 + static_cast<SessionId>(i)));
    }
    sim.run_for(1 * kSecond);
    for (std::size_t i = 0; i < n; ++i) issue(i);
  }

  void issue(std::size_t i) {
    if (stop) return;
    auto& rng = sim.rng();
    const std::string path = "/k" + std::to_string(rng.uniform(10));
    const std::uint64_t hid =
        history.begin(1000 + static_cast<SessionId>(i), session_epoch[i],
                      client_site(i), ClientOp::Kind::kWrite, path, sim.now());
    clients[i]->set_data(
        path, "v", -1, [this, i, hid](const zk::ClientResult& r) {
          history.finish(hid, sim.now(), r.ok(), r.stat.version);
          if (r.ok()) ++completed[i];
          if (r.rc == store::Rc::kSessionExpired) {
            // The WAN heartbeater expired us while our site was cut off;
            // do what a real client does and start a fresh session.
            ++session_epoch[i];
            clients[i]->reconnect();
          }
          issue(i);  // retry/continue regardless of rc
        });
  }

  // --- mixed read/write load for scenario sweeps ---
  // Closed loop with think time: each client alternates reads and writes
  // over the shared key space, throttled by the scenario's per-site load
  // factor (diurnal shifts). A watchdog abandons ops whose replies are
  // lost to crashes or cuts (reconnecting like a real client would); the
  // op history still captures a late-arriving true outcome, and the
  // checker treats abandoned writes as potential committers.
  void start_mixed_load() {
    auto setup = deploy.make_client("setup", 0, 50);
    sim.run_for(500 * kMillisecond);
    int created = 0;
    for (int k = 0; k < keys; ++k) {
      setup->create("/k" + std::to_string(k), "0", false, false,
                    [&](const zk::ClientResult&) { ++created; });
    }
    sim.run_for(5 * kSecond);

    const std::size_t n = deploy.sites();
    completed.assign(n, 0);
    session_epoch.assign(n, 0);
    op_gen_.assign(n, 0);
    outstanding_.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      clients.push_back(deploy.make_client("c" + std::to_string(i),
                                           client_site(i),
                                           1000 + static_cast<SessionId>(i)));
    }
    sim.run_for(1 * kSecond);
    for (std::size_t i = 0; i < n; ++i) issue_mixed(i);
  }

  void issue_mixed(std::size_t i) {
    if (stop) return;
    auto& rng = sim.rng();
    const std::string path = "/k" + std::to_string(rng.uniform(
                                        static_cast<std::size_t>(keys)));
    const bool is_read = rng.chance(read_fraction);
    const std::uint64_t gen = ++op_gen_[i];
    outstanding_[i] = true;
    const std::uint64_t hid = history.begin(
        1000 + static_cast<SessionId>(i), session_epoch[i], client_site(i),
        is_read ? ClientOp::Kind::kRead : ClientOp::Kind::kWrite, path,
        sim.now());
    auto done = [this, i, gen, hid](const zk::ClientResult& r) {
      history.finish(hid, sim.now(), r.ok(), r.stat.version);
      if (op_gen_[i] != gen) return;  // watchdog moved on; outcome recorded
      outstanding_[i] = false;
      if (r.ok()) ++completed[i];
      if (r.rc == store::Rc::kSessionExpired) {
        ++session_epoch[i];
        clients[i]->reconnect();
      }
      schedule_next(i);
    };
    if (is_read) {
      clients[i]->get_data(path, false, done);
    } else {
      clients[i]->set_data(path, "v", -1, done);
    }
    sim.after(op_timeout, [this, i, gen]() {
      if (stop || op_gen_[i] != gen || !outstanding_[i]) return;
      // Reply lost (crash, cut, or a very long token wait): abandon the op,
      // re-establish the session, and continue. The history op stays open
      // unless its reply eventually arrives.
      outstanding_[i] = false;
      ++session_epoch[i];
      clients[i]->reconnect();
      schedule_next(i);
    });
  }

  void schedule_next(std::size_t i) {
    if (stop) return;
    double load = 1.0;
    if (scenario != nullptr) {
      load = std::clamp(scenario->current_load(client_site(i)), 0.05, 20.0);
    }
    const Time think =
        think_base > 0
            ? static_cast<Time>(static_cast<double>(think_base) / load)
            : 0;
    if (think <= 0) {
      issue_mixed(i);
      return;
    }
    const std::uint64_t gen = op_gen_[i];
    sim.after(think, [this, i, gen]() {
      if (op_gen_[i] == gen && !outstanding_[i]) issue_mixed(i);
    });
  }

 private:
  std::vector<std::uint64_t> op_gen_;
  std::vector<bool> outstanding_;
};

struct SweepResult {
  bool audit_clean = false;
  std::string first_violation;
  bool converged = false;
  std::uint64_t completed_total = 0;
  // Client-visible consistency over the recorded op history.
  bool consistency_clean = true;
  std::size_t consistency_violations = 0;
  std::string first_consistency_witness;
  // Post-mortem: filled when the run failed or something (a consistency
  // violation, an armed fault hook) requested a dump — the merged
  // flight-recorder stream as JSON, plus any split-brain fork evidence
  // (duplicate gseq mints, dueling hubs) distilled from it. Empty on
  // clean runs.
  std::string post_mortem_json;
  std::string fork_evidence;
  std::vector<std::string> dump_reasons;
  // Split-brain forensics, computed on EVERY run (not only dumped ones):
  // a handover that re-mints a gseq or runs two hubs concurrently must
  // fail the sweep even when the racing histories happen to agree enough
  // to slip past the client-visible consistency checker.
  std::size_t duplicate_mints = 0;
  bool dueling_hubs = false;

  bool ok() const {
    return audit_clean && converged && consistency_clean &&
           duplicate_mints == 0 && !dueling_hubs && completed_total > 100;
  }
};

inline void finish_sweep(LoadedDeployment& d, SweepResult* r) {
  r->audit_clean = d.audit.clean();
  if (!d.audit.violations().empty()) {
    r->first_violation = d.audit.violations().front();
  }
  r->converged = d.deploy.converged();
  r->completed_total = 0;
  for (const std::uint64_t c : d.completed) r->completed_total += c;
  const auto violations = ConsistencyChecker::check(d.history);
  r->consistency_clean = violations.empty();
  r->consistency_violations = violations.size();
  if (!violations.empty()) {
    r->first_consistency_witness = violations.front().format();
  }

  // Stamp the checkers' findings into the flight recorder and decide
  // whether this run deserves a post-mortem. The harness stays file-free:
  // it serializes the dump into the result and the caller (gtest, the seed
  // hunter) writes it wherever its artifacts go.
  obs::EventLog& events = d.sim.obs().events;
  for (const std::string& v : d.audit.violations()) {
    events.record(d.sim.now(), kNoSite, obs::EventKind::kViolation, "audit", v);
  }
  for (const auto& v : violations) {
    events.record(d.sim.now(), kNoSite, obs::EventKind::kViolation,
                  "consistency", v.guarantee + ": " + v.detail, v.key);
  }
  if (!r->audit_clean) events.request_dump("token audit violation");
  if (!r->consistency_clean) events.request_dump("consistency violation");
  if (!r->converged) events.request_dump("sites did not converge");
  if (r->completed_total <= 100) events.request_dump("load starved");

  // Split-brain forensics run on every sweep: exact duplicate gseqs
  // (same-slot fork, the worst case) and dueling hubs (overlapping mint
  // reigns — what asym3 produced before handover reconciliation). These
  // are first-class failures, not just post-mortem color: two racing
  // histories can agree enough to slip past the client-visible checker
  // and still prove the sequencer forked.
  const auto merged = events.merged();
  const auto forks = obs::find_duplicate_mints(merged);
  r->duplicate_mints = forks.size();
  const auto duel = obs::find_dueling_hubs(merged);
  r->dueling_hubs = duel.found;
  if (!forks.empty()) {
    r->fork_evidence = obs::format_fork_evidence(forks);
    events.request_dump("duplicate gseq mint");
  }
  if (duel.found) {
    r->fork_evidence += obs::format_hub_duel(duel);
    events.request_dump("dueling hubs");
  }

  if (events.dump_requested()) {
    r->dump_reasons = events.dump_reasons();
    r->post_mortem_json = events.to_json();
  }
}

// The canonical crash schedule for `seed`: four random single-node crashes
// (network endpoint + co-located zab peer) with 5 s restarts over ~a minute
// of cross-site write load, then a 20 s quiesce.
inline SweepResult run_crash_sweep_on(LoadedDeployment& d, std::uint64_t seed) {
  d.start_load();

  Rng schedule(seed * 97);
  const std::size_t sites = d.deploy.sites();
  // Outlives the loop: its scheduled crash/restart events capture it, and
  // they can fire after the iteration that scheduled them.
  sim::FailureInjector inject(d.net);
  for (int i = 0; i < 4; ++i) {
    const Time when = d.sim.now() + 5 * kSecond + static_cast<Time>(
                          schedule.uniform(10 * kSecond));
    const SiteId site = static_cast<SiteId>(schedule.uniform(sites));
    const std::size_t node = schedule.uniform(3);
    inject.crash_at(when, d.deploy.site_ensemble(site).server_id(node),
                    5 * kSecond);
    // The co-located zab peer shares the fate of its server.
    d.sim.at(when, [&d, site, node]() {
      d.deploy.site_ensemble(site).peer(node).crash();
    });
    d.sim.at(when + 5 * kSecond, [&d, site, node]() {
      d.deploy.site_ensemble(site).peer(node).restart();
    });
    d.sim.run_for(12 * kSecond);
  }
  d.stop = true;
  d.sim.run_for(20 * kSecond);  // quiesce

  SweepResult r;
  finish_sweep(d, &r);
  return r;
}

inline SweepResult run_crash_sweep(std::uint64_t seed, bool batching) {
  DeploymentConfig cfg;
  if (batching) cfg.enable_batching();
  LoadedDeployment d(seed, cfg);
  return run_crash_sweep_on(d, seed);
}

// --- scenario sweeps -------------------------------------------------------
// A scripted hostile-WAN scenario under mixed read/write load: install the
// scenario with site-leave hooks wired to whole-site crash/restart, run
// past its horizon, then quiesce long enough for rejoin resync and check
// everything the crash sweep checks plus the op-history consistency
// contract.

inline SweepResult run_scenario_sweep_on(LoadedDeployment& d,
                                         sim::Scenario& scenario) {
  d.scenario = &scenario;
  if (!d.deploy.wait_ready()) {
    SweepResult r;
    r.first_violation = "deployment never became ready";
    return r;
  }
  d.start_mixed_load();

  sim::ScenarioHooks hooks;
  hooks.site_down = [&d](SiteId s) { d.deploy.crash_site(s); };
  hooks.site_up = [&d](SiteId s) { d.deploy.restart_site(s); };
  scenario.install(d.net, hooks);

  // Run every scripted event under load, plus a tail of calm traffic.
  d.sim.run_for(scenario.horizon() + 8 * kSecond);
  d.stop = true;
  d.sim.run_for(25 * kSecond);  // quiesce: reelections, resync, fan-out drain

  SweepResult r;
  finish_sweep(d, &r);
  return r;
}

inline SweepResult run_scenario_sweep(std::uint64_t seed, bool batching,
                                      const std::string& scenario_name) {
  sim::Scenario scenario = sim::make_scenario(scenario_name);
  DeploymentConfig cfg;
  cfg.sites = scenario.sites();
  if (batching) cfg.enable_batching();
  LoadedDeployment d(seed, cfg, sim::scenario_latency(scenario));
  return run_scenario_sweep_on(d, scenario);
}

}  // namespace wankeeper::wk
