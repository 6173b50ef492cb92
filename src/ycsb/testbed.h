// Shared system-under-test builder for every evaluation harness (YCSB,
// BookKeeper, SCFS): constructs one of the paper's three systems on the
// calibrated three-region WAN and hands out site-local clients.
#pragma once

#include <memory>
#include <string>

#include "sim/network.h"
#include "sim/simulator.h"
#include "wankeeper/deployment.h"
#include "zk/ensemble.h"

namespace wankeeper::ycsb {

enum class SystemKind { kZooKeeper, kZooKeeperObserver, kWanKeeper };
const char* system_name(SystemKind kind);

// Paper site ids.
inline constexpr SiteId kVirginia = 0;
inline constexpr SiteId kCalifornia = 1;
inline constexpr SiteId kFrankfurt = 2;

struct TestbedOptions {
  std::string wk_policy = "consecutive:2";
  // Zab group commit + WAN frame coalescing (canonical knobs; applies to
  // the ZK systems' peers too so mode comparisons are apples-to-apples).
  bool batching = false;
  // WAN channel occupancy (default: latency-only, the legacy model).
  Time wan_frame_overhead = 0;
};

class Testbed {
 public:
  // Builds and boots the system; returns once a leader (and for WanKeeper,
  // site registration) is established.
  Testbed(SystemKind kind, std::uint64_t seed, TestbedOptions opts);
  Testbed(SystemKind kind, std::uint64_t seed,
          const std::string& wk_policy = "consecutive:2")
      : Testbed(kind, seed, TestbedOptions{wk_policy}) {}

  SystemKind kind() const { return kind_; }
  sim::Simulator& sim() { return *sim_; }
  sim::Network& net() { return *net_; }

  // A client attached to its site-local server (voter, observer, or L1).
  std::unique_ptr<zk::Client> make_client(const std::string& name, SiteId site,
                                          SessionId session);

  // WanKeeper-only accessors (nullptr for the ZooKeeper systems).
  wk::Deployment* deployment() { return deployment_.get(); }
  wk::TokenAuditor* auditor() { return auditor_.get(); }
  zk::Ensemble* ensemble() { return ensemble_.get(); }

  struct WkCounters {
    std::uint64_t local_commits = 0;
    std::uint64_t forwards = 0;
    std::uint64_t grants = 0;
    std::uint64_t recalls = 0;
  };
  WkCounters wk_counters() const;
  bool audit_clean() const { return auditor_ == nullptr || auditor_->clean(); }

 private:
  SystemKind kind_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<zk::Ensemble> ensemble_;
  std::unique_ptr<wk::TokenAuditor> auditor_;
  std::unique_ptr<wk::Deployment> deployment_;
};

}  // namespace wankeeper::ycsb
