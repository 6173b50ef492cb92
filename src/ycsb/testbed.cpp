#include "ycsb/testbed.h"

#include <stdexcept>

namespace wankeeper::ycsb {

const char* system_name(SystemKind kind) {
  switch (kind) {
    case SystemKind::kZooKeeper: return "ZK";
    case SystemKind::kZooKeeperObserver: return "ZK+obs";
    case SystemKind::kWanKeeper: return "WanKeeper";
  }
  return "?";
}

Testbed::Testbed(SystemKind kind, std::uint64_t seed, TestbedOptions opts)
    : kind_(kind),
      sim_(std::make_unique<sim::Simulator>(seed)),
      net_(std::make_unique<sim::Network>(*sim_, sim::LatencyModel::paper_wan())) {
  net_->set_wan_cost({opts.wan_frame_overhead});
  zab::PeerOptions peer_opts;
  if (opts.batching) peer_opts = wk::batched_peer_options(peer_opts);
  switch (kind_) {
    case SystemKind::kZooKeeper: {
      // One voter per region; Virginia last => leader site (paper setup).
      ensemble_ = std::make_unique<zk::Ensemble>(
          *sim_, *net_,
          std::vector<zk::NodeSpec>{{kCalifornia, false},
                                    {kFrankfurt, false},
                                    {kVirginia, false}},
          zk::ServerOptions{}, peer_opts);
      if (!ensemble_->wait_for_leader()) throw std::runtime_error("no ZK leader");
      break;
    }
    case SystemKind::kZooKeeperObserver: {
      // Voting core in Virginia, a non-voting observer per other region.
      ensemble_ = std::make_unique<zk::Ensemble>(
          *sim_, *net_,
          std::vector<zk::NodeSpec>{{kVirginia, false},
                                    {kVirginia, false},
                                    {kVirginia, false},
                                    {kCalifornia, true},
                                    {kFrankfurt, true}},
          zk::ServerOptions{}, peer_opts);
      if (!ensemble_->wait_for_leader()) throw std::runtime_error("no ZKO leader");
      break;
    }
    case SystemKind::kWanKeeper: {
      auditor_ = std::make_unique<wk::TokenAuditor>();
      wk::DeploymentConfig cfg;
      cfg.wan.l2_site = kVirginia;
      cfg.wan.policy = opts.wk_policy;
      if (opts.batching) cfg.enable_batching();
      deployment_ = std::make_unique<wk::Deployment>(*sim_, *net_, cfg, auditor_.get());
      if (!deployment_->wait_ready()) throw std::runtime_error("WK not ready");
      break;
    }
  }
}

std::unique_ptr<zk::Client> Testbed::make_client(const std::string& name,
                                                 SiteId site, SessionId session) {
  if (deployment_ != nullptr) return deployment_->make_client(name, site, session);
  return ensemble_->make_client(name, site, ensemble_->node_at_site(site), session);
}

Testbed::WkCounters Testbed::wk_counters() const {
  WkCounters out;
  if (deployment_ == nullptr) return out;
  auto& deploy = const_cast<wk::Deployment&>(*deployment_);
  for (std::size_t s = 0; s < deploy.sites(); ++s) {
    auto& ens = deploy.site_ensemble(static_cast<SiteId>(s));
    for (std::size_t n = 0; n < ens.size(); ++n) {
      const auto& st = deploy.broker(static_cast<SiteId>(s), n).broker_stats();
      out.local_commits += st.local_token_commits;
      out.forwards += st.wan_forwards;
      out.grants += st.grants;
      out.recalls += st.recalls;
    }
  }
  return out;
}

}  // namespace wankeeper::ycsb
