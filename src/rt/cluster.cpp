#include "rt/cluster.h"

#include <algorithm>
#include <map>
#include <thread>

namespace wankeeper::rt {

HostedCluster::HostedCluster(ThreadRuntime& rt, ClusterConfig cfg,
                             std::vector<SiteId> local_sites)
    : rt_(rt), cfg_(cfg), plan_(cfg), local_sites_(std::move(local_sites)) {
  if (local_sites_.empty()) {
    for (std::size_t s = 0; s < cfg_.sites; ++s) {
      local_sites_.push_back(static_cast<SiteId>(s));
    }
  }
  // Every process derives the same global directory from the plan.
  directory_ = std::make_shared<wk::SiteDirectory>();
  directory_->servers_by_site.resize(cfg_.sites);
  for (std::size_t s = 0; s < cfg_.sites; ++s) {
    for (std::size_t i = 0; i < cfg_.nodes_per_site; ++i) {
      directory_->servers_by_site[s].push_back(
          plan_.server_id(static_cast<SiteId>(s), i));
    }
  }

  nodes_by_site_.resize(cfg_.sites);
  for (std::size_t su = 0; su < cfg_.sites; ++su) {
    const SiteId s = static_cast<SiteId>(su);
    if (!is_local(s)) {
      for (std::size_t i = 0; i < cfg_.nodes_per_site; ++i) {
        rt_.add_remote(plan_.server_id(s, i), s);
        rt_.add_remote(plan_.peer_id(s, i), s);
      }
      if (plan_.base_port != 0) rt_.connect_site(s, plan_.port_of(s));
      continue;
    }
    auto& nodes = nodes_by_site_[su];
    std::vector<NodeId> voters;
    std::map<NodeId, NodeId> peer_to_server;
    for (std::size_t i = 0; i < cfg_.nodes_per_site; ++i) {
      const std::string base = "wk-s" + std::to_string(su) + "-" +
                               std::to_string(i);
      SiteNode node;
      node.broker = std::make_unique<wk::Broker>(rt_, base, cfg_.server,
                                                 cfg_.wan, directory_,
                                                 /*auditor=*/nullptr);
      node.broker->set_site(s);
      node.peer = std::make_unique<zab::Peer>(rt_, base + "-zab",
                                              *node.broker, cfg_.peer);
      const std::size_t loop = rt_.add_loop();
      rt_.add_actor(*node.broker, plan_.server_id(s, i), s, loop);
      rt_.add_actor(*node.peer, plan_.peer_id(s, i), s, loop);
      voters.push_back(plan_.peer_id(s, i));
      peer_to_server[plan_.peer_id(s, i)] = plan_.server_id(s, i);
      nodes.push_back(std::move(node));
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i].broker->attach_peer(*nodes[i].peer);
      nodes[i].broker->set_peer_server_map(peer_to_server);
      // Priority rises with index: the last peer (highest id) is the
      // intended initial leader, as in the sim Ensemble.
      nodes[i].peer->boot(voters, /*observers=*/{}, /*is_observer=*/false,
                          static_cast<std::int32_t>(i));
    }
    if (plan_.base_port != 0 && local_sites_.size() < cfg_.sites) {
      rt_.listen(plan_.port_of(s));
    }
  }

  for (const SiteId s : local_sites_) {
    for (std::size_t k = 0; k < cfg_.clients_per_site; ++k) {
      ClientSlot slot;
      slot.site = s;
      slot.node = plan_.client_id(s, k);
      slot.server = plan_.server_id(s, k % cfg_.nodes_per_site);
      slot.client = std::make_unique<zk::Client>(
          rt_, "client-s" + std::to_string(s) + "-" + std::to_string(k),
          plan_.session_of(s, k));
      const std::size_t loop = rt_.add_loop();
      rt_.add_actor(*slot.client, slot.node, s, loop);
      clients_.push_back(std::move(slot));
    }
  }
}

HostedCluster::~HostedCluster() {
  // Threads must not be touching the actors we are about to destroy.
  rt_.stop();
}

bool HostedCluster::is_local(SiteId s) const {
  return std::find(local_sites_.begin(), local_sites_.end(), s) !=
         local_sites_.end();
}

void HostedCluster::start() {
  rt_.start();
  for (auto& slot : clients_) {
    zk::Client* c = slot.client.get();
    const NodeId server = slot.server;
    rt_.call(slot.node, [c, server] { c->connect(server); });
  }
}

wk::Broker* HostedCluster::site_leader(SiteId s) {
  for (auto& node : nodes_by_site_[static_cast<std::size_t>(s)]) {
    const zab::Peer* peer = node.peer.get();
    bool leading = false;
    rt_.call(node.broker->id(), [peer, &leading] { leading = peer->leading(); });
    if (leading) return node.broker.get();
  }
  return nullptr;
}

wk::Broker& HostedCluster::broker(SiteId s, std::size_t i) {
  return *nodes_by_site_[static_cast<std::size_t>(s)][i].broker;
}

bool HostedCluster::wait_ready(Time max_wait) {
  const Time deadline = rt_.now() + max_wait;
  while (rt_.now() < deadline) {
    bool ready = true;
    for (const SiteId s : local_sites_) {
      wk::Broker* leader = site_leader(s);
      if (leader == nullptr) {
        ready = false;
        break;
      }
      // Sample the leader's protocol state on its own loop.
      bool ok = false;
      rt_.call(leader->id(), [leader, &ok] {
        ok = leader->l2_role() ? !leader->l2_reconciling()
                               : leader->registered_with_hub();
      });
      if (!ok) {
        ready = false;
        break;
      }
    }
    if (ready) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

std::uint64_t HostedCluster::tree_digest(SiteId s) {
  wk::Broker* leader = site_leader(s);
  if (leader == nullptr) return 0;
  std::uint64_t digest = 0;
  rt_.call(leader->id(), [leader, &digest] {
    digest = leader->tree().digest();
  });
  return digest;
}

bool HostedCluster::converged_locally() {
  std::uint64_t digest = 0;
  bool first = true;
  for (const SiteId s : local_sites_) {
    for (auto& node : nodes_by_site_[static_cast<std::size_t>(s)]) {
      wk::Broker* b = node.broker.get();
      bool up = false;
      std::uint64_t d = 0;
      rt_.call(b->id(), [b, &up, &d] {
        up = b->up();
        if (up) d = b->tree().digest();
      });
      if (!up) continue;
      if (first) {
        digest = d;
        first = false;
      } else if (d != digest) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace wankeeper::rt
