// Deployment builder for a WanKeeper cluster on the thread runtime — the
// real-hardware analogue of wk::Deployment. The NodeId plan is pure
// arithmetic on the config, so every process in a multi-process deployment
// derives the identical id map without coordination: site s with n
// servers owns ids [s*2n, (s+1)*2n) — servers first, then their co-located
// zab peers — and client ids follow after every site's server/peer block.
// The last peer of each site gets the highest id AND priority, mirroring
// the sim Ensemble's intended-leader convention.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rt/thread_runtime.h"
#include "wankeeper/broker.h"
#include "zab/peer.h"
#include "zk/client.h"

namespace wankeeper::rt {

struct ClusterConfig {
  std::size_t sites = 3;
  std::size_t nodes_per_site = 3;
  std::size_t clients_per_site = 2;
  // TCP base port; site s listens on base_port + s. 0 = single process
  // hosting every site, no sockets.
  std::uint16_t base_port = 0;
  std::uint64_t seed = 1;
  zk::ServerOptions server;
  wk::WanOptions wan;
  zab::PeerOptions peer;

  ClusterConfig() {
    // Mirror wk::DeploymentConfig: the paper's ~0.1 ms head-processor
    // marshalling charge on every client-facing request.
    server.service_time = 150 * kMicrosecond;
    server.head_overhead = 100 * kMicrosecond;
  }
};

// The cluster-wide id arithmetic; identical in every process.
struct ClusterPlan {
  explicit ClusterPlan(const ClusterConfig& cfg)
      : sites(cfg.sites),
        nodes(cfg.nodes_per_site),
        clients(cfg.clients_per_site),
        base_port(cfg.base_port) {}

  std::size_t sites;
  std::size_t nodes;
  std::size_t clients;
  std::uint16_t base_port;

  NodeId server_id(SiteId s, std::size_t i) const {
    return static_cast<NodeId>(static_cast<std::size_t>(s) * 2 * nodes + i);
  }
  NodeId peer_id(SiteId s, std::size_t i) const {
    return static_cast<NodeId>(static_cast<std::size_t>(s) * 2 * nodes +
                               nodes + i);
  }
  NodeId client_id(SiteId s, std::size_t k) const {
    return static_cast<NodeId>(sites * 2 * nodes +
                               static_cast<std::size_t>(s) * clients + k);
  }
  SessionId session_of(SiteId s, std::size_t k) const {
    return static_cast<SessionId>(s) * 10000 + static_cast<SessionId>(k) + 1;
  }
  std::uint16_t port_of(SiteId s) const {
    return static_cast<std::uint16_t>(base_port + s);
  }
};

// Builds the brokers, peers, and clients of `local_sites` (empty = all
// sites) on one ThreadRuntime, registers every other site's nodes as
// remote, and wires the loopback TCP mesh. Each (broker, peer) pair shares
// one event loop; each client gets its own.
class HostedCluster {
 public:
  HostedCluster(ThreadRuntime& rt, ClusterConfig cfg,
                std::vector<SiteId> local_sites = {});
  ~HostedCluster();

  // rt.start() + client session connects. wait_ready polls (wall clock)
  // until every local site has an elected leader that finished hub
  // registration (and, if the hub site is local, left RECONCILING).
  void start();
  bool wait_ready(Time max_wait);

  const ClusterPlan& plan() const { return plan_; }
  const std::vector<SiteId>& local_sites() const { return local_sites_; }
  bool is_local(SiteId s) const;

  std::size_t local_client_count() const { return clients_.size(); }
  zk::Client& client(std::size_t idx) { return *clients_[idx].client; }
  SiteId client_site(std::size_t idx) const { return clients_[idx].site; }

  // Current leader broker of a local site (nullptr mid-election). Each
  // replica's leadership is sampled on its own loop through call().
  wk::Broker* site_leader(SiteId s);
  wk::Broker& broker(SiteId s, std::size_t i);

  // Leader replica's tree digest, sampled on its own loop (safe snapshot).
  std::uint64_t tree_digest(SiteId s);
  // All up local replicas (across local sites) agree on their tree digest.
  bool converged_locally();

 private:
  struct SiteNode {
    std::unique_ptr<wk::Broker> broker;
    std::unique_ptr<zab::Peer> peer;
  };
  struct ClientSlot {
    std::unique_ptr<zk::Client> client;
    SiteId site = kNoSite;
    NodeId node = kNoNode;
    NodeId server = kNoNode;
  };

  ThreadRuntime& rt_;
  ClusterConfig cfg_;
  ClusterPlan plan_;
  std::vector<SiteId> local_sites_;
  std::shared_ptr<wk::SiteDirectory> directory_;
  std::vector<std::vector<SiteNode>> nodes_by_site_;  // indexed by SiteId
  std::vector<ClientSlot> clients_;
};

}  // namespace wankeeper::rt
