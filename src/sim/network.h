// Simulated WAN: actors are placed at sites; messages between actors incur
// the one-way latency of the (site, site) pair plus seeded jitter. Channels
// are FIFO per (src, dst) ordered pair — the TCP assumption the paper makes
// for broker/server links — enforced by never scheduling a delivery earlier
// than the previous one on the same channel. Supports site partitions
// (symmetric or one-way), node crashes, per-link degradation (drop rate and
// extra latency), runtime latency-matrix changes, and probabilistic drops
// for failure testing. All of it is scriptable from sim/scenario.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "sim/actor.h"
#include "sim/message.h"
#include "sim/simulator.h"

namespace wankeeper::sim {

// One-way latency matrix between sites. Defaults below are calibrated to the
// paper's AWS deployment (Virginia=0, California=1, Frankfurt=2); see
// DESIGN.md §4. The matrix is mutable at runtime (set_base) so scenario
// scripts can model routing changes and diurnal latency swells; a message
// always pays the cost in effect at its *send* time.
class LatencyModel {
 public:
  // Uniform model: same latency between any two distinct sites.
  LatencyModel(std::size_t sites, Time intra_site, Time inter_site,
               double jitter_fraction = 0.05);
  // Explicit matrix (must be square, symmetric not required).
  LatencyModel(std::vector<std::vector<Time>> one_way, double jitter_fraction = 0.05);

  // The three-region topology of the paper: VA(0), CA(1), FRA(2).
  static LatencyModel paper_wan();
  // A five-region heterogeneous topology for the hostile-WAN scenarios:
  // VA(0), CA(1), FRA(2), Tokyo(3), Sydney(4). Deliberately *not* uniform:
  // one-way delays span 31–140 ms and the matrix is mildly asymmetric
  // (return paths differ by a few ms), matching the evaluation-survey
  // critique that symmetric grids hide routing effects.
  static LatencyModel wan5();

  std::size_t sites() const { return matrix_.size(); }
  Time base(SiteId from, SiteId to) const;
  void set_base(SiteId from, SiteId to, Time one_way);
  // Scale every inter-site entry by `factor` (intra-site costs untouched).
  void scale_wan(double factor);
  // Base latency plus truncated-normal jitter drawn from `rng`.
  Time sample(Rng& rng, SiteId from, SiteId to) const;

 private:
  std::vector<std::vector<Time>> matrix_;
  double jitter_;
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t wan_messages = 0;  // crossing a site boundary
};

// Optional channel-occupancy model for inter-site links. Each WAN message
// holds its ordered (src, dst) channel for per_message, so bursts of small
// frames queue behind one another — the per-message overhead the coalescing
// layer amortizes. The default models an infinitely fast pipe (latency only).
struct WanCostModel {
  Time per_message = 0;  // fixed per-message channel hold
};

// Mutable per-direction state of one inter-site link. A "cut" link drops
// every message in that direction; a degraded link loses a fraction and/or
// adds latency. Directions are independent so scenarios can express
// asymmetric partitions (A hears B but not vice versa).
struct LinkState {
  bool cut = false;
  double drop_rate = 0.0;
  Time extra_latency = 0;

  bool pristine() const {
    return !cut && drop_rate == 0.0 && extra_latency == 0;
  }
};

class Network : public ActorRegistry {
 public:
  // Attaches itself to `sim` so the simulator's rt::Runtime send/spawn/
  // site_of surface routes through this network.
  Network(Simulator& sim, LatencyModel latency);

  // Registers the actor, assigns its NodeId, calls start(). An actor that
  // is destroyed before the network deregisters itself; messages addressed
  // to it are then dropped.
  NodeId add_node(Actor& actor, SiteId site);
  void forget(NodeId node);
  void forget_actor(NodeId node) override { forget(node); }

  SiteId site_of(NodeId node) const;
  Actor& actor(NodeId node) const;  // must still be alive
  bool alive(NodeId node) const;
  std::size_t node_count() const { return nodes_.size(); }

  // Sends msg from -> to. Dropped if link_up(from, to) is false at send
  // time or the drop-rate coin (global or per-link) fires. A message in
  // flight pays the latency and link state sampled at send time; partitions
  // or latency changes that happen later do not affect it. Delivery-time
  // loss models connection reset only: destination crash, restart
  // (incarnation bump), or destruction while the message was in flight.
  void send(NodeId from, NodeId to, MessagePtr msg);

  // THE deliverability predicate, at the current virtual time: both
  // endpoints registered and up, and the directed site link not cut. Every
  // send-time admission decision goes through this one test — failure
  // injectors and scenario scripts mutate the same state it reads, so the
  // two can never disagree about whether a link is usable.
  bool link_up(NodeId from, NodeId to) const;
  // Site-level form: directed link a -> b not cut.
  bool site_link_up(SiteId a, SiteId b) const;

  // --- failure / scenario injection ---
  // Symmetric partition: cuts (or heals) both directions at once.
  void partition(SiteId a, SiteId b, bool cut);
  // Asymmetric partition: cut only from -> to ("to" cannot hear "from";
  // replies still flow). Healing one direction leaves the other alone.
  void partition_oneway(SiteId from, SiteId to, bool cut);
  // True when the directed link a -> b is cut.
  bool partitioned(SiteId a, SiteId b) const;
  // Isolate one site from every other site (both directions).
  void isolate_site(SiteId s, bool cut);
  // Degrade the directed link from -> to: lose `drop_rate` of messages and
  // add `extra_latency` to the rest. Pass zeros to restore the link.
  void degrade_link(SiteId from, SiteId to, double drop_rate, Time extra_latency);
  const LinkState& link(SiteId from, SiteId to) const;

  // Runtime latency control (affects messages sent after the call).
  void set_latency(SiteId from, SiteId to, Time one_way, bool symmetric = true);
  void scale_wan_latency(double factor);

  void set_drop_rate(double p) { drop_rate_ = p; }
  void set_wan_cost(WanCostModel cost) { wan_cost_ = cost; }
  const WanCostModel& wan_cost() const { return wan_cost_; }

  const NetworkStats& stats() const { return stats_; }
  const LatencyModel& latency() const { return latency_; }
  Simulator& sim() { return sim_; }

 private:
  LinkState& link_mut(SiteId from, SiteId to);
  std::size_t link_index(SiteId from, SiteId to) const {
    return static_cast<std::size_t>(from) * latency_.sites() +
           static_cast<std::size_t>(to);
  }

  Simulator& sim_;
  LatencyModel latency_;
  std::vector<Actor*> nodes_;
  std::vector<SiteId> sites_;
  // FIFO enforcement: earliest allowed next delivery per ordered channel.
  // Flat per-sender rows indexed by destination NodeId (node ids are dense
  // and never recycled); rows grow lazily, zero means "never used". This
  // sits on the per-send hot path — it used to be a std::map of pairs.
  std::vector<std::vector<Time>> channel_clock_;
  // Directed (from, to) site-pair link state, dense S×S (sites are fixed at
  // construction). Default-constructed cells are pristine, so lookups are
  // one index — no tree walk, no insertion-order dependence by design.
  std::vector<LinkState> links_;
  // Per-site WAN metric handles, resolved once per registry epoch instead
  // of a string-keyed registry lookup on every cross-site send. An obs
  // clear() between experiment phases bumps the epoch and dangles these, so
  // the hot path revalidates with one integer compare.
  struct WanCounters {
    obs::Counter* msgs = nullptr;
    obs::Counter* bytes = nullptr;
  };
  void refresh_wan_counters();
  std::vector<WanCounters> wan_counters_;
  std::uint64_t wan_counters_epoch_ = 0;
  double drop_rate_ = 0.0;
  WanCostModel wan_cost_;
  NetworkStats stats_;
};

}  // namespace wankeeper::sim
