#include "sim/network.h"

#include <algorithm>
#include <stdexcept>

namespace wankeeper::sim {

LatencyModel::LatencyModel(std::size_t sites, Time intra_site, Time inter_site,
                           double jitter_fraction)
    : jitter_(jitter_fraction) {
  matrix_.assign(sites, std::vector<Time>(sites, inter_site));
  for (std::size_t i = 0; i < sites; ++i) matrix_[i][i] = intra_site;
}

LatencyModel::LatencyModel(std::vector<std::vector<Time>> one_way, double jitter_fraction)
    : matrix_(std::move(one_way)), jitter_(jitter_fraction) {
  for (const auto& row : matrix_) {
    if (row.size() != matrix_.size()) throw std::invalid_argument("latency matrix not square");
  }
}

LatencyModel LatencyModel::paper_wan() {
  // One-way delays calibrated to 2016-era AWS pings: VA<->CA 62 ms RTT,
  // VA<->FRA 88 ms RTT, CA<->FRA 146 ms RTT, sub-ms within a region.
  const Time intra = 150 * kMicrosecond;
  return LatencyModel{{
      {intra, 31 * kMillisecond, 44 * kMillisecond},
      {31 * kMillisecond, intra, 73 * kMillisecond},
      {44 * kMillisecond, 73 * kMillisecond, intra},
  }};
}

LatencyModel LatencyModel::wan5() {
  // VA(0), CA(1), FRA(2), Tokyo(3), Sydney(4). One-way delays from public
  // inter-region ping tables, with slight forward/return asymmetry.
  const Time intra = 150 * kMicrosecond;
  const Time ms = kMillisecond;
  return LatencyModel{{
      {intra, 31 * ms, 44 * ms, 78 * ms, 102 * ms},
      {33 * ms, intra, 73 * ms, 54 * ms, 74 * ms},
      {44 * ms, 71 * ms, intra, 118 * ms, 140 * ms},
      {80 * ms, 52 * ms, 121 * ms, intra, 57 * ms},
      {99 * ms, 76 * ms, 137 * ms, 55 * ms, intra},
  }};
}

Time LatencyModel::base(SiteId from, SiteId to) const {
  return matrix_.at(static_cast<std::size_t>(from)).at(static_cast<std::size_t>(to));
}

void LatencyModel::set_base(SiteId from, SiteId to, Time one_way) {
  matrix_.at(static_cast<std::size_t>(from)).at(static_cast<std::size_t>(to)) = one_way;
}

void LatencyModel::scale_wan(double factor) {
  for (std::size_t i = 0; i < matrix_.size(); ++i) {
    for (std::size_t j = 0; j < matrix_.size(); ++j) {
      if (i == j) continue;
      matrix_[i][j] = std::max<Time>(
          1, static_cast<Time>(static_cast<double>(matrix_[i][j]) * factor));
    }
  }
}

Time LatencyModel::sample(Rng& rng, SiteId from, SiteId to) const {
  const Time b = base(from, to);
  if (jitter_ <= 0.0) return b;
  const double jittered = rng.normal(static_cast<double>(b), jitter_ * static_cast<double>(b));
  // Truncate: never faster than 50% of base, never negative.
  return std::max<Time>(static_cast<Time>(jittered), b / 2);
}

Network::Network(Simulator& sim, LatencyModel latency)
    : sim_(sim), latency_(std::move(latency)) {
  links_.resize(latency_.sites() * latency_.sites());
  wan_counters_.resize(latency_.sites());
  refresh_wan_counters();
  sim_.attach_network(*this);
}

// The simulator's rt::Runtime surface, routed through the attached network.
// Defined here (not simulator.cpp) so simulator.cpp needn't see Network.
NodeId Simulator::spawn(Actor& actor, SiteId site) {
  if (net_ == nullptr) throw std::logic_error("no network attached");
  return net_->add_node(actor, site);
}

void Simulator::send(NodeId from, NodeId to, MessagePtr msg) {
  if (net_ == nullptr) throw std::logic_error("no network attached");
  net_->send(from, to, std::move(msg));
}

SiteId Simulator::site_of(NodeId node) const {
  if (net_ == nullptr) return kNoSite;
  return net_->site_of(node);
}

void Network::refresh_wan_counters() {
  for (std::size_t s = 0; s < latency_.sites(); ++s) {
    wan_counters_[s].msgs =
        &sim_.obs().metrics.counter("net.wan_msgs", static_cast<SiteId>(s));
    wan_counters_[s].bytes =
        &sim_.obs().metrics.counter("net.wan_bytes", static_cast<SiteId>(s));
  }
  wan_counters_epoch_ = sim_.obs().metrics.epoch();
}

NodeId Network::add_node(Actor& actor, SiteId site) {
  if (site < 0 || static_cast<std::size_t>(site) >= latency_.sites()) {
    throw std::invalid_argument("site out of range for latency model");
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(&actor);
  sites_.push_back(site);
  channel_clock_.emplace_back();
  actor.id_ = id;
  actor.registry_ = this;
  actor.start();
  return id;
}

void Network::forget(NodeId node) {
  if (node >= 0 && static_cast<std::size_t>(node) < nodes_.size()) {
    nodes_[static_cast<std::size_t>(node)] = nullptr;
  }
}

bool Network::alive(NodeId node) const {
  return node >= 0 && static_cast<std::size_t>(node) < nodes_.size() &&
         nodes_[static_cast<std::size_t>(node)] != nullptr;
}

SiteId Network::site_of(NodeId node) const {
  return sites_.at(static_cast<std::size_t>(node));
}

Actor& Network::actor(NodeId node) const {
  return *nodes_.at(static_cast<std::size_t>(node));
}

const LinkState& Network::link(SiteId from, SiteId to) const {
  return links_.at(link_index(from, to));
}

LinkState& Network::link_mut(SiteId from, SiteId to) {
  return links_.at(link_index(from, to));
}

bool Network::partitioned(SiteId a, SiteId b) const {
  return link(a, b).cut;
}

bool Network::site_link_up(SiteId a, SiteId b) const {
  return !link(a, b).cut;
}

bool Network::link_up(NodeId from, NodeId to) const {
  if (!alive(from) || !alive(to)) return false;
  if (!actor(from).up() || !actor(to).up()) return false;
  return site_link_up(site_of(from), site_of(to));
}

void Network::partition(SiteId a, SiteId b, bool cut) {
  partition_oneway(a, b, cut);
  partition_oneway(b, a, cut);
}

void Network::partition_oneway(SiteId from, SiteId to, bool cut) {
  link_mut(from, to).cut = cut;
}

void Network::isolate_site(SiteId s, bool cut) {
  for (std::size_t other = 0; other < latency_.sites(); ++other) {
    if (static_cast<SiteId>(other) != s) partition(s, static_cast<SiteId>(other), cut);
  }
}

void Network::degrade_link(SiteId from, SiteId to, double drop_rate,
                           Time extra_latency) {
  LinkState& l = link_mut(from, to);
  l.drop_rate = drop_rate;
  l.extra_latency = extra_latency;
}

void Network::set_latency(SiteId from, SiteId to, Time one_way, bool symmetric) {
  latency_.set_base(from, to, one_way);
  if (symmetric) latency_.set_base(to, from, one_way);
}

void Network::scale_wan_latency(double factor) { latency_.scale_wan(factor); }

void Network::send(NodeId from, NodeId to, MessagePtr msg) {
  ++stats_.messages_sent;
  const std::size_t wire = msg->wire_size();
  stats_.bytes_sent += wire;
  if (!alive(from) || !alive(to)) {
    ++stats_.messages_dropped;
    return;
  }
  const SiteId sfrom = site_of(from);
  const SiteId sto = site_of(to);
  if (sfrom != sto) {
    ++stats_.wan_messages;
    if (wan_counters_epoch_ != sim_.obs().metrics.epoch()) {
      refresh_wan_counters();
    }
    const WanCounters& wc = wan_counters_[static_cast<std::size_t>(sfrom)];
    wc.msgs->inc();
    wc.bytes->inc(wire);
  }

  const LinkState& lnk = link(sfrom, sto);
  if (!link_up(from, to) ||
      (drop_rate_ > 0.0 && sim_.rng().chance(drop_rate_)) ||
      (lnk.drop_rate > 0.0 && sim_.rng().chance(lnk.drop_rate))) {
    ++stats_.messages_dropped;
    return;
  }

  Actor& dst = actor(to);
  const Time latency = latency_.sample(sim_.rng(), sfrom, sto) + lnk.extra_latency;
  Time deliver_at = sim_.now() + latency;
  // FIFO per ordered channel: never deliver before an earlier send. WAN
  // messages additionally hold the channel for their occupancy, so a burst
  // of frames serializes onto the link instead of arriving together.
  auto& row = channel_clock_[static_cast<std::size_t>(from)];
  if (row.size() <= static_cast<std::size_t>(to)) {
    row.resize(nodes_.size());
  }
  Time& clock = row[static_cast<std::size_t>(to)];
  const Time occupancy = sfrom != sto ? wan_cost_.per_message : 0;
  deliver_at = std::max(deliver_at, clock + occupancy);
  clock = deliver_at;

  const std::uint64_t dst_incarnation = dst.incarnation_;
  sim_.at(deliver_at, [this, from, to, dst_incarnation, m = std::move(msg)]() {
    // Deliveries racing a crash, restart, or destruction are lost.
    if (!alive(to)) {
      ++stats_.messages_dropped;
      return;
    }
    Actor& d = actor(to);
    if (!d.up() || d.incarnation_ != dst_incarnation) {
      ++stats_.messages_dropped;
      return;
    }
    ++stats_.messages_delivered;
    d.on_message(from, m);
  });
}

}  // namespace wankeeper::sim
