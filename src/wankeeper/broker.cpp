// Broker: construction, WAN plumbing, the L1 token-check head processor,
// and the apply-side mirror maintenance shared by every replica. The L2
// serialization logic lives in level2.cpp; liveness/registration/failover
// in heartbeat.cpp.
#include "wankeeper/broker.h"

#include <algorithm>

#include "common/logging.h"

namespace wankeeper::wk {

Broker::Broker(rt::Runtime& rt, std::string name, zk::ServerOptions server_opts,
               WanOptions wan_opts, std::shared_ptr<const SiteDirectory> directory,
               TokenAuditor* auditor)
    : Server(rt, std::move(name), server_opts),
      wan_(wan_opts),
      directory_(std::move(directory)),
      auditor_(auditor),
      // my_site unknown until registration; fixed in start()
      transport_(make_transport(kNoSite)),
      l2_site_(wan_opts.l2_site) {}

WanTransport Broker::make_transport(SiteId site_id) {
  WanTransport t(
      site_id,
      [this](SiteId dest, sim::MessagePtr frame) {
        raw_send_to_site(dest, std::move(frame));
      },
      [this](SiteId from, const sim::MessagePtr& inner) { wan_deliver(from, inner); },
      wan_.batch,
      [this](Time delay) {
        set_timer(delay, [this]() { transport_.flush_all(); });
      });
  t.set_frame_observer([this](std::size_t msgs) {
    auto& metrics = rt().obs().metrics;
    frames_sent_ctr_.at(metrics, "wan.frames_sent", site()).inc();
    frame_msgs_ctr_.at(metrics, "wan.frame_msgs", site()).inc(msgs);
    frame_batch_hist_.at(metrics, "wan.frame_batch", site())
        .record(static_cast<Time>(msgs));
  });
  return t;
}

void Broker::start() {
  Server::start();
  // Rebind the transport's site id now that set_site() has run.
  transport_ = make_transport(site());
  transport_.set_from_node(id());
  set_timer(wan_.retransmit_interval, [this]() { wan_tick(); });
  set_timer(wan_.heartbeat_interval, [this]() { heartbeat_tick(); });
}

void Broker::on_crash() {
  Server::on_crash();
  // Snapshot-like mirrors (site_tokens_, broker_tokens_ ownership,
  // session_home_, frontiers) survive: they are deterministic functions of
  // the applied prefix, which models durable state. Protocol liveness state
  // does not.
  transport_.reset();
  broker_tokens_.clear_volatile();
  up_proposed_.clear();
  down_proposed_.clear();
  l2_pending_grants_.clear();
  site_last_heard_.clear();
  wan_live_sessions_.clear();
  site_frontiers_.clear();
  resync_sent_at_.clear();
  leader_hint_.clear();
  peer_zab_epoch_.clear();
  recall_sent_.clear();
  registered_ = false;
  l2_last_heard_ = 0;
  l2_reconciling_ = false;
  reconcile_frontiers_.clear();
  reconcile_pull_sent_.clear();
  reconcile_deferred_.clear();
}

void Broker::on_restart() {
  Server::on_restart();
  set_timer(wan_.retransmit_interval, [this]() { wan_tick(); });
  set_timer(wan_.heartbeat_interval, [this]() { heartbeat_tick(); });
}

void Broker::became_leader() {
  transport_.open_streams(peer()->current_epoch());
  // Re-derive the L2 sequence from the applied log (which zab fully
  // delivers before this hook): a stale in-memory counter from an earlier
  // reign here would re-stamp gseqs an interim leader already used, putting
  // two different txns under one counter — receivers keep whichever arrives
  // first and the sites never converge. next_gseq() resumes per epoch from
  // the applied frontier, so zeroing here is what makes the resume run.
  gseq_counter_ = 0;
  registered_ = false;
  l2_last_heard_ = now();  // grace period before lease panic / failover
  if (site() != l2_site_) {
    send_register();
    return;
  }
  // Leading the believed-hub site with evidence of prior WAN sequencing:
  // our replica — and our view of the hub identity itself — may be stale
  // (a revived hub site does not know it was deposed while down), so catch
  // up against the other sites before minting anything. A bootstrap leader
  // (nothing ever applied) serves immediately; deployments starting up are
  // unaffected.
  if (!applied_down_by_epoch_.empty()) l2_enter_reconcile("hub leader change");
}

void Broker::lost_leadership() {
  transport_.reset();
  broker_tokens_.clear_volatile();
  l2_pending_grants_.clear();
  up_proposed_.clear();
  down_proposed_.clear();
  recall_sent_.clear();
  registered_ = false;
  // Deferred work dies with the leadership: the requests were never
  // proposed, and the clients' watchdogs re-drive them at the new leader.
  l2_reconciling_ = false;
  reconcile_frontiers_.clear();
  reconcile_pull_sent_.clear();
  reconcile_deferred_.clear();
}

// ----------------------------------------------------------- WAN plumbing

void Broker::raw_send_to_site(SiteId dest, sim::MessagePtr frame) {
  const auto& servers = directory_->servers_by_site.at(static_cast<std::size_t>(dest));
  if (servers.empty()) return;
  std::size_t hint = 0;
  if (const auto it = leader_hint_.find(dest); it != leader_hint_.end()) {
    hint = it->second % servers.size();
  }
  rt().send(id(), servers[hint], std::move(frame));
}

void Broker::learn_leader_hint(SiteId s, NodeId node) {
  if (s == kNoSite || node == kNoNode ||
      static_cast<std::size_t>(s) >= directory_->sites()) {
    return;
  }
  const auto& servers = directory_->servers_by_site[static_cast<std::size_t>(s)];
  for (std::size_t i = 0; i < servers.size(); ++i) {
    if (servers[i] == node) {
      leader_hint_[s] = i;
      return;
    }
  }
}

void Broker::observe_peer(SiteId s, NodeId leader_node, std::uint32_t zab_epoch) {
  if (s == kNoSite || s == site()) return;
  learn_leader_hint(s, leader_node);
  if (zab_epoch == 0) return;
  const auto it = peer_zab_epoch_.find(s);
  if (it == peer_zab_epoch_.end()) {
    peer_zab_epoch_[s] = zab_epoch;  // baseline; nothing of ours can be stale
    return;
  }
  if (zab_epoch <= it->second) return;
  it->second = zab_epoch;
  // The peer site's old leadership is gone, and with it the in-stream state
  // our outgoing frames were sequenced against: without a reset the new
  // leader buffers them forever (seq > expected) and the stream wedges.
  transport_.reset_stream(s);
  rt().obs().metrics.counter("wan.stream_resets", site()).inc();
  WK_INFO(now(), name(),
          "site " + std::to_string(s) + " re-elected (zab epoch " +
              std::to_string(zab_epoch) + "); stream reset");
  if (site() != l2_site_ && s == l2_site_) {
    // The hub's new leader never saw our registration: re-announce our
    // frontier so it resyncs us (and we re-ship our unacked local txns).
    registered_ = false;
    send_register();
  }
}

void Broker::wan_tick() {
  if (is_leader()) {
    transport_.retransmit_tick(now(), wan_.retransmit_interval);
  }
  set_timer(wan_.retransmit_interval, [this]() { wan_tick(); });
}

void Broker::on_message(NodeId from, const sim::MessagePtr& msg) {
  const bool is_wan =
      sim::msg_cast<WanEnvelopeMsg>(msg.get()) != nullptr ||
      sim::msg_cast<WanAckMsg>(msg.get()) != nullptr ||
      sim::msg_cast<WanHeartbeatMsg>(msg.get()) != nullptr ||
      sim::msg_cast<WanHeartbeatReplyMsg>(msg.get()) != nullptr ||
      sim::msg_cast<RegisterMsg>(msg.get()) != nullptr ||
      sim::msg_cast<RegisterOkMsg>(msg.get()) != nullptr;
  if (!is_wan) {
    Server::on_message(from, msg);
    return;
  }

  (void)from;

  // WAN traffic is broker-leader business: bounce to the local leader if it
  // landed on a follower (the sender's hint was stale).
  if (!is_leader()) {
    if (leader_server() != kNoNode && leader_server() != id()) {
      rt().send(id(), leader_server(), msg);
    }
    return;
  }

  // Learn the sender's leadership from the identity every WAN message
  // carries in-band. The network-level `from` must never be used: a message
  // bounced through a same-site follower arrives with that follower as the
  // sender, which is exactly how leader hints used to rot (all traffic then
  // routes through a stale node and one crash blackholes the site).
  if (const auto* m = sim::msg_cast<WanEnvelopeMsg>(msg.get())) {
    // A frame's stream_epoch IS the sender's zab epoch, so data traffic
    // triggers the reset as fast as a heartbeat would.
    observe_peer(m->from_site, m->from_node, m->stream_epoch);
  } else if (const auto* m = sim::msg_cast<WanAckMsg>(msg.get())) {
    // An ack's stream_epoch names *our* stream, not the acker's leadership.
    observe_peer(m->from_site, m->from_node, /*zab_epoch=*/0);
  } else if (const auto* m = sim::msg_cast<WanHeartbeatMsg>(msg.get())) {
    observe_peer(m->from_site, m->from_node, m->zab_epoch);
  } else if (const auto* m =
                 sim::msg_cast<WanHeartbeatReplyMsg>(msg.get())) {
    observe_peer(m->from_site, m->from_node, m->zab_epoch);
  } else if (const auto* m = sim::msg_cast<RegisterMsg>(msg.get())) {
    observe_peer(m->from_site, m->from_node, m->zab_epoch);
  } else if (const auto* m = sim::msg_cast<RegisterOkMsg>(msg.get())) {
    observe_peer(m->from_site, m->from_node, m->zab_epoch);
  }

  if (transport_.on_message(kNoSite, msg)) return;

  if (const auto* m = sim::msg_cast<WanHeartbeatMsg>(msg.get())) {
    handle_heartbeat(m->from_site, *m);
    return;
  }
  if (const auto* m = sim::msg_cast<WanHeartbeatReplyMsg>(msg.get())) {
    handle_heartbeat_reply(m->from_site, *m);
    return;
  }
  if (const auto* m = sim::msg_cast<RegisterMsg>(msg.get())) {
    handle_register(m->from_site, *m);
    return;
  }
  if (const auto* m = sim::msg_cast<RegisterOkMsg>(msg.get())) {
    handle_register_ok(*m);
    return;
  }
}

void Broker::wan_deliver(SiteId from_site, const sim::MessagePtr& inner) {
  if (!is_leader()) return;  // stream content is meaningless off-leader
  if (const auto* m = sim::msg_cast<WanForwardMsg>(inner.get())) {
    handle_wan_forward(from_site, *m);
    return;
  }
  if (const auto* m = sim::msg_cast<ReplicateUpMsg>(inner.get())) {
    handle_replicate_up(from_site, *m);
    return;
  }
  if (const auto* m = sim::msg_cast<ReplicateDownMsg>(inner.get())) {
    handle_replicate_down(from_site, *m);
    return;
  }
  if (const auto* m = sim::msg_cast<TokenRecallMsg>(inner.get())) {
    handle_token_recall(*m);
    return;
  }
  if (const auto* m = sim::msg_cast<WanRequestErrorMsg>(inner.get())) {
    handle_wan_request_error(*m);
    return;
  }
  if (const auto* m = sim::msg_cast<ResyncPullMsg>(inner.get())) {
    handle_resync_pull(from_site, *m);
    return;
  }
  if (const auto* m = sim::msg_cast<ResyncChunkMsg>(inner.get())) {
    handle_resync_chunk(from_site, *m);
    return;
  }
}

// ----------------------------------------------------- L1 head processor

void Broker::decorate_txn(store::Txn& txn) {
  if (txn.origin_site == kNoSite) txn.origin_site = site();
  if (l2_role() && txn.gseq == 0) txn.gseq = next_gseq();
}

bool Broker::tokens_held_locally(const std::vector<TokenKey>& keys) const {
  return site_tokens_.holds_all(keys);
}

bool Broker::leases_valid() const {
  if (site() == l2_site_) return true;
  return now() - l2_last_heard_ <= wan_.lease_valid;
}

void Broker::route_write(const zk::ClientRequest& req, NodeId origin_server) {
  if (!is_leader()) {
    Server::route_write(req, origin_server);  // forward to the site leader
    return;
  }
  if (l2_role()) {
    if (l2_reconciling_) {
      // Serialize nothing while catching up: park the write and replay it
      // through route_write when reconciliation resolves (which re-routes
      // it to the real hub if we were superseded meanwhile).
      reconcile_deferred_.push_back(
          [this, req, origin_server]() { route_write(req, origin_server); });
      return;
    }
    // A hub-site write whose tokens are home serializes here at once: the
    // hub's local commit. It counts in the metric only; bstats_ and the
    // auditor keep counting commits under tokens held away from the hub.
    // A write re-served after a recall (l2_serve_unparked) is not local.
    if (l2_serve(req, site(), origin_server) &&
        !tokens_for_request(req).empty()) {
      rt().obs().metrics.counter("token.local_commits", site()).inc();
    }
    return;
  }
  const auto keys = tokens_for_request(req);
  if (keys.empty()) {
    // Session ops and sync: always local (sessions are site-scoped; the
    // commit still replicates up so ephemerals are known WAN-wide).
    prep_and_propose(req, origin_server);
    return;
  }
  if (tokens_held_locally(keys) && leases_valid()) {
    ++bstats_.local_token_commits;
    if (auditor_ != nullptr) auditor_->count_local_commit();
    rt().obs().metrics.counter("token.local_commits", site()).inc();
    prep_and_propose(req, origin_server);
    return;
  }
  forward_to_l2(req, origin_server);
}

void Broker::forward_to_l2(const zk::ClientRequest& req, NodeId origin_server) {
  ++bstats_.wan_forwards;
  rt().obs().metrics.counter("broker.wan_forwards", site()).inc();
  rt().obs().tracer.open(req.trace, obs::SpanKind::kWanHop, l2_site_, name(),
                          now(),
                          "site " + std::to_string(site()) + " -> site " +
                              std::to_string(l2_site_) + " (forward)");
  auto m = sim::make_mutable_message<WanForwardMsg>();
  m->request = req;
  m->origin_server = origin_server;
  transport_.send(l2_site_, std::move(m));
}

void Broker::handle_token_recall(const TokenRecallMsg& m) {
  // Recalls are sent by the hub; one arriving while we ARE the hub is
  // from a deposed regime and must not start a return cycle.
  if (l2_role()) return;
  const auto start_now = site_tokens_.begin_recall(m.keys);
  if (!start_now.empty()) propose_token_return(start_now);
}

void Broker::propose_token_return(const std::vector<TokenKey>& keys) {
  // A return is a proposal (it would mint a gseq mid-catch-up): park it
  // until reconciliation resolves. If we were superseded meanwhile the
  // replay re-routes through the normal recall machinery.
  if (l2_reconciling_) {
    reconcile_deferred_.push_back([this, keys]() {
      if (is_leader()) propose_token_return(keys);
    });
    return;
  }
  zk::Envelope env;
  env.txn.type = store::TxnType::kTokenReturned;
  env.txn.paths = keys;
  env.txn.origin_site = site();
  propose_envelope(std::move(env), {});
}

void Broker::handle_replicate_down(SiteId from_site, const ReplicateDownMsg& m) {
  // No-op on retransmits: the span is already closed.
  rt().obs().tracer.close(m.envelope.trace, obs::SpanKind::kWanHop, site(),
                           now());
  auto& metrics = rt().obs().metrics;
  // Epoch fence: fan-outs from a deposed L2 regime must not be applied
  // against the new regime's sequence; ones from a newer regime mean we
  // have not heard the gossip yet — adopt it from the hub itself.
  if (m.l2_epoch != 0) {
    if (m.l2_epoch < l2_epoch_) {
      metrics.counter("resync.stale_l2_dropped", site()).inc();
      return;
    }
    if (m.l2_epoch > l2_epoch_) adopt_l2(from_site, m.l2_epoch);
  }
  const std::uint64_t g = m.envelope.txn.gseq;
  // Exactly-once apply per gseq: the per-epoch applied frontier (durable,
  // derived from applied txns) plus the propose-in-flight set make a resync
  // racing normal fan-out — or a second resync after a hub leader change —
  // harmless duplication.
  if (gseq_applied(g) || down_proposed_.count(g) != 0) {
    if (m.resync) metrics.counter("resync.dedup_dropped", site()).inc();
    return;
  }
  if (m.resync) {
    metrics.counter("resync.applied", site()).inc();
    rt().obs().tracer.close(m.resync_trace, obs::SpanKind::kWanHop, site(),
                             now());
  }
  down_proposed_.insert(g);
  ++bstats_.replicate_down;
  zk::Envelope env = m.envelope;
  env.txn.zxid = kNoZxid;  // the local zab assigns a fresh zxid
  propose_envelope(std::move(env), {});
  if (m.resync) {
    // Recovery fault point: a resynced txn is proposed locally but not yet
    // applied — crash here models a site dying mid-resync.
    rt().faults().fire("wk.resync_apply", name());
  }
}

void Broker::handle_wan_request_error(const WanRequestErrorMsg& m) {
  send_request_error(m.origin_server, m.session, m.xid, m.rc);
}

void Broker::send_register() {
  auto m = sim::make_mutable_message<RegisterMsg>();
  m->from_site = site();
  m->from_node = id();
  m->zab_epoch = peer()->current_epoch();
  m->down_frontiers = down_frontier_vector();
  m->owned_tokens = site_tokens_.owned_keys();
  // The frontier announcement gets its own trace so a post-mortem can see
  // register -> (resync ship -> first apply) as one timeline.
  m->trace = rt().obs().tracer.begin("register", site(), now());
  rt().obs().tracer.open(m->trace, obs::SpanKind::kWanHop, l2_site_, name(),
                          now(),
                          "register site " + std::to_string(site()) +
                              " -> site " + std::to_string(l2_site_));
  raw_send_to_site(l2_site_, std::move(m));
  rt().obs().metrics.counter("resync.registers_sent", site()).inc();
  rt().obs().events.record(now(), site(), obs::EventKind::kRegister, name(),
                            "to hub site " + std::to_string(l2_site_),
                            /*key=*/"",
                            /*a=*/static_cast<std::uint64_t>(peer()->current_epoch()));
  // Recovery fault point: the frontier announcement is on the wire; crash
  // here models a leader dying between registering and being resynced.
  rt().faults().fire("wk.register_sent", name());
}

void Broker::handle_register_ok(const RegisterOkMsg& m) {
  adopt_l2(m.l2_site, m.l2_epoch);
  if (m.l2_site != l2_site_ || m.l2_epoch != l2_epoch_) return;  // stale hub
  registered_ = true;
  l2_last_heard_ = now();
  resend_local_origin_after(m.up_frontier);
}

void Broker::resend_local_origin_after(Zxid up_frontier) {
  // Re-ship committed local-origin transactions the L2 hasn't applied:
  // covers frames lost to our (or L2's) leadership changes.
  const auto& log = peer()->log();
  for (std::size_t i = log.index_after(up_frontier); i < log.size(); ++i) {
    const auto& entry = log.at(i);
    if (entry.zxid > peer()->last_delivered()) break;  // only committed
    zk::Envelope env = zk::Envelope::decode(entry.payload);
    if (env.txn.origin_site != site() || env.txn.gseq != 0) continue;
    if (env.txn.type == store::TxnType::kNoop ||
        env.txn.type == store::TxnType::kError) {
      continue;
    }
    env.txn.zxid = entry.zxid;
    env.txn.origin_zxid = entry.zxid;
    auto m = sim::make_mutable_message<ReplicateUpMsg>();
    m->envelope = std::move(env);
    transport_.send(l2_site_, std::move(m));
  }
}

// --------------------------------------------------- gseq frontier accounting

void Broker::note_gseq_applied(std::uint64_t gseq) {
  auto& f = applied_down_by_epoch_[gseq_epoch(gseq)];
  const std::uint64_t c = gseq_counter(gseq);
  if (c <= f.cum) return;
  if (c == f.cum + 1) {
    f.cum = c;
    // Drain any sparse counters the advancing prefix now covers.
    auto it = f.sparse.begin();
    while (it != f.sparse.end() && *it == f.cum + 1) {
      f.cum = *it;
      it = f.sparse.erase(it);
    }
  } else {
    f.sparse.insert(c);
  }
}

bool Broker::gseq_applied(std::uint64_t gseq) const {
  const auto it = applied_down_by_epoch_.find(gseq_epoch(gseq));
  if (it == applied_down_by_epoch_.end()) return false;
  const std::uint64_t c = gseq_counter(gseq);
  return c <= it->second.cum || it->second.sparse.count(c) != 0;
}

std::vector<GseqFrontier> Broker::down_frontier_vector() const {
  std::vector<GseqFrontier> v;
  v.reserve(applied_down_by_epoch_.size());
  for (const auto& [epoch, f] : applied_down_by_epoch_) {
    v.push_back({epoch, f.cum});
  }
  return v;
}

bool Broker::frontier_behind(const std::vector<GseqFrontier>& theirs) const {
  for (const auto& [epoch, f] : applied_down_by_epoch_) {
    if (f.cum == 0) continue;
    std::uint64_t their_cum = 0;
    for (const auto& t : theirs) {
      if (t.epoch == epoch) their_cum = t.counter;
    }
    if (their_cum < f.cum) return true;
  }
  return false;
}

bool Broker::frontier_ahead(const std::vector<GseqFrontier>& theirs) const {
  for (const auto& t : theirs) {
    if (t.counter == 0) continue;
    const auto it = applied_down_by_epoch_.find(t.epoch);
    const std::uint64_t mine =
        it == applied_down_by_epoch_.end() ? 0 : it->second.cum;
    if (mine < t.counter) return true;
  }
  return false;
}

// --------------------------------------------------- apply-side mirrors

void Broker::post_apply(const zk::Envelope& env, store::Rc rc) {
  (void)rc;
  const store::Txn& txn = env.txn;

  // Session home tracking (for pinned_sessions and heartbeats).
  if (txn.type == store::TxnType::kCreateSession) {
    session_home_[txn.session] = txn.origin_site;
  } else if (txn.type == store::TxnType::kCloseSession) {
    session_home_.erase(txn.session);
  }

  // Replication frontiers.
  if (txn.gseq != 0) {
    if (txn.gseq > applied_down_gseq_) applied_down_gseq_ = txn.gseq;
    note_gseq_applied(txn.gseq);
    down_proposed_.erase(txn.gseq);
  }
  if (txn.origin_zxid != kNoZxid && txn.origin_site != kNoSite) {
    auto& f = up_frontier_[txn.origin_site];
    f = std::max(f, txn.origin_zxid);
  }

  if (txn.type == store::TxnType::kTokenGranted ||
      txn.type == store::TxnType::kTokenReturned) {
    apply_token_marker(txn);
  }

  audit_applied(env);

  if (!is_leader()) return;

  // Replicate local commits up to L2 (data and token returns alike).
  if (site() != l2_site_ && txn.origin_site == site() && txn.gseq == 0 &&
      txn.type != store::TxnType::kNoop && txn.type != store::TxnType::kError) {
    ++bstats_.replicate_up;
    zk::Envelope up = env;
    up.txn.origin_zxid = txn.zxid;
    rt().obs().tracer.open(up.trace, obs::SpanKind::kWanHop, l2_site_, name(),
                            now(),
                            "site " + std::to_string(site()) + " -> site " +
                                std::to_string(l2_site_) + " (up)");
    auto m = sim::make_mutable_message<ReplicateUpMsg>();
    m->envelope = std::move(up);
    transport_.send(l2_site_, std::move(m));
  }

  // L2: hub fan-out in commit (== gseq) order. Gated while reconciling —
  // txns pulled during catch-up reach the sites via the resync rounds the
  // finish step runs, after the gseq counter has safely resumed.
  if (l2_role() && !l2_reconciling_ && txn.gseq != 0 &&
      txn.type != store::TxnType::kNoop &&
      txn.type != store::TxnType::kError) {
    l2_fan_out(env);
  }
  // A pulled txn applying is reconcile progress: it may complete coverage.
  if (l2_role() && l2_reconciling_ && txn.gseq != 0) l2_reconcile_check();
}

void Broker::apply_token_marker(const store::Txn& txn) {
  if (txn.type == store::TxnType::kTokenGranted) {
    const SiteId grantee = txn.origin_site;
    for (const auto& key : txn.paths) {
      broker_tokens_.set_owner(key, grantee);
      l2_pending_grants_.erase(key);
    }
    // Flight recorder: one grant event per key, written by the applying
    // leader(s) — the hub and the grantee each log into their own ring, and
    // the ownership analytics dedupe the repeated transition.
    if (is_leader() && (grantee == site() || l2_role())) {
      for (const auto& key : txn.paths) {
        rt().obs().events.record(now(), site(), obs::EventKind::kTokenGrant,
                                  name(), "", key,
                                  /*a=*/static_cast<std::uint64_t>(grantee));
      }
    }
    if (grantee == site()) {
      site_tokens_.apply_granted(txn.paths);
      if (auditor_ != nullptr) auditor_->count_grant();
      rt().obs().metrics.counter("token.grants", site()).inc();
      // Recalls that raced ahead of this grant start their return now.
      const auto ret = site_tokens_.take_pending_recalls(txn.paths);
      if (is_leader() && !ret.empty()) propose_token_return(ret);
    }
    if (l2_role()) {
      // Requests parked on these keys need the token back from its new
      // owner; recall immediately (the grant decision raced the request).
      std::vector<TokenKey> wanted_keys;
      for (const auto& key : txn.paths) {
        if (broker_tokens_.recall_in_progress(key)) continue;
        // A parked request references the key in its missing set.
        for (const auto& p : broker_tokens_.parked()) {
          if (p.missing.count(key) != 0) {
            wanted_keys.push_back(key);
            break;
          }
        }
      }
      l2_send_recall(wanted_keys, grantee);
    }
  } else {  // kTokenReturned
    const SiteId returner = txn.origin_site;
    for (const auto& key : txn.paths) {
      broker_tokens_.set_owner(key, kNoSite);
      broker_tokens_.mark_recalling(key, false);
    }
    if (is_leader() && (returner == site() || l2_role())) {
      for (const auto& key : txn.paths) {
        rt().obs().events.record(now(), site(), obs::EventKind::kTokenReturn,
                                  name(), "", key,
                                  /*a=*/static_cast<std::uint64_t>(returner));
      }
    }
    if (returner == site()) {
      site_tokens_.apply_returned(txn.paths);
      if (auditor_ != nullptr) auditor_->count_return();
      rt().obs().metrics.counter("token.returns", site()).inc();
    }
    if (l2_role()) {
      for (const auto& key : txn.paths) {
        if (const auto it = recall_sent_.find(key); it != recall_sent_.end()) {
          rt().obs().metrics.histogram("token.recall_latency_us")
              .record(now() - it->second);
          recall_sent_.erase(it);
        }
      }
      std::vector<PendingRemote> ready;
      for (const auto& key : txn.paths) {
        auto r = broker_tokens_.unpark(key);
        for (auto& p : r) ready.push_back(std::move(p));
      }
      l2_serve_unparked(std::move(ready));
    }
  }
}

void Broker::audit_applied(const zk::Envelope& env) {
  if (auditor_ == nullptr) return;
  const store::Txn& txn = env.txn;
  switch (txn.type) {
    case store::TxnType::kCreate:
    case store::TxnType::kDelete:
    case store::TxnType::kSetData:
    case store::TxnType::kMulti:
      break;
    default:
      return;
  }
  const auto keys = tokens_for_txn(txn);

  // A txn committed locally under site tokens: this site must own them all.
  if (txn.origin_site == site() && txn.gseq == 0 && site() != l2_site_) {
    for (const auto& key : keys) {
      if (!site_tokens_.owns(key)) {
        auditor_->violation(now(), name() + ": local commit without token " + key);
      }
    }
  }
  // At the L2 site: a txn the L2 serialized itself requires the token home;
  // a replicated-up txn requires the token to (still) be at its origin.
  // Scoped to gseqs of our own hub epoch: followers learn of a handover
  // late (hub gossip travels between leaders), so after a failover the old
  // hub site's followers would otherwise audit the new hub's txns against
  // a token mirror from the previous regime.
  if (site() == l2_site_ && txn.gseq != 0 &&
      gseq_epoch(txn.gseq) == l2_epoch_) {
    if (txn.origin_zxid == kNoZxid) {
      for (const auto& key : keys) {
        if (broker_tokens_.owner(key) != kNoSite) {
          auditor_->violation(now(), name() + ": L2 served " + key +
                                         " while token is at site " +
                                         std::to_string(broker_tokens_.owner(key)));
        }
      }
      auditor_->count_remote_commit();
      rt().obs().metrics.counter("token.remote_commits", site()).inc();
    } else {
      for (const auto& key : keys) {
        if (broker_tokens_.owner(key) != txn.origin_site) {
          auditor_->violation(now(), name() + ": site " +
                                         std::to_string(txn.origin_site) +
                                         " wrote " + key + " without owning it");
        }
      }
    }
  }
}

std::vector<SessionId> Broker::pinned_sessions() const {
  // Non-L2 leaders never expire sessions homed elsewhere; the L2 leader
  // relies on heartbeat-carried touches instead (a dead site's sessions
  // then expire naturally).
  if (l2_role()) {
    if (!l2_reconciling_) return {};
    // A reconciling hub's liveness view is stale: it missed the
    // heartbeat-carried touches while it was not the hub, and expiring a
    // session is a proposal (it would mint a gseq mid-catch-up). Pin every
    // known session until reconciliation completes.
    std::vector<SessionId> pinned;
    pinned.reserve(session_home_.size());
    for (const auto& [session, home] : session_home_) pinned.push_back(session);
    return pinned;
  }
  std::vector<SessionId> pinned;
  for (const auto& [session, home] : session_home_) {
    if (home != site()) pinned.push_back(session);
  }
  return pinned;
}

}  // namespace wankeeper::wk
