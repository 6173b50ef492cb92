// Level-2 broker logic: serializing tokenless writes, observing access
// patterns, migrating and recalling tokens, stamping the global sequence,
// and fanning committed transactions out to the sites.
#include <algorithm>

#include "common/logging.h"
#include "wankeeper/broker.h"

namespace wankeeper::wk {

std::uint64_t Broker::next_gseq() {
  if (gseq_counter_ == 0) {
    // Fresh leadership: resume after the highest counter applied under the
    // *current* epoch — the contiguous prefix plus the sparse set, since a
    // counter applied above a hole is just as spent as one below it. Keyed
    // per epoch: the old global-max shortcut went blind whenever the
    // numeric max belonged to a different epoch, so a re-promoted hub that
    // had seen a higher epoch restarted its own counters at 1 and re-minted
    // slots a prior same-epoch reign had already used.
    const auto it = applied_down_by_epoch_.find(l2_epoch_);
    if (it != applied_down_by_epoch_.end()) {
      gseq_counter_ = it->second.cum;
      if (!it->second.sparse.empty()) {
        gseq_counter_ = std::max(gseq_counter_, *it->second.sparse.rbegin());
      }
    }
  }
  const std::uint64_t gseq = make_gseq(l2_epoch_, ++gseq_counter_);
  // Flight recorder: the split-brain smoking gun. If two sites ever record
  // a mint for the same numeric gseq, the post-mortem has its fork.
  rt().obs().events.record(now(), site(), obs::EventKind::kGseqMint, name(),
                            "", /*key=*/"", /*a=*/gseq, /*b=*/l2_epoch_);
  return gseq;
}

void Broker::handle_wan_forward(SiteId from_site, const WanForwardMsg& m) {
  if (!l2_role()) return;  // stale routing; the site will re-register
  if (l2_reconciling_) {
    // Serialize nothing while catching up (serving would mint); replay in
    // arrival order at finish, guarded in case we were superseded.
    const zk::ClientRequest req = m.request;
    const NodeId origin = m.origin_server;
    reconcile_deferred_.push_back([this, req, from_site, origin]() {
      if (l2_role()) l2_serve(req, from_site, origin);
    });
    return;
  }
  rt().obs().tracer.close(m.request.trace, obs::SpanKind::kWanHop, site(),
                           now());
  l2_serve(m.request, from_site, m.origin_server);
}

void Broker::handle_replicate_up(SiteId from_site, const ReplicateUpMsg& m) {
  if (!l2_role()) return;
  if (l2_reconciling_) {
    // Sequencing a replicate-up mints a gseq stub for it; defer. The
    // origin-zxid dedup fences make a duplicate replay harmless.
    const ReplicateUpMsg copy = m;
    reconcile_deferred_.push_back([this, from_site, copy]() {
      if (l2_role()) handle_replicate_up(from_site, copy);
    });
    return;
  }
  (void)from_site;
  rt().obs().tracer.close(m.envelope.trace, obs::SpanKind::kWanHop, site(),
                           now());
  const store::Txn& txn = m.envelope.txn;
  const Zxid applied = [&] {
    const auto it = up_frontier_.find(txn.origin_site);
    return it == up_frontier_.end() ? kNoZxid : it->second;
  }();
  const Zxid proposed = [&] {
    const auto it = up_proposed_.find(txn.origin_site);
    return it == up_proposed_.end() ? kNoZxid : it->second;
  }();
  if (txn.origin_zxid <= std::max(applied, proposed)) return;  // duplicate
  // Fence: a data txn the origin committed under tokens it no longer owns
  // (its lease was reclaimed while it was unreachable) must not enter the
  // global order — the records have moved on without it. The origin's own
  // replicas converge again as soon as newer global writes to those
  // records fan back to it.
  switch (txn.type) {
    case store::TxnType::kCreate:
    case store::TxnType::kDelete:
    case store::TxnType::kSetData:
    case store::TxnType::kMulti: {
      for (const auto& key : tokens_for_txn(txn)) {
        if (broker_tokens_.owner(key) != txn.origin_site) {
          ++bstats_.fenced_up;
          WK_INFO(now(), name(),
                  "fenced stale replicate-up from site " +
                      std::to_string(txn.origin_site) + " for " + key);
          up_proposed_[txn.origin_site] = txn.origin_zxid;
          return;
        }
      }
      break;
    }
    default:
      break;
  }
  up_proposed_[txn.origin_site] = txn.origin_zxid;
  l2_propose_remote(m.envelope);
}

void Broker::handle_register(SiteId from_site, const RegisterMsg& m) {
  if (!l2_role()) {
    // Stale routing: the sender will adopt the real L2 via gossip. Close
    // the announce trace so it doesn't dangle open in the recorder.
    rt().obs().tracer.end(m.trace, now());
    return;
  }
  rt().obs().tracer.close(m.trace, obs::SpanKind::kWanHop, site(), now());
  site_last_heard_[from_site] = now();
  site_frontiers_[from_site] = m.down_frontiers;

  // Reconcile token ownership the site claims but our mirror lost (possible
  // across L2 failovers): re-grant through the log so every replica agrees.
  // While reconciling, granting would mint — defer, and re-check ownership
  // at replay (the pulled history may have moved the tokens).
  std::vector<TokenKey> repair;
  for (const auto& key : m.owned_tokens) {
    if (broker_tokens_.owner(key) != from_site) repair.push_back(key);
  }
  if (!repair.empty()) {
    if (l2_reconciling_) {
      reconcile_deferred_.push_back([this, repair, from_site]() {
        if (!l2_role()) return;
        std::vector<TokenKey> still;
        for (const auto& key : repair) {
          if (broker_tokens_.owner(key) != from_site) still.push_back(key);
        }
        if (!still.empty()) l2_propose_grant(still, from_site);
      });
    } else {
      l2_propose_grant(repair, from_site);
    }
  }

  // The RegisterOk still goes out mid-reconcile: it carries our identity
  // claim (the register doubles as the site's adoption of it) and the up
  // frontier the site needs to re-ship its unacked local txns.
  auto reply = sim::make_mutable_message<RegisterOkMsg>();
  reply->from_site = site();
  reply->from_node = id();
  reply->zab_epoch = peer()->current_epoch();
  reply->up_frontier = [&] {
    const auto it = up_frontier_.find(from_site);
    return it == up_frontier_.end() ? kNoZxid : it->second;
  }();
  reply->l2_site = l2_site_;
  reply->l2_epoch = l2_epoch_;
  raw_send_to_site(from_site, std::move(reply));

  if (l2_reconciling_) {
    // Registering with us is adoption: the site has stopped following the
    // old hub. Its frontier joins the census; a pull goes out from
    // l2_reconcile_check if it is ahead of us. The finish step resyncs it,
    // so no refill is lost by skipping l2_resync_site here.
    l2_note_fresh_frontier(from_site, m.down_frontiers);
    rt().obs().tracer.end(m.trace, now());
    l2_reconcile_check();
    return;
  }
  if (frontier_ahead(m.down_frontiers)) {
    // The site applied gseqs we never did (we took over mid-history and
    // served past grace before it reported): straggler catch-up pull.
    l2_send_pull(from_site);
  }
  l2_resync_site(from_site, m.down_frontiers, m.trace);
}

void Broker::l2_propose_remote(const zk::Envelope& env) {
  zk::Envelope copy = env;
  copy.txn.zxid = kNoZxid;  // our zab assigns a fresh local zxid
  propose_envelope(std::move(copy), {});
}

bool Broker::l2_serve(const zk::ClientRequest& req, SiteId from_site,
                      NodeId origin_server) {
  // Re-served after a park: close the wait span (no-op on first arrival).
  rt().obs().tracer.close(req.trace, obs::SpanKind::kTokenWait, site(), now());
  const auto keys = tokens_for_request(req);

  // Fail fast on requests that are invalid against our (causally current)
  // replica — e.g. create of an already-existing znode — *before* touching
  // token state. This keeps doomed requests (lost lock races and the like)
  // from forcing token recalls. The error can be slightly stale for
  // records whose token is away; under the causal mode that is the same
  // class of staleness as local reads, and retrying clients converge.
  {
    auto probe = prep_request(req);
    if (probe.rc != store::Rc::kOk) {
      if (from_site == site()) {
        send_request_error(origin_server, req.session, req.xid, probe.rc);
      } else {
        auto err = sim::make_mutable_message<WanRequestErrorMsg>();
        err->origin_server = origin_server;
        err->session = req.session;
        err->xid = req.xid;
        err->rc = probe.rc;
        transport_.send(from_site, std::move(err));
      }
      return false;
    }
  }

  // Any token currently away (or leaving) blocks serialization here.
  std::set<TokenKey> missing;
  for (const auto& key : keys) {
    if (broker_tokens_.owner(key) != kNoSite || l2_pending_grants_.count(key) != 0) {
      missing.insert(key);
    }
  }

  if (!missing.empty()) {
    ++bstats_.parked;
    rt().obs().metrics.counter("broker.parked", site()).inc();
    rt().obs().tracer.open(req.trace, obs::SpanKind::kTokenWait, site(),
                            name(), now(),
                            "waiting for " + std::to_string(missing.size()) +
                                " token(s)");
    PendingRemote pending;
    pending.from_site = from_site;
    pending.origin_server = origin_server;
    pending.request = req;
    pending.missing = missing;
    // Piggyback: one recall message per owner site, not per key.
    std::map<SiteId, std::vector<TokenKey>> recalls;
    for (const auto& key : missing) {
      const SiteId owner = broker_tokens_.owner(key);
      if (owner != kNoSite && !broker_tokens_.recall_in_progress(key)) {
        recalls[owner].push_back(key);
      }
      // pending grants: the recall fires when the grant marker applies
    }
    broker_tokens_.park(std::move(pending));
    for (auto& [owner, owner_keys] : recalls) l2_send_recall(owner_keys, owner);
    return false;
  }

  // Tokens are home: serialize here. Record the access pattern and let the
  // policy decide whether they should migrate to the requesting site.
  std::vector<TokenKey> grant_keys;
  if (policy_ == nullptr) policy_ = make_policy(wan_.policy);
  for (const auto& key : keys) {
    const bool migrate = broker_tokens_.record_access(key, from_site, *policy_);
    if (migrate && from_site != site()) grant_keys.push_back(key);
  }

  auto prep = prep_request(req);
  if (prep.rc != store::Rc::kOk) {
    if (from_site == site()) {
      send_request_error(origin_server, req.session, req.xid, prep.rc);
    } else {
      auto err = sim::make_mutable_message<WanRequestErrorMsg>();
      err->origin_server = origin_server;
      err->session = req.session;
      err->xid = req.xid;
      err->rc = prep.rc;
      transport_.send(from_site, std::move(err));
    }
    return false;
  }
  ++bstats_.l2_served;
  rt().obs().metrics.counter("broker.l2_served", site()).inc();
  zk::Envelope env;
  env.session = req.session;
  env.xid = req.xid;
  env.trace = req.trace;
  env.txn = std::move(prep.txn);
  env.txn.origin_site = from_site;  // requester; decorate_txn stamps gseq
  propose_envelope(std::move(env), std::move(prep.overlay));

  if (!grant_keys.empty()) l2_propose_grant(grant_keys, from_site);
  return true;
}

void Broker::l2_propose_grant(const std::vector<TokenKey>& keys, SiteId grantee) {
  ++bstats_.grants;
  WK_DEBUG(now(), name(),
           "granting " + std::to_string(keys.size()) + " token(s) to site " +
               std::to_string(grantee));
  for (const auto& key : keys) l2_pending_grants_.insert(key);
  zk::Envelope env;
  env.txn.type = store::TxnType::kTokenGranted;
  env.txn.paths = keys;
  env.txn.origin_site = grantee;
  propose_envelope(std::move(env), {});
  // Recovery fault point: a grant is proposed but its marker not yet
  // committed — crash here models the hub dying with a grant in flight
  // during a leader change.
  rt().faults().fire("wk.grant_proposed", name());
}

void Broker::l2_send_recall(const std::vector<TokenKey>& keys, SiteId owner) {
  if (keys.empty()) return;
  bstats_.recalls += keys.size();
  for (const auto& key : keys) {
    if (auditor_ != nullptr) auditor_->count_recall();
    rt().obs().metrics.counter("token.recalls", site()).inc();
    recall_sent_.try_emplace(key, now());
    broker_tokens_.mark_recalling(key, true);
    rt().obs().events.record(now(), site(), obs::EventKind::kTokenRecall,
                              name(), "", key,
                              /*a=*/static_cast<std::uint64_t>(owner));
  }
  auto m = sim::make_mutable_message<TokenRecallMsg>();
  m->keys = keys;
  transport_.send(owner, std::move(m));
}

void Broker::l2_serve_unparked(std::vector<PendingRemote> ready) {
  for (auto& p : ready) {
    l2_serve(p.request, p.from_site, p.origin_server);
  }
}

// One fan-out leg. A replicated-up txn already lives at its origin site in
// full, but the origin still has to learn the *gseq* the hub stamped on it —
// otherwise its per-epoch applied frontier keeps a permanent hole there and
// every later resync decision is poisoned. So instead of skipping the origin
// we ship a stub: gseq kept, payload stripped to a noop, client routing
// cleared. The stub applies through the origin's zab like any fan-out, which
// is exactly what makes its frontier a pure function of applied txns.
void Broker::l2_send_down(SiteId dest, const zk::Envelope& env, bool resync,
                          obs::TraceId resync_trace) {
  auto m = sim::make_mutable_message<ReplicateDownMsg>();
  m->envelope = env;
  // The message's epoch names the *sending regime*, not the txn's mint
  // epoch (which rides in its gseq): a current hub re-shipping an older
  // epoch's txn must pass the receiver's stale-regime fence — stamping the
  // mint epoch got exactly those resyncs dropped as if from a deposed hub.
  m->l2_epoch = l2_epoch_;
  m->resync = resync;
  m->resync_trace = resync_trace;
  if (env.txn.origin_zxid != kNoZxid && dest == env.txn.origin_site) {
    store::Txn stub;
    stub.type = store::TxnType::kNoop;
    stub.gseq = env.txn.gseq;
    stub.origin_site = env.txn.origin_site;
    // Keeping origin_zxid lets the origin later re-join this gseq with its
    // own gseq-0 log entry if it ever becomes the hub (see l2_resync_site).
    stub.origin_zxid = env.txn.origin_zxid;
    m->envelope.txn = std::move(stub);
    m->envelope.session = kNoSession;
    m->envelope.xid = 0;
    m->envelope.trace = obs::kNoTrace;
  }
  transport_.send(dest, std::move(m));
}

void Broker::l2_fan_out(const zk::Envelope& env) {
  const store::Txn& txn = env.txn;
  for (std::size_t s = 0; s < directory_->sites(); ++s) {
    const SiteId dest = static_cast<SiteId>(s);
    if (dest == site()) continue;
    // Shed load for unreachable sites: an unbounded backlog would take
    // minutes to drain after a long partition, whereas the frontier-based
    // resync replays the gap from the log in one burst on reconnect.
    if (transport_.unacked(dest) > wan_.max_site_backlog) {
      ++bstats_.fanout_skipped;
      continue;
    }
    // Trace only the hop back to the request's origin site (where the
    // client is waiting); the other fan-out legs are not on its path.
    if (dest == txn.origin_site && txn.origin_zxid == kNoZxid) {
      rt().obs().tracer.open(env.trace, obs::SpanKind::kWanHop, dest, name(),
                              now(),
                              "site " + std::to_string(site()) + " -> site " +
                                  std::to_string(dest) + " (down)");
    }
    l2_send_down(dest, env, /*resync=*/false, obs::kNoTrace);
  }
}

// The committed-log walk shared by the hub->site refill (l2_resync_site)
// and the site->new-hub pull (handle_resync_pull). Everything globally
// sequenced above `have` — the destination's contiguous counter per epoch —
// is handed to `ship` in log (== gseq) order. Per-gseq dedup at the receiver
// makes over-shipping (of sparse counters held above a hole) harmless.
//
// Local-origin commits pass through our log with gseq 0; the gseq the hub
// stamped on them came back only as a noop stub (keyed by our zxid). The
// walk tracks the gseq-0 entries so a stub further down the log is expanded
// back into the full transaction when the destination is missing it.
std::uint64_t Broker::ship_missing_gseqs(
    const std::vector<GseqFrontier>& have,
    const std::function<void(zk::Envelope&&)>& ship) {
  std::map<std::uint32_t, std::uint64_t> covered;  // epoch -> contiguous ctr
  for (const auto& f : have) covered[f.epoch] = f.counter;
  const auto& log = peer()->log();
  std::map<Zxid, std::size_t> own_origin;  // our zxid -> log index
  std::uint64_t shipped = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto& entry = log.at(i);
    if (entry.zxid > peer()->last_delivered()) break;
    zk::Envelope env = zk::Envelope::decode(entry.payload);
    if (env.txn.gseq == 0) {
      if (env.txn.origin_site == site() &&
          env.txn.type != store::TxnType::kNoop &&
          env.txn.type != store::TxnType::kError) {
        own_origin[entry.zxid] = i;
      }
      continue;
    }
    if (env.txn.type == store::TxnType::kNoop) {
      // A stub from a regime in which we were an L1 origin: expand it from
      // our own log entry so the destination gets the real payload.
      const auto oi = env.txn.origin_site == site()
                          ? own_origin.find(env.txn.origin_zxid)
                          : own_origin.end();
      if (oi == own_origin.end()) continue;
      const std::uint64_t g = env.txn.gseq;
      env = zk::Envelope::decode(log.at(oi->second).payload);
      env.txn.gseq = g;
      env.txn.origin_zxid = log.at(oi->second).zxid;
      env.session = kNoSession;
      env.xid = 0;
      env.trace = obs::kNoTrace;
    }
    if (env.txn.type == store::TxnType::kError) continue;
    const auto it = covered.find(gseq_epoch(env.txn.gseq));
    if (it != covered.end() && gseq_counter(env.txn.gseq) <= it->second) {
      continue;
    }
    env.txn.zxid = entry.zxid;
    ship(std::move(env));
    ++shipped;
  }
  return shipped;
}

void Broker::l2_resync_site(SiteId dest, const std::vector<GseqFrontier>& frontiers,
                            obs::TraceId announce) {
  // Re-ship committed L2-sequenced txns the site is missing (frames lost to
  // leadership changes on either end, or shed fan-outs). The site announces
  // its contiguously-applied counter per L2 epoch; anything above that is
  // re-shipped. Because the hub's committed gseqs are contiguous from 1
  // within each epoch, this closes every hole in one round.
  obs::TraceId trace = obs::kNoTrace;
  const std::uint64_t shipped =
      ship_missing_gseqs(frontiers, [&](zk::Envelope&& env) {
        if (trace == obs::kNoTrace) {
          // One trace per resync round: a span per shipped txn would drown
          // the recorder; the round-level span still shows ship -> first
          // apply. When the frontiers arrived with their own trace (a
          // register or heartbeat announce), the resync continues it — the
          // post-mortem then reads announce -> ship -> apply.
          trace = announce != obs::kNoTrace
                      ? announce
                      : rt().obs().tracer.begin("resync", site(), now());
          rt().obs().tracer.open(trace, obs::SpanKind::kWanHop, dest, name(),
                                  now(),
                                  "resync site " + std::to_string(site()) +
                                      " -> site " + std::to_string(dest));
        }
        l2_send_down(dest, env, /*resync=*/true, trace);
      });
  if (shipped > 0) {
    resync_sent_at_[dest] = now();
    rt().obs().metrics.counter("resync.rounds", site()).inc();
    rt().obs().metrics.counter("resync.txns_shipped", site()).inc(shipped);
    WK_INFO(now(), name(),
            "resynced site " + std::to_string(dest) + " with " +
                std::to_string(shipped) + " txn(s)");
    rt().obs().events.record(now(), site(), obs::EventKind::kResync, name(),
                              "", /*key=*/"", /*a=*/shipped,
                              /*b=*/static_cast<std::uint64_t>(dest));
    // Recovery fault point: the resync burst is on the wire but nothing is
    // confirmed applied — crash here models the hub dying right after a
    // resync request was served.
    rt().faults().fire("wk.resync_sent", name());
  } else if (announce != obs::kNoTrace) {
    // Frontiers were already covered — the announce trace ends here rather
    // than dangling open in the recorder.
    rt().obs().tracer.end(announce, now());
  }
}

void Broker::l2_reclaim_dead_site_tokens() {
  // Reclaiming proposes marker txns (which would mint mid-catch-up), and a
  // "dead" verdict over a liveness map assembled seconds ago is exactly the
  // stale judgment a reconciling hub must not act on.
  if (l2_reconciling_) return;
  for (const auto& [s, heard] : site_last_heard_) {
    if (s == site()) continue;
    if (now() - heard <= wan_.token_lease) continue;
    const auto keys = broker_tokens_.owned_by(s);
    if (keys.empty()) continue;
    ++bstats_.lease_reclaims;
    WK_INFO(now(), name(),
            "lease expired: reclaiming " + std::to_string(keys.size()) +
                " token(s) from dead site " + std::to_string(s));
    for (const auto& key : keys) {
      rt().obs().events.record(now(), site(), obs::EventKind::kTokenReclaim,
                                name(), "lease expired", key,
                                /*a=*/static_cast<std::uint64_t>(s));
    }
    zk::Envelope env;
    env.txn.type = store::TxnType::kTokenReturned;
    env.txn.paths = keys;
    env.txn.origin_site = s;  // reclaimed on the silent owner's behalf
    propose_envelope(std::move(env), {});
  }
}

// ------------------------------------------------ hub handover catch-up
//
// A hub assuming service with evidence of prior WAN sequencing enters
// RECONCILING (DESIGN.md §5d): it collects applied down-frontiers from the
// sites as they acknowledge the new regime, pulls every transaction they
// applied that it did not (ResyncPullMsg / ResyncChunkMsg — the inverse of
// l2_resync_site), and only once its replica covers what a majority has
// applied does it start serving — with next_gseq() resuming after the
// highest applied counter instead of restarting at 1. Client work arriving
// meanwhile is deferred and replayed at finish. This closes the asym3
// split-brain: without it, a site that self-promoted behind a one-way cut
// re-minted gseqs the old hub had already fanned out.

void Broker::l2_enter_reconcile(const std::string& why) {
  if (l2_reconciling_ || !l2_role()) return;
  l2_reconciling_ = true;
  reconcile_started_ = now();
  reconcile_frontiers_.clear();
  reconcile_pull_sent_.clear();
  reconcile_epoch_was_fresh_ = applied_down_by_epoch_.count(l2_epoch_) == 0;
  ++bstats_.reconciles;
  rt().obs().metrics.counter("reconcile.entered", site()).inc();
  WK_INFO(now(), name(),
          "RECONCILING (epoch " + std::to_string(l2_epoch_) + "): " + why);
  rt().obs().events.record(now(), site(), obs::EventKind::kHubReconcile,
                            name(), "begin: " + why, /*key=*/"",
                            /*a=*/l2_epoch_);
  l2_reconcile_check();
}

void Broker::l2_abort_reconcile(const std::string& why) {
  if (!l2_reconciling_) return;
  l2_reconciling_ = false;
  rt().obs().metrics.counter("reconcile.aborted", site()).inc();
  WK_INFO(now(), name(), "reconcile aborted: " + why);
  rt().obs().events.record(now(), site(), obs::EventKind::kHubReconcile,
                            name(), "abort: " + why, /*key=*/"",
                            /*a=*/l2_epoch_);
  reconcile_frontiers_.clear();
  reconcile_pull_sent_.clear();
  // Replay even on abort: each closure re-checks the role it needs, so
  // local writes re-route to whoever superseded us and hub-only work
  // drops out harmlessly.
  auto deferred = std::move(reconcile_deferred_);
  reconcile_deferred_.clear();
  for (auto& fn : deferred) fn();
}

void Broker::l2_finish_reconcile(const std::string& how) {
  l2_reconciling_ = false;
  rt().obs().metrics.counter("reconcile.completed", site()).inc();
  rt().obs().metrics.histogram("reconcile.duration_us", site())
      .record(now() - reconcile_started_);
  WK_INFO(now(), name(),
          "reconciled (epoch " + std::to_string(l2_epoch_) + ", " + how +
              "); serving");
  rt().obs().events.record(now(), site(), obs::EventKind::kHubReconcile,
                            name(), "done: " + how, /*key=*/"",
                            /*a=*/l2_epoch_,
                            /*b=*/static_cast<std::uint64_t>(now() -
                                                             reconcile_started_));
  // Fan-out was gated during catch-up, so the txns we pulled never left
  // this site: resync every known site up to our (now-covering) replica
  // before replaying the deferred writes — the replay mints fresh gseqs
  // that fan out normally on top. A resync fires the wk.resync_sent fault
  // point, whose observer may crash this broker synchronously — on_crash()
  // clears site_frontiers_, so walk a snapshot and stop if the role dies.
  std::vector<std::pair<SiteId, std::vector<GseqFrontier>>> resync_plan;
  for (const auto& [s, frontiers] : site_frontiers_) {
    if (s == site()) continue;
    resync_plan.emplace_back(s, frontiers);
  }
  for (const auto& [s, frontiers] : resync_plan) {
    if (!l2_role()) return;  // crashed/deposed mid-walk; state already reset
    l2_resync_site(s, frontiers);
  }
  reconcile_frontiers_.clear();
  reconcile_pull_sent_.clear();
  auto deferred = std::move(reconcile_deferred_);
  reconcile_deferred_.clear();
  for (auto& fn : deferred) fn();
}

void Broker::l2_note_fresh_frontier(SiteId from_site,
                                    const std::vector<GseqFrontier>& frontiers) {
  if (!l2_reconciling_ || from_site == site()) return;
  reconcile_frontiers_[from_site] = frontiers;
}

void Broker::l2_reconcile_check() {
  if (!l2_reconciling_ || !l2_role()) return;

  // Stale-view promotion guard: if any announced frontier names an epoch at
  // or above the one we claimed — and our own replica had nothing for the
  // claimed epoch when we entered — another regime minted under it; re-bump
  // past everything observed so our mints can never collide with theirs.
  std::uint32_t max_minted = 0;
  for (const auto& [s, frontiers] : site_frontiers_) {
    for (const auto& f : frontiers) {
      if (f.counter != 0) max_minted = std::max(max_minted, f.epoch);
    }
  }
  for (const auto& [epoch, f] : applied_down_by_epoch_) {
    if (f.cum != 0 || !f.sparse.empty()) max_minted = std::max(max_minted, epoch);
  }
  if (max_minted > l2_epoch_ ||
      (max_minted == l2_epoch_ && reconcile_epoch_was_fresh_)) {
    const std::uint32_t bumped = max_minted + 1;
    WK_INFO(now(), name(),
            "reconcile: epoch " + std::to_string(l2_epoch_) +
                " already minted elsewhere; re-bumping to " +
                std::to_string(bumped));
    rt().obs().events.record(now(), site(), obs::EventKind::kHubPromote,
                              name(), "re-bump during reconcile", /*key=*/"",
                              /*a=*/bumped);
    l2_epoch_ = bumped;
    gseq_counter_ = 0;
    reconcile_epoch_was_fresh_ = true;
    send_heartbeats();  // gossip the corrected claim immediately
  }

  // Freshness census: sites that have spoken to us *under this regime* —
  // a register, a heartbeat naming us, or a completed pull. An old hub
  // that is still minting fails that test even though it heartbeats.
  const std::size_t sites = directory_->sites();
  std::size_t fresh = 1;  // self
  for (const auto& [s, frontiers] : reconcile_frontiers_) {
    (void)frontiers;
    if (s != site()) ++fresh;
  }
  const bool majority = fresh * 2 > sites;
  const bool all_fresh = fresh >= sites;

  // Coverage: our contiguous applied frontier must reach every currently
  // alive fresh reporter's announced frontier. A dead reporter cannot
  // answer pulls; its data is either with the living or gone (the CP
  // trade the failover already made).
  bool covered = true;
  for (const auto& [s, frontiers] : reconcile_frontiers_) {
    if (!site_alive(s)) continue;
    if (frontier_ahead(frontiers)) covered = false;
  }

  const Time elapsed = now() - reconcile_started_;
  if (majority && covered &&
      (all_fresh || elapsed >= wan_.reconcile_grace)) {
    l2_finish_reconcile(all_fresh ? "all sites reported" : "majority + grace");
    return;
  }
  if (majority && elapsed >= wan_.reconcile_max_wait) {
    // Pathological stall (an ahead site flapping in and out of liveness):
    // serve rather than wedge forever. Logged loudly — the post-mortem
    // will show exactly what was left uncovered.
    rt().obs().events.record(now(), site(), obs::EventKind::kHubReconcile,
                              name(), "timeout: serving uncovered", /*key=*/"",
                              /*a=*/l2_epoch_);
    l2_finish_reconcile("timeout");
    return;
  }

  // Not done: chase whoever is ahead of us. Fresh or not — a pull carries
  // our identity claim as gossip, so it also converts a still-deluded old
  // hub into a responder. A pull fires the wk.reconcile_pull fault point,
  // whose observer may crash this broker synchronously — on_crash() clears
  // both frontier maps, so collect the targets first, then send.
  std::vector<SiteId> chase;
  for (const auto& [s, frontiers] : site_frontiers_) {
    if (s == site() || !frontier_ahead(frontiers)) continue;
    chase.push_back(s);
  }
  for (const auto& [s, frontiers] : reconcile_frontiers_) {
    if (frontier_ahead(frontiers)) chase.push_back(s);
  }
  for (const SiteId s : chase) {
    if (!l2_role()) return;  // crashed/deposed mid-walk; nothing left to pull
    l2_send_pull(s);
  }
}

void Broker::l2_send_pull(SiteId dest) {
  if (dest == site() || !l2_role()) return;
  const auto it = reconcile_pull_sent_.find(dest);
  if (it != reconcile_pull_sent_.end() &&
      now() - it->second < wan_.reconcile_pull_interval) {
    return;
  }
  reconcile_pull_sent_[dest] = now();
  ++bstats_.reconcile_pulls;
  rt().obs().metrics.counter("reconcile.pulls_sent", site()).inc();
  auto m = sim::make_mutable_message<ResyncPullMsg>();
  m->from_site = site();
  m->l2_epoch = l2_epoch_;
  m->have = down_frontier_vector();
  m->trace = rt().obs().tracer.begin("reconcile_pull", site(), now());
  rt().obs().tracer.open(m->trace, obs::SpanKind::kWanHop, dest, name(), now(),
                          "pull site " + std::to_string(site()) +
                              " <- site " + std::to_string(dest));
  rt().obs().events.record(now(), site(), obs::EventKind::kResync, name(),
                            "pull request", /*key=*/"", /*a=*/0,
                            /*b=*/static_cast<std::uint64_t>(dest));
  transport_.send(dest, std::move(m));
  // Recovery fault point: the new hub is mid-catch-up with a pull on the
  // wire — crash here models the reconciling hub dying before it served.
  rt().faults().fire("wk.reconcile_pull", name());
}

void Broker::handle_resync_pull(SiteId /*from_site*/, const ResyncPullMsg& m) {
  // The pull is gossip: the sender claims to be the hub at m.l2_epoch.
  // A responder still following the old regime adopts the claim first
  // (lowest-site tie-breaks apply), so answering implies acknowledging.
  adopt_l2(m.from_site, m.l2_epoch);
  rt().obs().tracer.close(m.trace, obs::SpanKind::kWanHop, site(), now());
  if (m.from_site != l2_site_ || m.l2_epoch != l2_epoch_) {
    // A superseded claimant: answer nothing; it will hear the real hub's
    // gossip and stand down on its own.
    rt().obs().tracer.end(m.trace, now());
    return;
  }
  auto chunk = sim::make_mutable_message<ResyncChunkMsg>();
  chunk->from_site = site();
  const std::uint64_t shipped =
      ship_missing_gseqs(m.have, [&](zk::Envelope&& env) {
        chunk->envelopes.push_back(std::move(env));
        if (chunk->envelopes.size() >= wan_.resync_chunk_max) {
          transport_.send(m.from_site, std::move(chunk));
          chunk = sim::make_mutable_message<ResyncChunkMsg>();
          chunk->from_site = site();
        }
      });
  // The final (possibly empty) chunk carries our frontiers: the hub marks
  // us reconciled off it even when we had nothing it was missing.
  chunk->done = true;
  chunk->frontiers = down_frontier_vector();
  chunk->trace = m.trace;
  rt().obs().tracer.open(m.trace, obs::SpanKind::kWanHop, m.from_site, name(),
                          now(),
                          "chunks site " + std::to_string(site()) +
                              " -> site " + std::to_string(m.from_site));
  transport_.send(m.from_site, std::move(chunk));
  if (shipped > 0) {
    rt().obs().metrics.counter("reconcile.pulls_served", site()).inc();
    rt().obs().metrics.counter("reconcile.pull_txns", site()).inc(shipped);
    WK_INFO(now(), name(),
            "answered reconcile pull from site " +
                std::to_string(m.from_site) + " with " +
                std::to_string(shipped) + " txn(s)");
    rt().obs().events.record(now(), site(), obs::EventKind::kResync, name(),
                              "pull answered", /*key=*/"", /*a=*/shipped,
                              /*b=*/static_cast<std::uint64_t>(m.from_site));
  }
}

void Broker::handle_resync_chunk(SiteId from_site, const ResyncChunkMsg& m) {
  if (site() != l2_site_ || !is_leader()) return;  // superseded; moot
  std::uint64_t adopted = 0;
  for (const zk::Envelope& env : m.envelopes) {
    const std::uint64_t g = env.txn.gseq;
    if (g == 0 || gseq_applied(g) || down_proposed_.count(g) != 0) continue;
    down_proposed_.insert(g);
    ++bstats_.pulled_txns;
    ++adopted;
    zk::Envelope copy = env;
    copy.txn.zxid = kNoZxid;  // our zab assigns a fresh local zxid
    // gseq != 0, so decorate_txn leaves the stamp alone; session/xid ride
    // along so an origin client still waiting gets its reply on apply.
    propose_envelope(std::move(copy), {});
  }
  if (adopted > 0) {
    rt().obs().metrics.counter("reconcile.pull_applied", site()).inc(adopted);
  }
  if (m.done) {
    rt().obs().tracer.close(m.trace, obs::SpanKind::kWanHop, site(), now());
    rt().obs().tracer.end(m.trace, now());
    site_last_heard_[from_site] = now();
    site_frontiers_[from_site] = m.frontiers;
    // Answering the pull implies the responder adopted our regime.
    l2_note_fresh_frontier(from_site, m.frontiers);
    l2_reconcile_check();
  }
  // Recovery fault point: pulled txns proposed but not yet applied — crash
  // here models the reconciling hub dying mid-catch-up.
  if (adopted > 0) rt().faults().fire("wk.reconcile_apply", name());
}

}  // namespace wankeeper::wk
