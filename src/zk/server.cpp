#include "zk/server.h"

#include <algorithm>

#include "common/logging.h"
#include "store/paths.h"

namespace wankeeper::zk {

const char* op_name(OpCode op) {
  switch (op) {
    case OpCode::kCreateSession: return "createSession";
    case OpCode::kCloseSession: return "closeSession";
    case OpCode::kCreate: return "create";
    case OpCode::kDelete: return "delete";
    case OpCode::kSetData: return "setData";
    case OpCode::kGetData: return "getData";
    case OpCode::kExists: return "exists";
    case OpCode::kGetChildren: return "getChildren";
    case OpCode::kSync: return "sync";
    case OpCode::kMulti: return "multi";
    case OpCode::kPing: return "ping";
  }
  return "?";
}

Server::Server(rt::Runtime& rt, std::string name, ServerOptions opts)
    : Actor(rt, std::move(name)), opts_(opts) {}

void Server::start() {
  set_timer(opts_.session_check_interval, [this]() { session_expiry_tick(); });
  set_timer(opts_.touch_relay_interval, [this]() { touch_relay_tick(); });
}

void Server::on_crash() {
  rt().obs().events.record(now(), site(), obs::EventKind::kNodeCrash, name());
  // Connections, queues, watches, and projections are volatile. The tree
  // models the on-disk snapshot at the zab delivered frontier and survives.
  local_sessions_.clear();
  watches_ = store::WatchManager{};
  outstanding_.clear();
  expiring_.clear();
  session_tracker_ = SessionTracker{};
  leader_server_ = kNoNode;
  busy_until_ = 0;
}

void Server::on_restart() {
  rt().obs().events.record(now(), site(), obs::EventKind::kNodeRestart,
                            name());
  set_timer(opts_.session_check_interval, [this]() { session_expiry_tick(); });
  set_timer(opts_.touch_relay_interval, [this]() { touch_relay_tick(); });
}

// ------------------------------------------------------------ CPU model

Time Server::reserve_cpu(Time service) {
  const Time start = std::max(now(), busy_until_);
  busy_until_ = start + service;
  return busy_until_ - now();
}

// --------------------------------------------------------- role changes

void Server::on_leading(std::uint32_t epoch) {
  (void)epoch;
  leader_server_ = id();
  // The new leader's session tracker starts from the sessions recorded in
  // the replicated state (createSession txns it has applied). We rebuild it
  // lazily: any session that pings will be touched; sessions are seeded by
  // apply_committed as createSession txns arrive. Give everyone a grace
  // touch so a leadership change doesn't mass-expire sessions.
  // (ZooKeeper similarly resets expiry buckets on leader startup.)
  session_tracker_grace();
  became_leader();
}

void Server::session_tracker_grace() {
  for (SessionId s : tracked_sessions_) {
    session_tracker_.add(s, opts_.default_session_timeout, now());
  }
}

void Server::on_following(NodeId leader_peer, std::uint32_t epoch) {
  (void)epoch;
  const bool was_leader = leader_server_ == id();
  const auto it = peer_to_server_.find(leader_peer);
  leader_server_ = it == peer_to_server_.end() ? kNoNode : it->second;
  if (was_leader) lost_leadership();
  fail_in_flight_writes(store::Rc::kUnavailable);
}

void Server::on_looking() {
  const bool was_leader = leader_server_ == id();
  leader_server_ = kNoNode;
  if (was_leader) lost_leadership();
  fail_in_flight_writes(store::Rc::kUnavailable);
}

void Server::fail_in_flight_writes(store::Rc rc) {
  for (SessionId sid : local_sessions_.ids()) {
    auto* ls = local_sessions_.find(sid);
    if (ls == nullptr || !ls->in_flight || !ls->in_flight_is_write) continue;
    ClientReply reply;
    reply.session = sid;
    reply.xid = ls->in_flight_xid;
    reply.op = ls->in_flight_op;
    reply.rc = rc;
    reply_to_session(sid, reply);
    complete_request(sid);
  }
}

// ------------------------------------------------------------ messaging

void Server::on_message(NodeId from, const sim::MessagePtr& msg) {
  if (auto* m = sim::msg_cast<ClientRequest>(msg.get())) {
    handle_client_request(from, *m);
    return;
  }
  if (auto* m = sim::msg_cast<ForwardRequestMsg>(msg.get())) {
    handle_forward(from, *m);
    return;
  }
  if (auto* m = sim::msg_cast<RequestErrorMsg>(msg.get())) {
    handle_request_error(*m);
    return;
  }
  if (auto* m = sim::msg_cast<SessionTouchMsg>(msg.get())) {
    handle_session_touch(*m);
    return;
  }
}

void Server::handle_client_request(NodeId from, const ClientRequest& req) {
  if (req.op.op == OpCode::kPing) {
    session_tracker_.touch(req.session, now());
    pinged_sessions_.insert(req.session);
    return;
  }
  if (req.op.op == OpCode::kCreateSession) {
    local_sessions_.ensure(req.session, from,
                           req.session_timeout > 0 ? req.session_timeout
                                                   : opts_.default_session_timeout);
  }
  auto* ls = local_sessions_.find(req.session);
  if (ls == nullptr) {
    ClientReply reply;
    reply.session = req.session;
    reply.xid = req.xid;
    reply.op = req.op.op;
    reply.rc = store::Rc::kSessionExpired;
    rt().send(id(), from, sim::make_message<ClientReply>(reply));
    return;
  }
  ls->client = from;
  ls->queue.push_back(req);
  rt().obs().tracer.open(req.trace, obs::SpanKind::kEnqueue, site(), name(),
                          now());
  pump_session(req.session);
}

void Server::pump_session(SessionId session) {
  auto* ls = local_sessions_.find(session);
  if (ls == nullptr || ls->in_flight || ls->queue.empty()) return;
  ClientRequest req = std::move(ls->queue.front());
  ls->queue.pop_front();
  ls->in_flight = true;
  ls->in_flight_xid = req.xid;
  ls->in_flight_is_write = is_write_op(req.op.op);
  ls->in_flight_op = req.op.op;
  ls->in_flight_since = now();
  const Xid xid = req.xid;
  const Time delay = reserve_cpu(opts_.service_time + opts_.head_overhead);
  set_timer(delay, [this, session, req = std::move(req)]() {
    execute_request(session, req);
  });
  // Watchdog: if the request is still in flight after the timeout (lost
  // forward, partition, dead leader), fail it so the client can retry.
  set_timer(opts_.request_timeout,
            [this, session, xid]() { watch_in_flight_timeout(session, xid); });
}

void Server::watch_in_flight_timeout(SessionId session, Xid xid) {
  auto* ls = local_sessions_.find(session);
  if (ls == nullptr || !ls->in_flight || ls->in_flight_xid != xid) return;
  ClientReply reply;
  reply.session = session;
  reply.xid = xid;
  reply.op = ls->in_flight_op;
  reply.rc = store::Rc::kUnavailable;
  reply_to_session(session, reply);
  complete_request(session);
}

void Server::execute_request(SessionId session, const ClientRequest& req) {
  auto* ls = local_sessions_.find(session);
  if (ls == nullptr) return;
  rt().obs().tracer.close(req.trace, obs::SpanKind::kEnqueue, site(), now());
  if (ls->in_flight_is_write) {
    ++stats_.writes_routed;
    route_write(req, id());
  } else {
    serve_read(session, req);
  }
}

void Server::serve_read(SessionId session, const ClientRequest& req) {
  ++stats_.reads_served;
  ClientReply reply;
  reply.session = session;
  reply.xid = req.xid;
  reply.op = req.op.op;
  reply.zxid = tree_.last_applied();
  switch (req.op.op) {
    case OpCode::kGetData: {
      reply.rc = tree_.get_data(req.op.path, &reply.data, &reply.stat);
      if (req.watch && reply.rc == store::Rc::kOk) {
        watches_.add_data_watch(req.op.path, session);
      }
      break;
    }
    case OpCode::kExists: {
      const bool found = tree_.exists(req.op.path, &reply.stat);
      reply.rc = found ? store::Rc::kOk : store::Rc::kNoNode;
      // exists() watches fire on creation too, so register regardless.
      if (req.watch) watches_.add_data_watch(req.op.path, session);
      break;
    }
    case OpCode::kGetChildren: {
      reply.rc = tree_.get_children(req.op.path, &reply.children);
      if (req.watch && reply.rc == store::Rc::kOk) {
        watches_.add_child_watch(req.op.path, session);
      }
      break;
    }
    default:
      reply.rc = store::Rc::kBadArguments;
  }
  reply_to_session(session, reply);
  complete_request(session);
}

void Server::complete_request(SessionId session) {
  auto* ls = local_sessions_.find(session);
  if (ls == nullptr) return;
  ls->in_flight = false;
  pump_session(session);
}

void Server::reply_to_session(SessionId session, const ClientReply& reply) {
  const auto* ls = local_sessions_.find(session);
  if (ls == nullptr || ls->client == kNoNode) return;
  rt().send(id(), ls->client, sim::make_message<ClientReply>(reply));
}

// ------------------------------------------------------------- write path

void Server::route_write(const ClientRequest& req, NodeId origin_server) {
  if (is_leader()) {
    prep_and_propose(req, origin_server);
    return;
  }
  if (leader_server_ == kNoNode) {
    send_request_error(origin_server, req.session, req.xid, store::Rc::kUnavailable);
    return;
  }
  forward_to(leader_server_, req, origin_server);
}

void Server::forward_to(NodeId server, const ClientRequest& req, NodeId origin_server) {
  ++stats_.forwards;
  auto m = sim::make_mutable_message<ForwardRequestMsg>();
  m->origin_server = origin_server;
  m->request = req;
  rt().send(id(), server, std::move(m));
}

void Server::handle_forward(NodeId from, const ForwardRequestMsg& m) {
  (void)from;
  if (!is_leader()) {
    // Stale routing: bounce an error so the origin fails fast and the
    // client retries against the new topology.
    send_request_error(m.origin_server, m.request.session, m.request.xid,
                       store::Rc::kUnavailable);
    return;
  }
  const Time delay = reserve_cpu(opts_.service_time);
  const ForwardRequestMsg copy = m;
  set_timer(delay, [this, copy]() {
    if (!is_leader()) {
      send_request_error(copy.origin_server, copy.request.session,
                         copy.request.xid, store::Rc::kUnavailable);
      return;
    }
    route_write(copy.request, copy.origin_server);
  });
}

void Server::prep_and_propose(const ClientRequest& req, NodeId origin_server) {
  PrepResult prep = prep_request(req);
  if (prep.rc != store::Rc::kOk) {
    send_request_error(origin_server, req.session, req.xid, prep.rc);
    return;
  }
  Envelope env;
  env.session = req.session;
  env.xid = req.xid;
  env.trace = req.trace;
  env.txn = std::move(prep.txn);
  const Zxid zxid = propose_envelope(env, std::move(prep.overlay));
  if (zxid == kNoZxid) {
    send_request_error(origin_server, req.session, req.xid, store::Rc::kUnavailable);
  }
}

Zxid Server::propose_envelope(Envelope env, Overlay overlay) {
  if (peer_ == nullptr || !peer_->leading()) return kNoZxid;
  decorate_txn(env.txn);
  const Zxid zxid = peer_->propose(env.encode());
  if (zxid == kNoZxid) return kNoZxid;
  // Closed when this replica applies the commit (zab quorum + delivery).
  rt().obs().tracer.open(env.trace, obs::SpanKind::kZabPropose, site(), name(),
                          now());
  for (auto& [path, rec] : overlay) {
    rec.zxid = zxid;
    outstanding_[path] = rec;
  }
  return zxid;
}

void Server::send_request_error(NodeId origin_server, SessionId session, Xid xid,
                                store::Rc rc) {
  ++stats_.request_errors;
  if (origin_server == id()) {
    RequestErrorMsg m;
    m.session = session;
    m.xid = xid;
    m.rc = rc;
    handle_request_error(m);
    return;
  }
  auto m = sim::make_mutable_message<RequestErrorMsg>();
  m->session = session;
  m->xid = xid;
  m->rc = rc;
  rt().send(id(), origin_server, std::move(m));
}

void Server::handle_request_error(const RequestErrorMsg& m) {
  auto* ls = local_sessions_.find(m.session);
  if (ls == nullptr || !ls->in_flight || ls->in_flight_xid != m.xid) return;
  ClientReply reply;
  reply.session = m.session;
  reply.xid = m.xid;
  reply.op = ls->in_flight_op;
  reply.rc = m.rc;
  reply_to_session(m.session, reply);
  complete_request(m.session);
}

// ------------------------------------------------------------------ prep

Server::ChangeRecord Server::project(const std::string& path,
                                     const Overlay& overlay) const {
  if (const auto it = overlay.find(path); it != overlay.end()) return it->second;
  if (const auto it = outstanding_.find(path); it != outstanding_.end()) {
    return it->second;
  }
  ChangeRecord rec;
  store::Stat stat;
  if (tree_.exists(path, &stat)) {
    rec.exists = true;
    rec.version = stat.version;
    rec.cversion = stat.cversion;
    rec.ephemeral_owner = stat.ephemeral_owner;
    rec.child_count = stat.num_children;
  }
  return rec;
}

store::Rc Server::prep_create(const Op& op, SessionId session, Overlay& overlay,
                              store::Txn* txn) {
  if (!store::valid_path(op.path) || op.path == "/") return store::Rc::kInvalidPath;
  const std::string parent = store::parent_path(op.path);
  ChangeRecord pp = project(parent, overlay);
  if (!pp.exists) return store::Rc::kNoNode;
  if (pp.ephemeral_owner != kNoSession) return store::Rc::kNoChildrenForEphemerals;

  std::string final_path = op.path;
  if (op.sequential) {
    final_path = op.path + [&] {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%010d", pp.cversion);
      return std::string(buf);
    }();
  }
  ChangeRecord cp = project(final_path, overlay);
  if (cp.exists) return store::Rc::kNodeExists;

  txn->type = store::TxnType::kCreate;
  txn->path = final_path;
  txn->data = op.data;
  txn->ephemeral = op.ephemeral;
  txn->session = session;
  txn->version = 0;
  txn->parent_cversion = pp.cversion + 1;

  pp.cversion += 1;
  pp.child_count += 1;
  overlay[parent] = pp;
  cp.exists = true;
  cp.version = 0;
  cp.cversion = 0;
  cp.child_count = 0;
  cp.ephemeral_owner = op.ephemeral ? session : kNoSession;
  overlay[final_path] = cp;
  return store::Rc::kOk;
}

store::Rc Server::prep_delete(const Op& op, Overlay& overlay, store::Txn* txn) {
  if (!store::valid_path(op.path) || op.path == "/") return store::Rc::kInvalidPath;
  ChangeRecord cp = project(op.path, overlay);
  if (!cp.exists) return store::Rc::kNoNode;
  if (op.version >= 0 && cp.version != op.version) return store::Rc::kBadVersion;
  if (cp.child_count > 0) return store::Rc::kNotEmpty;
  const std::string parent = store::parent_path(op.path);
  ChangeRecord pp = project(parent, overlay);

  txn->type = store::TxnType::kDelete;
  txn->path = op.path;
  txn->version = op.version < 0 ? 0x7fffffff : op.version;
  txn->parent_cversion = pp.cversion + 1;

  cp.exists = false;
  overlay[op.path] = cp;
  pp.cversion += 1;
  pp.child_count = std::max(0, pp.child_count - 1);
  overlay[parent] = pp;
  return store::Rc::kOk;
}

store::Rc Server::prep_set_data(const Op& op, Overlay& overlay, store::Txn* txn) {
  if (!store::valid_path(op.path)) return store::Rc::kInvalidPath;
  ChangeRecord cp = project(op.path, overlay);
  if (!cp.exists) return store::Rc::kNoNode;
  if (op.version >= 0 && cp.version != op.version) return store::Rc::kBadVersion;

  txn->type = store::TxnType::kSetData;
  txn->path = op.path;
  txn->data = op.data;
  txn->version = cp.version + 1;

  cp.version += 1;
  overlay[op.path] = cp;
  return store::Rc::kOk;
}

store::Rc Server::prep_one(const Op& op, SessionId session, Overlay& overlay,
                           store::Txn* txn) {
  switch (op.op) {
    case OpCode::kCreate:
      return prep_create(op, session, overlay, txn);
    case OpCode::kDelete:
      return prep_delete(op, overlay, txn);
    case OpCode::kSetData:
      return prep_set_data(op, overlay, txn);
    default:
      return store::Rc::kBadArguments;
  }
}

Server::PrepResult Server::prep_request(const ClientRequest& req) {
  PrepResult out;
  switch (req.op.op) {
    case OpCode::kCreateSession: {
      out.txn.type = store::TxnType::kCreateSession;
      out.txn.session = req.session;
      out.txn.session_timeout =
          req.session_timeout > 0 ? req.session_timeout : opts_.default_session_timeout;
      return out;
    }
    case OpCode::kCloseSession: {
      out.txn.type = store::TxnType::kCloseSession;
      out.txn.session = req.session;
      // Project the implied ephemeral deletions.
      for (const auto& path : tree_.ephemerals_of(req.session)) {
        ChangeRecord cp = project(path, out.overlay);
        cp.exists = false;
        out.overlay[path] = cp;
      }
      return out;
    }
    case OpCode::kSync: {
      out.txn.type = store::TxnType::kNoop;
      return out;
    }
    case OpCode::kMulti: {
      out.txn.type = store::TxnType::kMulti;
      for (const auto& op : req.multi_ops) {
        store::Txn sub;
        out.rc = prep_one(op, req.session, out.overlay, &sub);
        if (out.rc != store::Rc::kOk) {
          out.overlay.clear();
          return out;
        }
        out.txn.ops.push_back(std::move(sub));
      }
      return out;
    }
    default: {
      out.rc = prep_one(req.op, req.session, out.overlay, &out.txn);
      return out;
    }
  }
}

// ----------------------------------------------------------------- apply

void Server::on_commit(const zab::LogEntry& entry) {
  Envelope env = Envelope::decode(entry.payload);
  env.txn.zxid = entry.zxid;
  apply_committed(env);
}

void Server::apply_committed(const Envelope& env) {
  ++stats_.txns_applied;
  // Commits landing at the same instant arrived as one group-commit round;
  // the burst size histogram makes batching visible at the apply path.
  if (now() != last_apply_at_) {
    if (apply_burst_ > 0) {
      apply_burst_hist_.at(rt().obs().metrics, "zk.apply_burst", site())
          .record(static_cast<Time>(apply_burst_));
    }
    apply_burst_ = 0;
    last_apply_at_ = now();
  }
  ++apply_burst_;
  const store::Txn& txn = env.txn;
  // Pairs with the proposing leader's open; a no-op on the other replicas.
  rt().obs().tracer.close(env.trace, obs::SpanKind::kZabPropose, site(), now());

  std::vector<std::string> closed_ephemerals;
  if (txn.type == store::TxnType::kCloseSession) {
    closed_ephemerals = tree_.ephemerals_of(txn.session);
  }

  const store::Rc rc = tree_.apply(txn, now());
  clean_outstanding(txn.zxid);

  // Session lifecycle.
  if (txn.type == store::TxnType::kCreateSession) {
    tracked_sessions_.insert(txn.session);
    session_tracker_.add(txn.session,
                         txn.session_timeout > 0 ? txn.session_timeout
                                                 : opts_.default_session_timeout,
                         now());
  } else if (txn.type == store::TxnType::kCloseSession) {
    tracked_sessions_.erase(txn.session);
    session_tracker_.remove(txn.session);
    expiring_.erase(txn.session);
    watches_.remove_session(txn.session);
  }

  // Watches.
  for (const auto& fire : watches_.on_txn(txn, closed_ephemerals)) {
    const auto* ls = local_sessions_.find(fire.session);
    if (ls == nullptr || ls->client == kNoNode) continue;
    ++stats_.watch_notifications;
    auto m = sim::make_mutable_message<WatchNotifyMsg>();
    m->session = fire.session;
    m->path = fire.path;
    m->event = fire.event;
    rt().send(id(), ls->client, std::move(m));
  }

  // Reply if this server owns the originating request.
  auto* ls = local_sessions_.find(env.session);
  if (ls != nullptr && ls->in_flight && ls->in_flight_xid == env.xid) {
    rt().obs().tracer.point(env.trace, obs::SpanKind::kApply, site(), name(),
                             now());
    ClientReply reply;
    reply.session = env.session;
    reply.xid = env.xid;
    reply.op = ls->in_flight_op;
    reply.rc = rc;
    reply.zxid = txn.zxid;
    if (txn.type == store::TxnType::kCreate) reply.created_path = txn.path;
    if (txn.type == store::TxnType::kSetData) {
      reply.stat.version = txn.version;
      reply.stat.mzxid = txn.zxid;
    }
    if (txn.type == store::TxnType::kMulti && !txn.ops.empty()) {
      // Surface the first created path (lock recipes need it).
      for (const auto& sub : txn.ops) {
        if (sub.type == store::TxnType::kCreate) {
          reply.created_path = sub.path;
          break;
        }
      }
    }
    reply_to_session(env.session, reply);
    complete_request(env.session);
    if (ls->in_flight_op == OpCode::kCloseSession) {
      local_sessions_.remove(env.session);
    }
  }

  post_apply(env, rc);
}

void Server::post_apply(const Envelope& env, store::Rc rc) {
  (void)env;
  (void)rc;
}

void Server::clean_outstanding(Zxid zxid) {
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    if (it->second.zxid != kNoZxid && it->second.zxid <= zxid) {
      it = outstanding_.erase(it);
    } else {
      ++it;
    }
  }
}

// --------------------------------------------------------------- sessions

void Server::handle_session_touch(const SessionTouchMsg& m) {
  for (SessionId s : m.sessions) session_tracker_.touch(s, now());
}

void Server::touch_sessions(const std::vector<SessionId>& sessions) {
  for (SessionId s : sessions) session_tracker_.touch(s, now());
}

void Server::session_expiry_tick() {
  if (is_leader()) {
    const auto pinned = pinned_sessions();
    for (SessionId s : session_tracker_.expired(now(), pinned)) {
      if (expiring_.count(s) != 0) continue;
      expiring_.insert(s);
      WK_DEBUG(now(), name(), "expiring session " + std::to_string(s));
      Envelope env;
      env.session = s;
      env.xid = -1;  // not tied to a client request
      env.txn.type = store::TxnType::kCloseSession;
      env.txn.session = s;
      propose_envelope(env, {});
    }
  }
  set_timer(opts_.session_check_interval, [this]() { session_expiry_tick(); });
}

void Server::touch_relay_tick() {
  // Relay liveness of locally-attached sessions to the leader.
  if (!is_leader() && leader_server_ != kNoNode) {
    auto ids = local_sessions_.ids();
    std::vector<SessionId> live;
    for (SessionId s : ids) {
      if (pinged_sessions_.count(s) != 0) live.push_back(s);
    }
    if (!live.empty()) {
      auto m = sim::make_mutable_message<SessionTouchMsg>();
      m->sessions = std::move(live);
      rt().send(id(), leader_server_, std::move(m));
    }
  }
  pinged_sessions_.clear();
  set_timer(opts_.touch_relay_interval, [this]() { touch_relay_tick(); });
}

std::vector<std::string> Server::touched_paths(const ClientRequest& req) {
  std::vector<std::string> out;
  auto add = [&out](const Op& op) {
    switch (op.op) {
      case OpCode::kCreate:
      case OpCode::kDelete:
      case OpCode::kSetData:
        out.push_back(op.path);
        break;
      default:
        break;
    }
  };
  if (req.op.op == OpCode::kMulti) {
    for (const auto& op : req.multi_ops) add(op);
  } else {
    add(req.op);
  }
  return out;
}

}  // namespace wankeeper::zk
