// A ZooKeeper-like server replica: client sessions and FIFO request queues,
// the leader's request-processor pipeline (prep with outstanding-change
// projection -> Zab proposal -> commit -> apply/reply), local reads, watch
// delivery, session expiry, and follower/observer write forwarding.
//
// The request-processor chain of the paper's Figure 3 maps onto:
//   head (route_write, virtual)  -> WanKeeper's token processor overrides it
//   prep (prep_request)          -> ZooKeeper's PrepRequestProcessor
//   proposal (propose_txn)       -> ProposalRequestProcessor / Zab
//   commit+final (on_commit)     -> CommitProcessor + FinalRequestProcessor
//
// Each Server is co-located with a zab::Peer (same machine, zero-latency
// method calls between them); the pair is one "node".
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "sim/actor.h"
#include "store/datatree.h"
#include "store/txn.h"
#include "store/watch.h"
#include "zab/peer.h"
#include "zk/messages.h"
#include "zk/session.h"

namespace wankeeper::zk {

// What travels inside a Zab payload: the originating request identity plus
// the prepared transaction. session/xid route the commit back to the client.
struct Envelope {
  SessionId session = kNoSession;
  Xid xid = 0;
  obs::TraceId trace = obs::kNoTrace;  // rides the wire so traces cross sites
  store::Txn txn;

  template <class V> void fields(V& v) { v(session, xid, trace, txn); }
  bool operator==(const Envelope&) const = default;

  std::vector<std::uint8_t> encode() const { return encode_value(*this); }
  static Envelope decode(const std::vector<std::uint8_t>& bytes) {
    return decode_value<Envelope>(BufferReader(bytes));
  }
  static Envelope decode(const common::Bytes& bytes) {
    return decode_value<Envelope>(BufferReader(bytes.data(), bytes.size()));
  }
};

struct ServerOptions {
  Time service_time = 150 * kMicrosecond;   // CPU per client-facing request
  Time head_overhead = 0;  // extra head-processor cost on every request (WanKeeper)
  Time session_check_interval = 500 * kMillisecond;
  Time touch_relay_interval = 1 * kSecond;
  Time request_timeout = 10 * kSecond;      // in-flight op -> kUnavailable
  Time default_session_timeout = 6 * kSecond;
};

struct ServerStats {
  std::uint64_t reads_served = 0;
  std::uint64_t writes_routed = 0;
  std::uint64_t txns_applied = 0;
  std::uint64_t forwards = 0;
  std::uint64_t watch_notifications = 0;
  std::uint64_t request_errors = 0;
};

class Server : public sim::Actor, public zab::StateMachine {
 public:
  Server(rt::Runtime& rt, std::string name, ServerOptions opts = {});

  // --- wiring (before the deployment starts) ---
  void attach_peer(zab::Peer& peer) { peer_ = &peer; }
  // zab peer NodeId -> server NodeId, for routing forwards to the leader.
  void set_peer_server_map(std::map<NodeId, NodeId> m) { peer_to_server_ = std::move(m); }
  void set_site(SiteId site) { site_ = site; }

  // --- introspection ---
  const store::DataTree& tree() const { return tree_; }
  bool is_leader() const { return peer_ != nullptr && peer_->leading(); }
  NodeId leader_server() const { return leader_server_; }
  SiteId site() const { return site_; }
  const ServerStats& stats() const { return stats_; }
  zab::Peer* peer() { return peer_; }

  // --- zab::StateMachine ---
  void on_commit(const zab::LogEntry& entry) override;
  void on_leading(std::uint32_t epoch) override;
  void on_following(NodeId leader_peer, std::uint32_t epoch) override;
  void on_looking() override;

  // --- sim::Actor ---
  void start() override;
  void on_message(NodeId from, const sim::MessagePtr& msg) override;

 protected:
  void on_crash() override;
  void on_restart() override;

  // ---- extension points for WanKeeper ----
  // Head of the write pipeline: decides local-commit vs forward. Base
  // implementation: leader preps+proposes, everyone else forwards to the
  // leader server. `origin_server` is where the owning session lives.
  virtual void route_write(const ClientRequest& req, NodeId origin_server);
  // Called after a committed txn has been applied (and any reply sent).
  virtual void post_apply(const Envelope& env, store::Rc rc);
  // Sessions the leader must not expire (alive elsewhere in the WAN).
  virtual std::vector<SessionId> pinned_sessions() const { return {}; }
  // Role-change hooks beyond the zab callbacks.
  virtual void became_leader() {}
  virtual void lost_leadership() {}
  // Stamp deployment-level fields onto a txn as it enters the pipeline
  // (WanKeeper: origin site, L2 global sequence). Called by
  // propose_envelope for every proposal, including session expiry.
  virtual void decorate_txn(store::Txn& txn) { (void)txn; }

  // ---- building blocks shared with the WanKeeper broker ----
  struct ChangeRecord {
    Zxid zxid = kNoZxid;  // pending proposal that produces this state
    bool exists = false;
    std::int32_t version = 0;
    std::int32_t cversion = 0;
    SessionId ephemeral_owner = kNoSession;
    std::int32_t child_count = 0;
  };
  using Overlay = std::map<std::string, ChangeRecord>;

  struct PrepResult {
    store::Rc rc = store::Rc::kOk;
    store::Txn txn;
    Overlay overlay;  // projected changes to record if proposed
  };

  // Validate a request against projected state and build its txn.
  PrepResult prep_request(const ClientRequest& req);
  // Propose an envelope through Zab (after decorate_txn); records `overlay`
  // as outstanding. Returns the assigned zxid or kNoZxid when not leading.
  Zxid propose_envelope(Envelope env, Overlay overlay);
  // Refresh liveness of sessions known via WAN heartbeats (WanKeeper L2).
  void touch_sessions(const std::vector<SessionId>& sessions);
  // prep + propose + error handling; used by route_write implementations.
  void prep_and_propose(const ClientRequest& req, NodeId origin_server);

  void send_request_error(NodeId origin_server, SessionId session, Xid xid,
                          store::Rc rc);
  void forward_to(NodeId server, const ClientRequest& req, NodeId origin_server);
  void reply_to_session(SessionId session, const ClientReply& reply);

  // Paths touched by a write request (token lookups + validation).
  static std::vector<std::string> touched_paths(const ClientRequest& req);

  const ServerOptions& options() const { return opts_; }
  store::DataTree& mutable_tree() { return tree_; }
  LocalSessions& local_sessions() { return local_sessions_; }
  ServerStats& mutable_stats() { return stats_; }

  // CPU model: returns the delay until this request's service slot.
  Time reserve_cpu(Time service);

 private:
  ChangeRecord project(const std::string& path, const Overlay& overlay) const;
  store::Rc prep_create(const Op& op, SessionId session, Overlay& overlay,
                        store::Txn* txn);
  store::Rc prep_delete(const Op& op, Overlay& overlay, store::Txn* txn);
  store::Rc prep_set_data(const Op& op, Overlay& overlay, store::Txn* txn);
  store::Rc prep_one(const Op& op, SessionId session, Overlay& overlay,
                     store::Txn* txn);

  void handle_client_request(NodeId from, const ClientRequest& req);
  void handle_forward(NodeId from, const ForwardRequestMsg& m);
  void handle_request_error(const RequestErrorMsg& m);
  void handle_session_touch(const SessionTouchMsg& m);

  void pump_session(SessionId session);
  void execute_request(SessionId session, const ClientRequest& req);
  void serve_read(SessionId session, const ClientRequest& req);
  void complete_request(SessionId session);
  void fail_in_flight_writes(store::Rc rc);
  void watch_in_flight_timeout(SessionId session, Xid xid);

  void apply_committed(const Envelope& env);
  void clean_outstanding(Zxid zxid);

  void session_expiry_tick();
  void touch_relay_tick();
  void session_tracker_grace();

  ServerOptions opts_;
  zab::Peer* peer_ = nullptr;
  std::map<NodeId, NodeId> peer_to_server_;
  SiteId site_ = kNoSite;

  store::DataTree tree_;
  store::WatchManager watches_;
  LocalSessions local_sessions_;
  SessionTracker session_tracker_;  // meaningful on the leader
  std::set<SessionId> expiring_;    // closeSession proposed, not yet committed
  std::set<SessionId> tracked_sessions_;  // all sessions alive in replicated state
  std::set<SessionId> pinged_sessions_;   // pinged since last touch relay

  // Leader projection state (ZooKeeper's outstandingChanges).
  Overlay outstanding_;

  NodeId leader_server_ = kNoNode;
  Time busy_until_ = 0;
  Time last_apply_at_ = -1;      // commit-burst tracking (zk.apply_burst)
  std::uint64_t apply_burst_ = 0;
  obs::CachedHistogram apply_burst_hist_;
  ServerStats stats_;
};

}  // namespace wankeeper::zk
