// The WanKeeper broker: a zk::Server extended with the paper's token
// machinery. Every replica in every site runs Broker code; the WAN roles
// activate on the site leader:
//
//   L1 broker  (site leader)            — token-check head processor: writes
//     whose tokens are all local commit in the site's own Zab; the rest are
//     forwarded to L2. Commits replicate up; tokens recalled by L2 are
//     returned after in-flight local txns drain.
//   L2 broker  (leader of the designated L2 site) — serializes tokenless
//     writes, observes access patterns, migrates tokens per policy, recalls
//     them on conflict, stamps every transaction with a global sequence and
//     fans it out, hub-style, to all other sites (which preserves causal
//     order across the WAN).
//
// All durable protocol state (token ownership, session homes, replication
// frontiers, the L2 sequence counter) is derived purely from *applied*
// transactions — grant/return movements are logged as marker txns — so any
// newly elected leader, L1 or L2, reconstructs it from its replica state
// exactly as §II-D prescribes.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "wankeeper/audit.h"
#include "wankeeper/messages.h"
#include "wankeeper/policy.h"
#include "wankeeper/token.h"
#include "wankeeper/token_manager.h"
#include "wankeeper/wan_transport.h"
#include "zk/server.h"

namespace wankeeper::wk {

// Static deployment directory: which server NodeIds live at which site.
// Shared by all brokers; contents fixed after construction.
struct SiteDirectory {
  std::vector<std::vector<NodeId>> servers_by_site;

  std::size_t sites() const { return servers_by_site.size(); }
};

struct WanOptions {
  SiteId l2_site = 0;
  std::string policy = "consecutive:2";  // see make_policy()
  Time heartbeat_interval = 1 * kSecond;
  Time retransmit_interval = 300 * kMillisecond;
  Time l2_failover_timeout = 5 * kSecond;   // silence before promoting a new L2
  // Lease discipline (paper §II-B): a site stops using its tokens when it
  // has not heard from L2 for lease_valid; L2 reclaims a silent site's
  // tokens after token_lease >> lease_valid. The long default makes
  // reclaim a dead-site remedy, not a partition remedy: during transient
  // partitions the held records simply stay unavailable elsewhere (CP).
  // Writes a site committed inside its lease window but could not
  // replicate before a reclaim are *fenced* at L2 (see handle_replicate_up)
  // so they can never fork the global order.
  Time lease_valid = 8 * kSecond;
  Time token_lease = 60 * kSecond;
  bool enable_l2_failover = true;
  // Per-site fan-out backlog cap: beyond this many unacked messages the L2
  // stops queueing fan-outs for the site (it is unreachable) and relies on
  // the gseq-frontier resync when it reconnects.
  std::size_t max_site_backlog = 512;
  // Minimum spacing between resync rounds to one site. A round ships
  // everything above the site's contiguous frontier, and the refill needs a
  // WAN round trip plus apply time to move that frontier; re-shipping every
  // heartbeat until then would only manufacture dedup-dropped duplicates.
  Time resync_min_interval = 2 * kSecond;
  // Hub handover catch-up (RECONCILING; DESIGN.md §5d). A hub assuming
  // service with evidence of prior WAN sequencing must not mint until its
  // replica covers what the other sites have applied. It waits for every
  // site to check in under the new regime up to reconcile_grace, then
  // serves on majority coverage; reconcile_max_wait force-completes a
  // pathologically stalled catch-up (an ahead site flapping forever) so
  // the hub cannot wedge — but never before a majority has reported.
  Time reconcile_grace = 5 * kSecond;
  Time reconcile_max_wait = 15 * kSecond;
  // Per-site spacing between reconcile pull retries. The pull itself rides
  // the reliable transport; retries only chase frontier movement.
  Time reconcile_pull_interval = 1 * kSecond;
  // Envelopes per ResyncChunkMsg when answering a pull.
  std::size_t resync_chunk_max = 32;
  // WAN frame coalescing (default off: one message per frame). With
  // batch.max_msgs > 1, grants/recalls, replicate-downs, and forwards
  // headed to the same site share frames.
  WanBatchOptions batch;
};

struct BrokerStats {
  std::uint64_t local_token_commits = 0;   // writes committed under site tokens
  std::uint64_t wan_forwards = 0;          // writes sent to L2
  std::uint64_t l2_served = 0;             // writes serialized at L2
  std::uint64_t grants = 0;
  std::uint64_t recalls = 0;
  std::uint64_t returns = 0;
  std::uint64_t replicate_up = 0;
  std::uint64_t replicate_down = 0;
  std::uint64_t parked = 0;
  std::uint64_t lease_reclaims = 0;
  std::uint64_t fenced_up = 0;      // stale replicate-ups dropped after reclaim
  std::uint64_t fanout_skipped = 0; // fan-outs shed to an unreachable site
  std::uint64_t reconciles = 0;     // RECONCILING entries on this broker
  std::uint64_t reconcile_pulls = 0;  // pull rounds sent while catching up
  std::uint64_t pulled_txns = 0;      // txns adopted from ResyncChunk replies
};

class Broker : public zk::Server {
 public:
  Broker(rt::Runtime& rt, std::string name, zk::ServerOptions server_opts,
         WanOptions wan_opts, std::shared_ptr<const SiteDirectory> directory,
         TokenAuditor* auditor = nullptr);

  // --- introspection ---
  bool l2_role() const { return site() == l2_site_ && is_leader(); }
  // True while a freshly promoted hub is still catching up (RECONCILING):
  // collecting frontiers, pulling missing txns, deferring client work.
  bool l2_reconciling() const { return l2_reconciling_; }
  // An L1 leader has completed hub discovery (Fig 2 registration); an L2
  // does not register with itself, so this is true for a hub leader too.
  bool registered_with_hub() const { return registered_; }
  SiteId l2_site() const { return l2_site_; }
  std::uint32_t l2_epoch() const { return l2_epoch_; }
  const SiteTokenTable& site_tokens() const { return site_tokens_; }
  const BrokerTokenTable& token_table() const { return broker_tokens_; }
  const BrokerStats& broker_stats() const { return bstats_; }
  const WanTransport& transport() const { return transport_; }
  std::uint64_t applied_down_gseq() const { return applied_down_gseq_; }
  std::vector<GseqFrontier> applied_down_frontiers() const {
    return down_frontier_vector();
  }

  // Bench/test hook: pre-place tokens at a site (the paper's "WK Hot"
  // configuration in Fig 6). Only effective on the acting L2 broker.
  void bench_grant_tokens(const std::vector<TokenKey>& keys, SiteId grantee) {
    if (l2_role() && !keys.empty()) l2_propose_grant(keys, grantee);
  }

  void start() override;
  void on_message(NodeId from, const sim::MessagePtr& msg) override;

 protected:
  void on_crash() override;
  void on_restart() override;

  // zk::Server extension points
  void route_write(const zk::ClientRequest& req, NodeId origin_server) override;
  void post_apply(const zk::Envelope& env, store::Rc rc) override;
  std::vector<SessionId> pinned_sessions() const override;
  void became_leader() override;
  void lost_leadership() override;
  void decorate_txn(store::Txn& txn) override;

 private:
  friend class Deployment;

  // ---- WAN plumbing ----
  WanTransport make_transport(SiteId site_id);
  void raw_send_to_site(SiteId dest, sim::MessagePtr frame);
  void wan_deliver(SiteId from_site, const sim::MessagePtr& inner);
  void wan_tick();
  // Every WAN message carries the sender's leader identity and zab epoch
  // in-band (the network-level sender may be a bouncing follower). A zab
  // epoch bump means the peer site's old leadership — and both directions
  // of its WAN streams — are dead: reset our outgoing stream and, if the
  // peer is the L2 site, re-register to re-announce our frontier.
  void observe_peer(SiteId s, NodeId leader_node, std::uint32_t zab_epoch);
  void learn_leader_hint(SiteId s, NodeId node);

  // ---- gseq frontier accounting (broker.cpp) ----
  // Derived purely from applied txns, like the other durable mirrors:
  // per L2 epoch, the contiguously applied counter prefix plus the sparse
  // set applied above a hole (holes come from fan-out shedding and lost
  // streams; resync fills them from the contiguous frontier).
  void note_gseq_applied(std::uint64_t gseq);
  bool gseq_applied(std::uint64_t gseq) const;
  std::vector<GseqFrontier> down_frontier_vector() const;
  // True when our applied frontier exceeds `theirs` in any epoch (the L2
  // uses this to decide a site needs a resync).
  bool frontier_behind(const std::vector<GseqFrontier>& theirs) const;
  // The inverse: `theirs` exceeds our applied frontier in any epoch (a hub
  // uses this to decide it must pull from the announcing site).
  bool frontier_ahead(const std::vector<GseqFrontier>& theirs) const;

  // ---- L1 side (broker.cpp) ----
  bool tokens_held_locally(const std::vector<TokenKey>& keys) const;
  bool leases_valid() const;
  void forward_to_l2(const zk::ClientRequest& req, NodeId origin_server);
  void handle_token_recall(const TokenRecallMsg& m);
  void propose_token_return(const std::vector<TokenKey>& keys);
  void handle_replicate_down(SiteId from_site, const ReplicateDownMsg& m);
  void handle_register_ok(const RegisterOkMsg& m);
  void handle_wan_request_error(const WanRequestErrorMsg& m);
  void send_register();
  void resend_local_origin_after(Zxid up_frontier);

  // ---- L2 side (level2.cpp) ----
  void handle_wan_forward(SiteId from_site, const WanForwardMsg& m);
  void handle_replicate_up(SiteId from_site, const ReplicateUpMsg& m);
  void handle_register(SiteId from_site, const RegisterMsg& m);
  // True when the write was proposed at once: no token away, no prep error.
  bool l2_serve(const zk::ClientRequest& req, SiteId from_site,
                NodeId origin_server);
  void l2_propose_remote(const zk::Envelope& env);
  void l2_propose_grant(const std::vector<TokenKey>& keys, SiteId grantee);
  void l2_send_recall(const std::vector<TokenKey>& keys, SiteId owner);
  void l2_serve_unparked(std::vector<PendingRemote> ready);
  void l2_fan_out(const zk::Envelope& env);
  void l2_send_down(SiteId dest, const zk::Envelope& env, bool resync,
                    obs::TraceId resync_trace);
  // `announce` is the trace riding on the register/heartbeat that carried
  // the frontiers. Passing it transfers ownership: a triggered resync
  // continues it (ship -> first apply), a no-op round ends it. A caller
  // that decides not to resync at all must end the trace itself.
  void l2_resync_site(SiteId site, const std::vector<GseqFrontier>& frontiers,
                      obs::TraceId announce = obs::kNoTrace);
  void l2_reclaim_dead_site_tokens();
  std::uint64_t next_gseq();

  // ---- hub handover catch-up (level2.cpp) ----
  // A hub entering service with evidence of prior WAN sequencing goes
  // through RECONCILING before minting; see the functions' definitions and
  // DESIGN.md §5d for the state machine.
  void l2_enter_reconcile(const std::string& why);
  void l2_abort_reconcile(const std::string& why);
  void l2_reconcile_check();
  void l2_finish_reconcile(const std::string& how);
  void l2_send_pull(SiteId dest);
  void l2_note_fresh_frontier(SiteId from_site,
                              const std::vector<GseqFrontier>& frontiers);
  void handle_resync_pull(SiteId from_site, const ResyncPullMsg& m);
  void handle_resync_chunk(SiteId from_site, const ResyncChunkMsg& m);
  // Walks the committed log and hands every globally sequenced txn above
  // `have` (contiguous counter per epoch) to `ship`, expanding noop stubs
  // of our own origin back into full payloads. Shared by l2_resync_site
  // (hub -> site refill) and handle_resync_pull (site -> new hub).
  std::uint64_t ship_missing_gseqs(
      const std::vector<GseqFrontier>& have,
      const std::function<void(zk::Envelope&&)>& ship);

  // ---- liveness / registration / failover (heartbeat.cpp) ----
  void heartbeat_tick();
  void send_heartbeats();
  void handle_heartbeat(SiteId from_site, const WanHeartbeatMsg& m);
  void handle_heartbeat_reply(SiteId from_site, const WanHeartbeatReplyMsg& m);
  void adopt_l2(SiteId site, std::uint32_t epoch);
  void consider_l2_failover();
  bool site_alive(SiteId s) const;

  // ---- shared apply-side mirror maintenance (broker.cpp) ----
  void apply_token_marker(const store::Txn& txn);
  void audit_applied(const zk::Envelope& env);

  WanOptions wan_;
  std::shared_ptr<const SiteDirectory> directory_;
  TokenAuditor* auditor_;
  std::unique_ptr<MigrationPolicy> policy_;

  // Snapshot-like state: a deterministic function of the applied txn
  // prefix; survives crashes alongside the data tree.
  SiteTokenTable site_tokens_;
  BrokerTokenTable broker_tokens_;          // global token map mirror
  std::map<SessionId, SiteId> session_home_;
  std::map<SiteId, Zxid> up_frontier_;      // per-site applied origin zxids
  std::uint64_t applied_down_gseq_ = 0;     // highest L2 gseq applied here
  std::uint64_t gseq_counter_ = 0;          // L2: counter within l2_epoch_
  // Per-L2-epoch applied frontier: cum = contiguous prefix of counters
  // applied, sparse = counters applied above a hole. Together they answer
  // gseq_applied() exactly, making resync idempotent (exactly-once apply
  // per gseq), while cum alone is what a resync request announces.
  struct AppliedFrontier {
    std::uint64_t cum = 0;
    std::set<std::uint64_t> sparse;
  };
  std::map<std::uint32_t, AppliedFrontier> applied_down_by_epoch_;

  // Volatile state (cleared on crash).
  WanTransport transport_;
  SiteId l2_site_ = 0;
  std::uint32_t l2_epoch_ = 1;
  std::map<SiteId, Zxid> up_proposed_;      // L2: dedupe between propose/apply
  std::set<std::uint64_t> down_proposed_;   // L1: dedupe between propose/apply
  std::set<TokenKey> l2_pending_grants_;    // grant proposed, not yet applied
  std::map<SiteId, Time> site_last_heard_;
  std::map<SiteId, std::vector<SessionId>> wan_live_sessions_;
  std::map<SiteId, std::vector<GseqFrontier>> site_frontiers_;
  std::map<SiteId, Time> resync_sent_at_;  // L2: per-site round cooldown
  std::map<SiteId, std::size_t> leader_hint_;
  std::map<SiteId, std::uint32_t> peer_zab_epoch_;  // last observed per site
  std::map<TokenKey, Time> recall_sent_;  // L2: recall RTT measurement
  Time l2_last_heard_ = 0;
  bool registered_ = false;
  // Hub handover catch-up (volatile, like the rest of the liveness state).
  bool l2_reconciling_ = false;
  Time reconcile_started_ = 0;
  // Whether our replica had no mints for the claimed epoch at entry: if it
  // had none and a frontier later names that epoch, someone else minted
  // under it and we must re-bump past them (stale-view promotion race).
  bool reconcile_epoch_was_fresh_ = false;
  // Frontiers from sites that acknowledged *this* regime (register, a
  // heartbeat naming us, or a completed pull) — the freshness census.
  std::map<SiteId, std::vector<GseqFrontier>> reconcile_frontiers_;
  std::map<SiteId, Time> reconcile_pull_sent_;  // per-site pull cooldown
  // Client work arriving while reconciling, replayed in order at finish
  // (or abort — each closure re-checks the role it needs).
  std::vector<std::function<void()>> reconcile_deferred_;
  BrokerStats bstats_;
  obs::CachedCounter frames_sent_ctr_;
  obs::CachedCounter frame_msgs_ctr_;
  obs::CachedHistogram frame_batch_hist_;
};

}  // namespace wankeeper::wk
