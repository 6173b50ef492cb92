// WanKeeper's inter-site (L1 <-> L2) wire protocol. All of these travel
// inside WanEnvelopeMsg frames managed by WanTransport, which provides the
// reliable FIFO streams the protocol assumes (paper §II-B: "we require FIFO
// channels between brokers/servers, which can be ensured by using TCP").
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/trace.h"
#include "sim/message.h"
#include "store/txn.h"
#include "wankeeper/token.h"
#include "zk/messages.h"
#include "zk/server.h"

namespace wankeeper::wk {

// Global sequence numbers encode (l2_epoch, counter): the epoch in the high
// bits so numeric order follows regime order, the per-epoch counter below.
constexpr int kGseqEpochShift = 40;
constexpr std::uint64_t kGseqCounterMask = (1ULL << kGseqEpochShift) - 1;
inline std::uint32_t gseq_epoch(std::uint64_t g) {
  return static_cast<std::uint32_t>(g >> kGseqEpochShift);
}
inline std::uint64_t gseq_counter(std::uint64_t g) { return g & kGseqCounterMask; }
inline std::uint64_t make_gseq(std::uint32_t epoch, std::uint64_t counter) {
  return (static_cast<std::uint64_t>(epoch) << kGseqEpochShift) | counter;
}

// Per-L2-epoch replication frontier: `counter` is the highest gseq counter
// applied *contiguously* from epoch `epoch` (gseq = epoch << 40 | counter).
// A site's down-frontier is a vector of these, one per L2 epoch it has seen,
// so a resync after an L2 failover can re-ship holes left in an *older*
// epoch — a single numeric-max frontier cannot express those (the epoch
// occupies the high bits, so any new-epoch gseq compares above every
// old-epoch one).
struct GseqFrontier {
  std::uint32_t epoch = 0;
  std::uint64_t counter = 0;

  template <class V> void fields(V& v) { v(epoch, counter); }
  bool operator==(const GseqFrontier&) const = default;
};

// The coverage target of hub handover catch-up (DESIGN.md §5d): per epoch,
// the max contiguous counter any announcing site has applied. A freshly
// promoted hub must reach this before minting — anything below it is a
// transaction the cluster has already seen and the new hub has not.
inline std::vector<GseqFrontier> majority_frontier(
    const std::vector<std::vector<GseqFrontier>>& announced) {
  std::map<std::uint32_t, std::uint64_t> acc;
  for (const auto& frontiers : announced) {
    for (const auto& f : frontiers) {
      auto& c = acc[f.epoch];
      c = std::max(c, f.counter);
    }
  }
  std::vector<GseqFrontier> out;
  out.reserve(acc.size());
  for (const auto& [epoch, counter] : acc) out.push_back({epoch, counter});
  return out;
}

// The epochs where `target` exceeds `have`, and by how much — what a
// reconciling hub still needs to pull. Empty means covered.
inline std::vector<GseqFrontier> frontier_deficit(
    const std::vector<GseqFrontier>& have,
    const std::vector<GseqFrontier>& target) {
  std::vector<GseqFrontier> out;
  for (const auto& t : target) {
    if (t.counter == 0) continue;
    std::uint64_t mine = 0;
    for (const auto& h : have) {
      if (h.epoch == t.epoch) mine = h.counter;
    }
    if (mine < t.counter) out.push_back({t.epoch, t.counter - mine});
  }
  return out;
}

// --- transport framing ---

// One frame carries one or more protocol messages with consecutive
// sequence numbers (coalescing); inners[i] has sequence seq + i.
struct WanEnvelopeMsg : sim::Wire<WanEnvelopeMsg> {
  SiteId from_site = kNoSite;
  NodeId from_node = kNoNode;      // sending leader, for receiver leader hints
  std::uint32_t stream_epoch = 0;  // sender's zab epoch: new leader, new stream
  std::uint32_t stream_gen = 0;    // bumped when the sender restarts the stream
  std::uint64_t seq = 0;           // FIFO sequence of inners.front()
  std::vector<sim::MessagePtr> inners;  // == compares these by pointer
  std::uint64_t last_seq() const { return seq + inners.size() - 1; }
  const char* name() const override { return "wk.envelope"; }
  template <class V> void fields(V& v) {
    v(from_site, from_node, stream_epoch, stream_gen, seq, inners);
  }
  bool operator==(const WanEnvelopeMsg&) const = default;
};

struct WanAckMsg : sim::Wire<WanAckMsg> {
  SiteId from_site = kNoSite;
  NodeId from_node = kNoNode;
  std::uint32_t stream_epoch = 0;  // epoch of the stream being acked
  std::uint32_t stream_gen = 0;    // generation of the stream being acked
  std::uint64_t cumulative = 0;    // everything <= cumulative received
  const char* name() const override { return "wk.ack"; }
  template <class V> void fields(V& v) {
    v(from_site, from_node, stream_epoch, stream_gen, cumulative);
  }
  bool operator==(const WanAckMsg&) const = default;
};

// --- L1 -> L2 ---

// Discovery phase of the paper's Fig 2: a (re)elected L1 leader registers
// with the L2 site, reporting its replication frontiers and owned tokens so
// both ends can resynchronize.
struct RegisterMsg : sim::Wire<RegisterMsg> {
  SiteId from_site = kNoSite;
  NodeId from_node = kNoNode;  // the (re)elected leader announcing itself
  std::uint32_t zab_epoch = 0;
  std::vector<GseqFrontier> down_frontiers;  // contiguously applied, per epoch
  std::vector<TokenKey> owned_tokens;
  obs::TraceId trace = obs::kNoTrace;  // register hop -> resync it triggers
  const char* name() const override { return "wk.register"; }
  template <class V> void fields(V& v) {
    v(from_site, from_node, zab_epoch, down_frontiers, owned_tokens, trace);
  }
  bool operator==(const RegisterMsg&) const = default;
};

// A write the L1 site lacks tokens for, forwarded for L2 serialization
// (step 8 of Fig 2). origin_server routes prep errors back.
struct WanForwardMsg : sim::Wire<WanForwardMsg> {
  zk::ClientRequest request;
  NodeId origin_server = kNoNode;
  const char* name() const override { return "wk.forward"; }
  template <class V> void fields(V& v) { v(request, origin_server); }
  bool operator==(const WanForwardMsg&) const = default;
};

// A transaction committed locally under site tokens, replicated up to L2
// for global sequencing and fan-out (step 14 of Fig 2).
struct ReplicateUpMsg : sim::Wire<ReplicateUpMsg> {
  zk::Envelope envelope;  // txn.origin_site/origin_zxid identify it globally
  const char* name() const override { return "wk.replicateUp"; }
  template <class V> void fields(V& v) { v(envelope); }
  bool operator==(const ReplicateUpMsg&) const = default;
};

// A returned token (the marker txn already flowed up via ReplicateUp; this
// is implicit — kept for documentation symmetry; see broker.cpp).

// A reconciling hub announcing its own applied frontiers and asking a site
// that is ahead to ship what the hub is missing — the inverse of
// l2_resync_site. Carries the puller's claimed identity: receiving one IS
// hub gossip, so a responder still following the old regime adopts the
// claim first and then serves the pull.
struct ResyncPullMsg : sim::Wire<ResyncPullMsg> {
  SiteId from_site = kNoSite;
  std::uint32_t l2_epoch = 0;          // the puller's claimed hub epoch
  std::vector<GseqFrontier> have;      // puller's contiguous applied frontiers
  obs::TraceId trace = obs::kNoTrace;  // pull -> chunks -> apply timeline
  const char* name() const override { return "wk.resyncPull"; }
  template <class V> void fields(V& v) { v(from_site, l2_epoch, have, trace); }
  bool operator==(const ResyncPullMsg&) const = default;
};

// The answer: committed globally-sequenced transactions above the puller's
// frontier, in log (== gseq) order, chunked. The final chunk (done) also
// carries the responder's own frontiers, which doubles as its adoption of
// the puller's regime.
struct ResyncChunkMsg : sim::Wire<ResyncChunkMsg> {
  SiteId from_site = kNoSite;
  bool done = false;
  std::vector<zk::Envelope> envelopes;
  std::vector<GseqFrontier> frontiers;  // set on the final (done) chunk
  obs::TraceId trace = obs::kNoTrace;   // set on the final (done) chunk
  const char* name() const override { return "wk.resyncChunk"; }
  template <class V> void fields(V& v) {
    v(from_site, done, envelopes, frontiers, trace);
  }
  bool operator==(const ResyncChunkMsg&) const = default;
};

// Site liveness + ephemeral-session piggyback (the paper's WAN Heartbeater)
// + L2 identity gossip used for failover.
struct WanHeartbeatMsg : sim::Wire<WanHeartbeatMsg> {
  SiteId from_site = kNoSite;
  NodeId from_node = kNoNode;
  std::uint32_t zab_epoch = 0;  // sender leadership; a bump resets WAN streams
  std::vector<SessionId> live_sessions;
  std::vector<GseqFrontier> down_frontiers;
  SiteId l2_site = kNoSite;
  std::uint32_t l2_epoch = 0;
  // Set only on the heartbeat sent *to the hub*: the frontier announcement
  // that can trigger a resync. The hub either continues this trace into the
  // resync round or ends it on arrival, so no trace leaks open.
  obs::TraceId trace = obs::kNoTrace;
  const char* name() const override { return "wk.heartbeat"; }
  template <class V> void fields(V& v) {
    v(from_site, from_node, zab_epoch, live_sessions, down_frontiers, l2_site,
      l2_epoch, trace);
  }
  bool operator==(const WanHeartbeatMsg&) const = default;
};

// --- L2 -> L1 ---

struct RegisterOkMsg : sim::Wire<RegisterOkMsg> {
  SiteId from_site = kNoSite;
  NodeId from_node = kNoNode;
  std::uint32_t zab_epoch = 0;
  Zxid up_frontier = kNoZxid;  // highest origin zxid L2 applied from you
  SiteId l2_site = kNoSite;
  std::uint32_t l2_epoch = 0;
  const char* name() const override { return "wk.registerOk"; }
  template <class V> void fields(V& v) {
    v(from_site, from_node, zab_epoch, up_frontier, l2_site, l2_epoch);
  }
  bool operator==(const RegisterOkMsg&) const = default;
};

// A globally sequenced transaction fanned out to a site (step 10 of Fig 2).
// Epoch-tagged: a receiver drops fan-outs from a deposed L2 regime instead
// of applying them against the new regime's sequence. `resync` marks
// re-shipments from l2_resync_site (metrics + trace bookkeeping only; the
// dedup path is identical either way, which is what makes resync idempotent).
struct ReplicateDownMsg : sim::Wire<ReplicateDownMsg> {
  zk::Envelope envelope;  // txn.gseq orders it; session/xid route the reply
  std::uint32_t l2_epoch = 0;
  bool resync = false;
  obs::TraceId resync_trace = obs::kNoTrace;  // span: resync ship -> apply
  const char* name() const override { return "wk.replicateDown"; }
  template <class V> void fields(V& v) {
    v(envelope, l2_epoch, resync, resync_trace);
  }
  bool operator==(const ReplicateDownMsg&) const = default;
};

// Termination of lease for tokens (paper §II-B): the owner must finish
// in-flight local txns on them and return them.
struct TokenRecallMsg : sim::Wire<TokenRecallMsg> {
  std::vector<TokenKey> keys;
  const char* name() const override { return "wk.recall"; }
  template <class V> void fields(V& v) { v(keys); }
  bool operator==(const TokenRecallMsg&) const = default;
};

// Prep failure for a forwarded request; routed back to the origin server.
struct WanRequestErrorMsg : sim::Wire<WanRequestErrorMsg> {
  NodeId origin_server = kNoNode;
  SessionId session = kNoSession;
  Xid xid = 0;
  store::Rc rc = store::Rc::kOk;
  const char* name() const override { return "wk.requestError"; }
  template <class V> void fields(V& v) { v(origin_server, session, xid, rc); }
  bool operator==(const WanRequestErrorMsg&) const = default;
};

struct WanHeartbeatReplyMsg : sim::Wire<WanHeartbeatReplyMsg> {
  SiteId from_site = kNoSite;
  NodeId from_node = kNoNode;
  std::uint32_t zab_epoch = 0;
  Zxid up_frontier = kNoZxid;
  SiteId l2_site = kNoSite;
  std::uint32_t l2_epoch = 0;
  const char* name() const override { return "wk.heartbeatReply"; }
  template <class V> void fields(V& v) {
    v(from_site, from_node, zab_epoch, up_frontier, l2_site, l2_epoch);
  }
  bool operator==(const WanHeartbeatReplyMsg&) const = default;
};

}  // namespace wankeeper::wk
