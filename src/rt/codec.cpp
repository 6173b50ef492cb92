#include "rt/codec.h"

#include <string>

#include "common/types.h"
#include "store/datatree.h"
#include "wankeeper/messages.h"
#include "zab/messages.h"
#include "zk/messages.h"
#include "zk/server.h"

// GCC 12 issues a spurious -Wfree-nonheap-object when BufferReader::blob()'s
// returned vector is moved into shared storage and its (empty) husk is
// destroyed inline; there is no non-heap free anywhere in this file.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wfree-nonheap-object"
#endif

namespace wankeeper::rt {
namespace {

using sim::Message;
using sim::MessagePtr;
using sim::msg_cast;

void put_tag(BufferWriter& w, WireType t) {
  w.u8(static_cast<std::uint8_t>(static_cast<std::uint16_t>(t) & 0xff));
  w.u8(static_cast<std::uint8_t>(static_cast<std::uint16_t>(t) >> 8));
}

WireType get_tag(BufferReader& r) {
  const std::uint16_t lo = r.u8();
  const std::uint16_t hi = r.u8();
  return static_cast<WireType>(static_cast<std::uint16_t>(lo | (hi << 8)));
}

// --- field helpers ---

void put_entry(BufferWriter& w, const zab::LogEntry& e) {
  w.u64(e.zxid);
  w.u32(static_cast<std::uint32_t>(e.payload.size()));
  w.raw(e.payload.data(), e.payload.size());
}

zab::LogEntry get_entry(BufferReader& r) {
  zab::LogEntry e;
  e.zxid = r.u64();
  std::vector<std::uint8_t> payload = r.blob();
  e.payload = common::Bytes(std::move(payload));
  return e;
}

void put_entries(BufferWriter& w, const std::vector<zab::LogEntry>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& e : v) put_entry(w, e);
}

std::vector<zab::LogEntry> get_entries(BufferReader& r) {
  std::vector<zab::LogEntry> v(r.u32());
  for (auto& e : v) e = get_entry(r);
  return v;
}

void put_op(BufferWriter& w, const zk::Op& op) {
  w.u8(static_cast<std::uint8_t>(op.op));
  w.str(op.path);
  w.blob(op.data);
  w.boolean(op.ephemeral);
  w.boolean(op.sequential);
  w.i32(op.version);
}

zk::Op get_op(BufferReader& r) {
  zk::Op op;
  op.op = static_cast<zk::OpCode>(r.u8());
  op.path = r.str();
  op.data = r.blob();
  op.ephemeral = r.boolean();
  op.sequential = r.boolean();
  op.version = r.i32();
  return op;
}

void put_request(BufferWriter& w, const zk::ClientRequest& m) {
  w.i64(m.session);
  w.i64(m.xid);
  put_op(w, m.op);
  w.boolean(m.watch);
  w.u32(static_cast<std::uint32_t>(m.multi_ops.size()));
  for (const auto& op : m.multi_ops) put_op(w, op);
  w.i64(m.session_timeout);
  w.u64(m.trace);
}

void get_request(BufferReader& r, zk::ClientRequest& m) {
  m.session = r.i64();
  m.xid = r.i64();
  m.op = get_op(r);
  m.watch = r.boolean();
  m.multi_ops.resize(r.u32());
  for (auto& op : m.multi_ops) op = get_op(r);
  m.session_timeout = r.i64();
  m.trace = r.u64();
}

void put_stat(BufferWriter& w, const store::Stat& s) {
  w.u64(s.czxid);
  w.u64(s.mzxid);
  w.i64(s.ctime);
  w.i64(s.mtime);
  w.i32(s.version);
  w.i32(s.cversion);
  w.i64(s.ephemeral_owner);
  w.i32(s.num_children);
}

store::Stat get_stat(BufferReader& r) {
  store::Stat s;
  s.czxid = r.u64();
  s.mzxid = r.u64();
  s.ctime = r.i64();
  s.mtime = r.i64();
  s.version = r.i32();
  s.cversion = r.i32();
  s.ephemeral_owner = r.i64();
  s.num_children = r.i32();
  return s;
}

// zk::Envelope already has a wire form (it IS the replicated txn record);
// nest it as a blob so its framing stays self-contained.
void put_envelope(BufferWriter& w, const zk::Envelope& e) {
  w.blob(e.encode());
}

zk::Envelope get_envelope(BufferReader& r) {
  return zk::Envelope::decode(r.blob());
}

void put_frontiers(BufferWriter& w, const std::vector<wk::GseqFrontier>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& f : v) {
    w.u32(f.epoch);
    w.u64(f.counter);
  }
}

std::vector<wk::GseqFrontier> get_frontiers(BufferReader& r) {
  std::vector<wk::GseqFrontier> v(r.u32());
  for (auto& f : v) {
    f.epoch = r.u32();
    f.counter = r.u64();
  }
  return v;
}

void put_strings(BufferWriter& w, const std::vector<std::string>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& s : v) w.str(s);
}

std::vector<std::string> get_strings(BufferReader& r) {
  std::vector<std::string> v(r.u32());
  for (auto& s : v) s = r.str();
  return v;
}

void put_sessions(BufferWriter& w, const std::vector<SessionId>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const SessionId s : v) w.i64(s);
}

std::vector<SessionId> get_sessions(BufferReader& r) {
  std::vector<SessionId> v(r.u32());
  for (auto& s : v) s = r.i64();
  return v;
}

}  // namespace

void encode_into(BufferWriter& w, const Message& m) {
  // zab/ — election, discovery, synchronization, broadcast.
  if (const auto* p = msg_cast<zab::VoteMsg>(&m)) {
    put_tag(w, WireType::kVote);
    w.u64(p->round);
    w.i32(p->candidate);
    w.u64(p->candidate_zxid);
    w.i32(p->candidate_priority);
  } else if (const auto* p = msg_cast<zab::CurrentLeaderMsg>(&m)) {
    put_tag(w, WireType::kCurrentLeader);
    w.i32(p->leader);
    w.u32(p->epoch);
  } else if (const auto* p = msg_cast<zab::FollowerInfoMsg>(&m)) {
    put_tag(w, WireType::kFollowerInfo);
    w.u32(p->accepted_epoch);
    w.u64(p->last_zxid);
  } else if (const auto* p = msg_cast<zab::NewEpochMsg>(&m)) {
    put_tag(w, WireType::kNewEpoch);
    w.u32(p->epoch);
  } else if (const auto* p = msg_cast<zab::AckEpochMsg>(&m)) {
    put_tag(w, WireType::kAckEpoch);
    w.u32(p->current_epoch);
    w.u64(p->last_zxid);
  } else if (const auto* p = msg_cast<zab::SyncMsg>(&m)) {
    put_tag(w, WireType::kSync);
    w.u32(p->epoch);
    w.u64(p->truncate_to);
    put_entries(w, p->entries);
    w.u64(p->commit_up_to);
  } else if (const auto* p = msg_cast<zab::NewLeaderMsg>(&m)) {
    put_tag(w, WireType::kNewLeader);
    w.u32(p->epoch);
  } else if (const auto* p = msg_cast<zab::AckNewLeaderMsg>(&m)) {
    put_tag(w, WireType::kAckNewLeader);
    w.u32(p->epoch);
  } else if (const auto* p = msg_cast<zab::UpToDateMsg>(&m)) {
    put_tag(w, WireType::kUpToDate);
    w.u32(p->epoch);
  } else if (const auto* p = msg_cast<zab::ObserverInfoMsg>(&m)) {
    put_tag(w, WireType::kObserverInfo);
    w.u64(p->last_zxid);
  } else if (const auto* p = msg_cast<zab::ProposeMsg>(&m)) {
    put_tag(w, WireType::kPropose);
    w.u32(p->epoch);
    put_entries(w, p->entries);
  } else if (const auto* p = msg_cast<zab::AckMsg>(&m)) {
    put_tag(w, WireType::kAck);
    w.u32(p->epoch);
    w.u64(p->zxid);
  } else if (const auto* p = msg_cast<zab::CommitMsg>(&m)) {
    put_tag(w, WireType::kCommit);
    w.u32(p->epoch);
    w.u64(p->zxid);
  } else if (const auto* p = msg_cast<zab::InformMsg>(&m)) {
    put_tag(w, WireType::kInform);
    w.u32(p->epoch);
    put_entry(w, p->entry);
  } else if (const auto* p = msg_cast<zab::PingMsg>(&m)) {
    put_tag(w, WireType::kPing);
    w.u32(p->epoch);
    w.u64(p->commit_up_to);
  } else if (const auto* p = msg_cast<zab::PingReplyMsg>(&m)) {
    put_tag(w, WireType::kPingReply);
    w.u32(p->epoch);

    // zk/ — client-server and server-server.
  } else if (const auto* p = msg_cast<zk::ClientRequest>(&m)) {
    put_tag(w, WireType::kClientRequest);
    put_request(w, *p);
  } else if (const auto* p = msg_cast<zk::ClientReply>(&m)) {
    put_tag(w, WireType::kClientReply);
    w.i64(p->session);
    w.i64(p->xid);
    w.u8(static_cast<std::uint8_t>(p->op));
    w.i32(static_cast<std::int32_t>(p->rc));
    w.blob(p->data);
    put_stat(w, p->stat);
    put_strings(w, p->children);
    w.str(p->created_path);
    w.u64(p->zxid);
  } else if (const auto* p = msg_cast<zk::WatchNotifyMsg>(&m)) {
    put_tag(w, WireType::kWatchNotify);
    w.i64(p->session);
    w.str(p->path);
    w.u8(static_cast<std::uint8_t>(p->event));
  } else if (const auto* p = msg_cast<zk::ForwardRequestMsg>(&m)) {
    put_tag(w, WireType::kForwardRequest);
    w.i32(p->origin_server);
    put_request(w, p->request);
  } else if (const auto* p = msg_cast<zk::RequestErrorMsg>(&m)) {
    put_tag(w, WireType::kRequestError);
    w.i64(p->session);
    w.i64(p->xid);
    w.i32(static_cast<std::int32_t>(p->rc));
  } else if (const auto* p = msg_cast<zk::SessionTouchMsg>(&m)) {
    put_tag(w, WireType::kSessionTouch);
    put_sessions(w, p->sessions);

    // wankeeper/ — the L1 <-> L2 WAN protocol.
  } else if (const auto* p = msg_cast<wk::WanEnvelopeMsg>(&m)) {
    put_tag(w, WireType::kWanEnvelope);
    w.i32(p->from_site);
    w.i32(p->from_node);
    w.u32(p->stream_epoch);
    w.u32(p->stream_gen);
    w.u64(p->seq);
    w.u32(static_cast<std::uint32_t>(p->inners.size()));
    for (const auto& inner : p->inners) encode_into(w, *inner);
  } else if (const auto* p = msg_cast<wk::WanAckMsg>(&m)) {
    put_tag(w, WireType::kWanAck);
    w.i32(p->from_site);
    w.i32(p->from_node);
    w.u32(p->stream_epoch);
    w.u32(p->stream_gen);
    w.u64(p->cumulative);
  } else if (const auto* p = msg_cast<wk::RegisterMsg>(&m)) {
    put_tag(w, WireType::kRegister);
    w.i32(p->from_site);
    w.i32(p->from_node);
    w.u32(p->zab_epoch);
    put_frontiers(w, p->down_frontiers);
    put_strings(w, p->owned_tokens);
    w.u64(p->trace);
  } else if (const auto* p = msg_cast<wk::WanForwardMsg>(&m)) {
    put_tag(w, WireType::kWanForward);
    put_request(w, p->request);
    w.i32(p->origin_server);
  } else if (const auto* p = msg_cast<wk::ReplicateUpMsg>(&m)) {
    put_tag(w, WireType::kReplicateUp);
    put_envelope(w, p->envelope);
  } else if (const auto* p = msg_cast<wk::ResyncPullMsg>(&m)) {
    put_tag(w, WireType::kResyncPull);
    w.i32(p->from_site);
    w.u32(p->l2_epoch);
    put_frontiers(w, p->have);
    w.u64(p->trace);
  } else if (const auto* p = msg_cast<wk::ResyncChunkMsg>(&m)) {
    put_tag(w, WireType::kResyncChunk);
    w.i32(p->from_site);
    w.boolean(p->done);
    w.u32(static_cast<std::uint32_t>(p->envelopes.size()));
    for (const auto& e : p->envelopes) put_envelope(w, e);
    put_frontiers(w, p->frontiers);
    w.u64(p->trace);
  } else if (const auto* p = msg_cast<wk::WanHeartbeatMsg>(&m)) {
    put_tag(w, WireType::kWanHeartbeat);
    w.i32(p->from_site);
    w.i32(p->from_node);
    w.u32(p->zab_epoch);
    put_sessions(w, p->live_sessions);
    put_frontiers(w, p->down_frontiers);
    w.i32(p->l2_site);
    w.u32(p->l2_epoch);
    w.u64(p->trace);
  } else if (const auto* p = msg_cast<wk::RegisterOkMsg>(&m)) {
    put_tag(w, WireType::kRegisterOk);
    w.i32(p->from_site);
    w.i32(p->from_node);
    w.u32(p->zab_epoch);
    w.u64(p->up_frontier);
    w.i32(p->l2_site);
    w.u32(p->l2_epoch);
  } else if (const auto* p = msg_cast<wk::ReplicateDownMsg>(&m)) {
    put_tag(w, WireType::kReplicateDown);
    put_envelope(w, p->envelope);
    w.u32(p->l2_epoch);
    w.boolean(p->resync);
    w.u64(p->resync_trace);
  } else if (const auto* p = msg_cast<wk::TokenRecallMsg>(&m)) {
    put_tag(w, WireType::kTokenRecall);
    put_strings(w, p->keys);
  } else if (const auto* p = msg_cast<wk::WanRequestErrorMsg>(&m)) {
    put_tag(w, WireType::kWanRequestError);
    w.i32(p->origin_server);
    w.i64(p->session);
    w.i64(p->xid);
    w.i32(static_cast<std::int32_t>(p->rc));
  } else if (const auto* p = msg_cast<wk::WanHeartbeatReplyMsg>(&m)) {
    put_tag(w, WireType::kWanHeartbeatReply);
    w.i32(p->from_site);
    w.i32(p->from_node);
    w.u32(p->zab_epoch);
    w.u64(p->up_frontier);
    w.i32(p->l2_site);
    w.u32(p->l2_epoch);
  } else {
    throw BufferError(std::string("codec: unencodable message type ") +
                      m.name());
  }
}

MessagePtr decode_from(BufferReader& r) {
  const WireType tag = get_tag(r);
  switch (tag) {
    case WireType::kVote: {
      auto m = sim::make_mutable_message<zab::VoteMsg>();
      m->round = r.u64();
      m->candidate = r.i32();
      m->candidate_zxid = r.u64();
      m->candidate_priority = r.i32();
      return m;
    }
    case WireType::kCurrentLeader: {
      auto m = sim::make_mutable_message<zab::CurrentLeaderMsg>();
      m->leader = r.i32();
      m->epoch = r.u32();
      return m;
    }
    case WireType::kFollowerInfo: {
      auto m = sim::make_mutable_message<zab::FollowerInfoMsg>();
      m->accepted_epoch = r.u32();
      m->last_zxid = r.u64();
      return m;
    }
    case WireType::kNewEpoch: {
      auto m = sim::make_mutable_message<zab::NewEpochMsg>();
      m->epoch = r.u32();
      return m;
    }
    case WireType::kAckEpoch: {
      auto m = sim::make_mutable_message<zab::AckEpochMsg>();
      m->current_epoch = r.u32();
      m->last_zxid = r.u64();
      return m;
    }
    case WireType::kSync: {
      auto m = sim::make_mutable_message<zab::SyncMsg>();
      m->epoch = r.u32();
      m->truncate_to = r.u64();
      m->entries = get_entries(r);
      m->commit_up_to = r.u64();
      return m;
    }
    case WireType::kNewLeader: {
      auto m = sim::make_mutable_message<zab::NewLeaderMsg>();
      m->epoch = r.u32();
      return m;
    }
    case WireType::kAckNewLeader: {
      auto m = sim::make_mutable_message<zab::AckNewLeaderMsg>();
      m->epoch = r.u32();
      return m;
    }
    case WireType::kUpToDate: {
      auto m = sim::make_mutable_message<zab::UpToDateMsg>();
      m->epoch = r.u32();
      return m;
    }
    case WireType::kObserverInfo: {
      auto m = sim::make_mutable_message<zab::ObserverInfoMsg>();
      m->last_zxid = r.u64();
      return m;
    }
    case WireType::kPropose: {
      auto m = sim::make_mutable_message<zab::ProposeMsg>();
      m->epoch = r.u32();
      m->entries = get_entries(r);
      return m;
    }
    case WireType::kAck: {
      auto m = sim::make_mutable_message<zab::AckMsg>();
      m->epoch = r.u32();
      m->zxid = r.u64();
      return m;
    }
    case WireType::kCommit: {
      auto m = sim::make_mutable_message<zab::CommitMsg>();
      m->epoch = r.u32();
      m->zxid = r.u64();
      return m;
    }
    case WireType::kInform: {
      auto m = sim::make_mutable_message<zab::InformMsg>();
      m->epoch = r.u32();
      m->entry = get_entry(r);
      return m;
    }
    case WireType::kPing: {
      auto m = sim::make_mutable_message<zab::PingMsg>();
      m->epoch = r.u32();
      m->commit_up_to = r.u64();
      return m;
    }
    case WireType::kPingReply: {
      auto m = sim::make_mutable_message<zab::PingReplyMsg>();
      m->epoch = r.u32();
      return m;
    }
    case WireType::kClientRequest: {
      auto m = sim::make_mutable_message<zk::ClientRequest>();
      get_request(r, *m);
      return m;
    }
    case WireType::kClientReply: {
      auto m = sim::make_mutable_message<zk::ClientReply>();
      m->session = r.i64();
      m->xid = r.i64();
      m->op = static_cast<zk::OpCode>(r.u8());
      m->rc = static_cast<store::Rc>(r.i32());
      m->data = r.blob();
      m->stat = get_stat(r);
      m->children = get_strings(r);
      m->created_path = r.str();
      m->zxid = r.u64();
      return m;
    }
    case WireType::kWatchNotify: {
      auto m = sim::make_mutable_message<zk::WatchNotifyMsg>();
      m->session = r.i64();
      m->path = r.str();
      m->event = static_cast<store::WatchEvent>(r.u8());
      return m;
    }
    case WireType::kForwardRequest: {
      auto m = sim::make_mutable_message<zk::ForwardRequestMsg>();
      m->origin_server = r.i32();
      get_request(r, m->request);
      return m;
    }
    case WireType::kRequestError: {
      auto m = sim::make_mutable_message<zk::RequestErrorMsg>();
      m->session = r.i64();
      m->xid = r.i64();
      m->rc = static_cast<store::Rc>(r.i32());
      return m;
    }
    case WireType::kSessionTouch: {
      auto m = sim::make_mutable_message<zk::SessionTouchMsg>();
      m->sessions = get_sessions(r);
      return m;
    }
    case WireType::kWanEnvelope: {
      auto m = sim::make_mutable_message<wk::WanEnvelopeMsg>();
      m->from_site = r.i32();
      m->from_node = r.i32();
      m->stream_epoch = r.u32();
      m->stream_gen = r.u32();
      m->seq = r.u64();
      m->inners.resize(r.u32());
      for (auto& inner : m->inners) inner = decode_from(r);
      return m;
    }
    case WireType::kWanAck: {
      auto m = sim::make_mutable_message<wk::WanAckMsg>();
      m->from_site = r.i32();
      m->from_node = r.i32();
      m->stream_epoch = r.u32();
      m->stream_gen = r.u32();
      m->cumulative = r.u64();
      return m;
    }
    case WireType::kRegister: {
      auto m = sim::make_mutable_message<wk::RegisterMsg>();
      m->from_site = r.i32();
      m->from_node = r.i32();
      m->zab_epoch = r.u32();
      m->down_frontiers = get_frontiers(r);
      m->owned_tokens = get_strings(r);
      m->trace = r.u64();
      return m;
    }
    case WireType::kWanForward: {
      auto m = sim::make_mutable_message<wk::WanForwardMsg>();
      get_request(r, m->request);
      m->origin_server = r.i32();
      return m;
    }
    case WireType::kReplicateUp: {
      auto m = sim::make_mutable_message<wk::ReplicateUpMsg>();
      m->envelope = get_envelope(r);
      return m;
    }
    case WireType::kResyncPull: {
      auto m = sim::make_mutable_message<wk::ResyncPullMsg>();
      m->from_site = r.i32();
      m->l2_epoch = r.u32();
      m->have = get_frontiers(r);
      m->trace = r.u64();
      return m;
    }
    case WireType::kResyncChunk: {
      auto m = sim::make_mutable_message<wk::ResyncChunkMsg>();
      m->from_site = r.i32();
      m->done = r.boolean();
      m->envelopes.resize(r.u32());
      for (auto& e : m->envelopes) e = get_envelope(r);
      m->frontiers = get_frontiers(r);
      m->trace = r.u64();
      return m;
    }
    case WireType::kWanHeartbeat: {
      auto m = sim::make_mutable_message<wk::WanHeartbeatMsg>();
      m->from_site = r.i32();
      m->from_node = r.i32();
      m->zab_epoch = r.u32();
      m->live_sessions = get_sessions(r);
      m->down_frontiers = get_frontiers(r);
      m->l2_site = r.i32();
      m->l2_epoch = r.u32();
      m->trace = r.u64();
      return m;
    }
    case WireType::kRegisterOk: {
      auto m = sim::make_mutable_message<wk::RegisterOkMsg>();
      m->from_site = r.i32();
      m->from_node = r.i32();
      m->zab_epoch = r.u32();
      m->up_frontier = r.u64();
      m->l2_site = r.i32();
      m->l2_epoch = r.u32();
      return m;
    }
    case WireType::kReplicateDown: {
      auto m = sim::make_mutable_message<wk::ReplicateDownMsg>();
      m->envelope = get_envelope(r);
      m->l2_epoch = r.u32();
      m->resync = r.boolean();
      m->resync_trace = r.u64();
      return m;
    }
    case WireType::kTokenRecall: {
      auto m = sim::make_mutable_message<wk::TokenRecallMsg>();
      m->keys = get_strings(r);
      return m;
    }
    case WireType::kWanRequestError: {
      auto m = sim::make_mutable_message<wk::WanRequestErrorMsg>();
      m->origin_server = r.i32();
      m->session = r.i64();
      m->xid = r.i64();
      m->rc = static_cast<store::Rc>(r.i32());
      return m;
    }
    case WireType::kWanHeartbeatReply: {
      auto m = sim::make_mutable_message<wk::WanHeartbeatReplyMsg>();
      m->from_site = r.i32();
      m->from_node = r.i32();
      m->zab_epoch = r.u32();
      m->up_frontier = r.u64();
      m->l2_site = r.i32();
      m->l2_epoch = r.u32();
      return m;
    }
  }
  throw BufferError("codec: unknown wire tag " +
                    std::to_string(static_cast<std::uint16_t>(tag)));
}

}  // namespace wankeeper::rt
