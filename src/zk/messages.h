// Client-server and server-server wire messages for the ZooKeeper-like
// service layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/trace.h"
#include "sim/message.h"
#include "store/datatree.h"
#include "store/watch.h"

namespace wankeeper::zk {

enum class OpCode : std::uint8_t {
  kCreateSession = 1,
  kCloseSession = 2,
  kCreate = 3,
  kDelete = 4,
  kSetData = 5,
  kGetData = 6,
  kExists = 7,
  kGetChildren = 8,
  kSync = 9,
  kMulti = 10,
  kPing = 11,
};

const char* op_name(OpCode op);

inline bool is_write_op(OpCode op) {
  switch (op) {
    case OpCode::kCreate:
    case OpCode::kDelete:
    case OpCode::kSetData:
    case OpCode::kMulti:
    case OpCode::kCreateSession:
    case OpCode::kCloseSession:
    case OpCode::kSync:  // routed through the commit pipeline like a write
      return true;
    default:
      return false;
  }
}

// One operation; multi requests carry several.
struct Op {
  OpCode op = OpCode::kGetData;
  std::string path;
  std::vector<std::uint8_t> data;
  bool ephemeral = false;
  bool sequential = false;
  std::int32_t version = -1;  // delete/setData precondition (-1 = any)

  template <class V> void fields(V& v) {
    v(op, path, data, ephemeral, sequential, version);
  }
  bool operator==(const Op&) const = default;
};

struct ClientRequest : sim::Wire<ClientRequest> {
  SessionId session = kNoSession;
  Xid xid = 0;
  Op op;
  bool watch = false;          // register watch on read ops
  std::vector<Op> multi_ops;   // when op.op == kMulti
  Time session_timeout = 0;    // kCreateSession
  obs::TraceId trace = obs::kNoTrace;  // flight-recorder id, assigned at issue

  const char* name() const override { return "zk.request"; }
  template <class V> void fields(V& v) {
    v(session, xid, op, watch, multi_ops, session_timeout, trace);
  }
  bool operator==(const ClientRequest&) const = default;
};

struct ClientReply : sim::Wire<ClientReply> {
  SessionId session = kNoSession;
  Xid xid = 0;
  OpCode op = OpCode::kPing;
  store::Rc rc = store::Rc::kOk;
  std::vector<std::uint8_t> data;       // getData
  store::Stat stat;                      // getData/exists/setData
  std::vector<std::string> children;     // getChildren
  std::string created_path;              // create (resolved sequential name)
  Zxid zxid = kNoZxid;                   // commit zxid for writes

  const char* name() const override { return "zk.reply"; }
  template <class V> void fields(V& v) {
    v(session, xid, op, rc, data, stat, children, created_path, zxid);
  }
  bool operator==(const ClientReply&) const = default;
};

struct WatchNotifyMsg : sim::Wire<WatchNotifyMsg> {
  SessionId session = kNoSession;
  std::string path;
  store::WatchEvent event = store::WatchEvent::kDataChanged;
  const char* name() const override { return "zk.watch"; }
  template <class V> void fields(V& v) { v(session, path, event); }
  bool operator==(const WatchNotifyMsg&) const = default;
};

// Follower/observer server forwarding a write to the leader server.
struct ForwardRequestMsg : sim::Wire<ForwardRequestMsg> {
  NodeId origin_server = kNoNode;
  ClientRequest request;
  const char* name() const override { return "zk.forward"; }
  template <class V> void fields(V& v) { v(origin_server, request); }
  bool operator==(const ForwardRequestMsg&) const = default;
};

// Leader telling the origin server a request failed validation (the success
// path flows back through the commit stream instead).
struct RequestErrorMsg : sim::Wire<RequestErrorMsg> {
  SessionId session = kNoSession;
  Xid xid = 0;
  store::Rc rc = store::Rc::kOk;
  const char* name() const override { return "zk.requestError"; }
  template <class V> void fields(V& v) { v(session, xid, rc); }
  bool operator==(const RequestErrorMsg&) const = default;
};

// Session keepalive relayed from the session's server to the leader.
struct SessionTouchMsg : sim::Wire<SessionTouchMsg> {
  std::vector<SessionId> sessions;
  const char* name() const override { return "zk.sessionTouch"; }
  template <class V> void fields(V& v) { v(sessions); }
  bool operator==(const SessionTouchMsg&) const = default;
};

}  // namespace wankeeper::zk
