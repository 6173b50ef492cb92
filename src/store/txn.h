// Idempotent transaction records: what the leader's PrepRequestProcessor
// turns client requests into, what Zab replicates as payload, and what the
// DataTree applies. One record type serves both the plain ZooKeeper layer
// and WanKeeper's extensions (token movements and remote-commit envelopes
// are logged as transactions so a recovering leader can reconstruct the
// token state from its log, as paper §II-D requires).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/types.h"

namespace wankeeper::store {

enum class TxnType : std::uint8_t {
  kNoop = 0,
  kCreate = 1,
  kDelete = 2,
  kSetData = 3,
  kMulti = 4,
  kCreateSession = 5,
  kCloseSession = 6,
  // --- WanKeeper-only records ---
  kTokenGranted = 7,   // this site received tokens for `paths`
  kTokenReturned = 8,  // this site gave tokens for `paths` back to L2
  kError = 9,          // serialized failure (keeps zxid sequence gapless)
};

const char* txn_type_name(TxnType t);

// A single idempotent state change. Fields are a superset; which are
// meaningful depends on `type` (see comments). "Idempotent" means the
// outcome is embedded: sequential creates carry the final path, setData
// carries the resulting version, so re-applying or applying on a follower
// needs no further decisions.
struct Txn {
  TxnType type = TxnType::kNoop;
  Zxid zxid = kNoZxid;  // assigned by the Zab leader at proposal time

  std::string path;                 // create/delete/setData: the final path
  std::vector<std::uint8_t> data;   // create/setData
  bool ephemeral = false;           // create
  std::int32_t version = 0;         // setData: resulting version; delete: checked version
  SessionId session = kNoSession;   // owner for ephemerals; create/close session
  Time session_timeout = 0;         // createSession
  std::int32_t parent_cversion = 0; // create/delete: resulting parent cversion

  std::vector<Txn> ops;             // multi: sub-operations
  std::vector<std::string> paths;   // token grant/return: affected records

  // WanKeeper provenance: which site committed this change first, and under
  // which zxid there. Zero/absent for purely local history. Used for
  // idempotent cross-site replication and the causal-consistency checker.
  SiteId origin_site = kNoSite;
  Zxid origin_zxid = kNoZxid;
  // Level-2 global sequence: stamped when the txn passes through the L2
  // broker; monotone per L2 epoch. Sites apply cross-site txns in gseq
  // order, which is what makes the hub fan-out causally consistent, and a
  // recovering L2 resumes the counter from the highest gseq in its log.
  std::uint64_t gseq = 0;

  std::int32_t error = 0;           // kError: rc that was recorded

  // The replicated log record's layout: append new fields at the end.
  template <class V> void fields(V& v) {
    v(type, zxid, path, data, ephemeral, version, session, session_timeout,
      parent_cversion, ops, paths, origin_site, origin_zxid, gseq, error);
  }
  bool operator==(const Txn&) const = default;

  std::vector<std::uint8_t> encode() const { return encode_value(*this); }
  static Txn decode(const std::vector<std::uint8_t>& bytes) {
    return decode_value<Txn>(BufferReader(bytes));
  }
};

}  // namespace wankeeper::store
