// The hierarchical znode store: ZooKeeper's data model with persistent,
// ephemeral, and sequential nodes, per-node versions and stat, and
// idempotent transaction application. One DataTree instance lives in every
// server replica; replicas converge because they apply the same txn stream.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/types.h"
#include "store/txn.h"

namespace wankeeper::store {

// Operation outcome codes, mirroring ZooKeeper's KeeperException codes that
// matter for coordination recipes.
enum class Rc : std::int32_t {
  kOk = 0,
  kNoNode = 1,
  kNodeExists = 2,
  kBadVersion = 3,
  kNotEmpty = 4,
  kNoChildrenForEphemerals = 5,
  kInvalidPath = 6,
  kSessionExpired = 7,
  kNotReadOnly = 8,   // write attempted against a read-only (partitioned) server
  kUnavailable = 9,   // request could not be served (e.g., lost quorum)
  kBadArguments = 10,
};

const char* rc_name(Rc rc);

// Node metadata exposed to clients, following ZooKeeper's Stat.
struct Stat {
  Zxid czxid = kNoZxid;          // zxid that created the node
  Zxid mzxid = kNoZxid;          // zxid of the last modification
  Time ctime = 0;
  Time mtime = 0;
  std::int32_t version = 0;      // data version
  std::int32_t cversion = 0;     // child-list version (sequential counter)
  SessionId ephemeral_owner = kNoSession;
  std::int32_t num_children = 0;

  template <class V> void fields(V& v) {
    v(czxid, mzxid, ctime, mtime, version, cversion, ephemeral_owner,
      num_children);
  }
  bool operator==(const Stat&) const = default;
};

class DataTree {
 public:
  DataTree();

  // --- read-side API (served locally by every replica) ---
  Rc get_data(const std::string& path, std::vector<std::uint8_t>* data,
              Stat* stat = nullptr) const;
  bool exists(const std::string& path, Stat* stat = nullptr) const;
  Rc get_children(const std::string& path, std::vector<std::string>* children) const;
  std::size_t node_count() const { return nodes_.size(); }

  // Ephemeral nodes owned by a session (for expiry cleanup).
  std::vector<std::string> ephemerals_of(SessionId session) const;

  // --- write-side: transaction application ---
  // Applies `txn` if txn.zxid > last_applied(); returns the rc the original
  // operation produced. Duplicate/old zxids are skipped (returns kOk) so
  // replay after reconnect/sync is harmless.
  Rc apply(const Txn& txn, Time now);

  Zxid last_applied() const { return last_applied_; }
  void set_last_applied(Zxid z) { last_applied_ = z; }

  // Order-independent-of-nothing content digest: two replicas that applied
  // the same txn prefix produce identical digests. Used by convergence tests.
  std::uint64_t digest() const;

  // All paths currently in the tree (sorted). Test/debug helper.
  std::vector<std::string> all_paths() const;

  // Deep snapshot/restore for Zab SNAP synchronization.
  struct Snapshot {
    std::vector<std::uint8_t> bytes;
    Zxid last_applied = kNoZxid;
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& snap);

 private:
  struct Node {
    std::vector<std::uint8_t> data;
    Stat stat;
    std::set<std::string> children;  // child names (not full paths)
  };

  Rc apply_create(const Txn& txn, Time now);
  Rc apply_delete(const Txn& txn);
  Rc apply_set_data(const Txn& txn, Time now);
  Rc apply_one(const Txn& txn, Time now);

  std::map<std::string, Node> nodes_;  // full path -> node
  std::map<SessionId, std::set<std::string>> ephemerals_;
  Zxid last_applied_ = kNoZxid;
};

}  // namespace wankeeper::store
