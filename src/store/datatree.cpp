#include "store/datatree.h"

#include <algorithm>

#include "store/paths.h"

namespace wankeeper::store {

namespace {
// FNV-1a accumulation for the convergence digest.
std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}
std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) { return fnv(h, &v, sizeof(v)); }
}  // namespace

const char* rc_name(Rc rc) {
  switch (rc) {
    case Rc::kOk: return "ok";
    case Rc::kNoNode: return "no-node";
    case Rc::kNodeExists: return "node-exists";
    case Rc::kBadVersion: return "bad-version";
    case Rc::kNotEmpty: return "not-empty";
    case Rc::kNoChildrenForEphemerals: return "no-children-for-ephemerals";
    case Rc::kInvalidPath: return "invalid-path";
    case Rc::kSessionExpired: return "session-expired";
    case Rc::kNotReadOnly: return "not-read-only";
    case Rc::kUnavailable: return "unavailable";
    case Rc::kBadArguments: return "bad-arguments";
  }
  return "?";
}

DataTree::DataTree() {
  nodes_["/"] = Node{};  // the root always exists
}

Rc DataTree::get_data(const std::string& path, std::vector<std::uint8_t>* data,
                      Stat* stat) const {
  const auto it = nodes_.find(path);
  if (it == nodes_.end()) return Rc::kNoNode;
  if (data != nullptr) *data = it->second.data;
  if (stat != nullptr) *stat = it->second.stat;
  return Rc::kOk;
}

bool DataTree::exists(const std::string& path, Stat* stat) const {
  const auto it = nodes_.find(path);
  if (it == nodes_.end()) return false;
  if (stat != nullptr) *stat = it->second.stat;
  return true;
}

Rc DataTree::get_children(const std::string& path,
                          std::vector<std::string>* children) const {
  const auto it = nodes_.find(path);
  if (it == nodes_.end()) return Rc::kNoNode;
  if (children != nullptr) {
    children->assign(it->second.children.begin(), it->second.children.end());
  }
  return Rc::kOk;
}

std::vector<std::string> DataTree::ephemerals_of(SessionId session) const {
  const auto it = ephemerals_.find(session);
  if (it == ephemerals_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

Rc DataTree::apply(const Txn& txn, Time now) {
  if (txn.zxid != kNoZxid && txn.zxid <= last_applied_) {
    return Rc::kOk;  // already applied (sync replay)
  }
  const Rc rc = apply_one(txn, now);
  if (txn.zxid != kNoZxid) last_applied_ = txn.zxid;
  return rc;
}

Rc DataTree::apply_one(const Txn& txn, Time now) {
  switch (txn.type) {
    case TxnType::kCreate:
      return apply_create(txn, now);
    case TxnType::kDelete:
      return apply_delete(txn);
    case TxnType::kSetData:
      return apply_set_data(txn, now);
    case TxnType::kMulti: {
      // Multi is all-or-nothing; the leader only proposes multis whose ops
      // all validated, so sub-op failure here indicates divergence. We apply
      // greedily and surface the first failure for diagnostics.
      for (const auto& sub : txn.ops) {
        const Rc rc = apply_one(sub, now);
        if (rc != Rc::kOk) return rc;
      }
      return Rc::kOk;
    }
    case TxnType::kCloseSession: {
      // Remove all ephemerals owned by the session.
      const auto eph = ephemerals_of(txn.session);
      for (const auto& path : eph) {
        Txn del;
        del.type = TxnType::kDelete;
        del.path = path;
        del.version = -1;
        apply_delete(del);
      }
      ephemerals_.erase(txn.session);
      return Rc::kOk;
    }
    case TxnType::kCreateSession:
    case TxnType::kNoop:
    case TxnType::kTokenGranted:
    case TxnType::kTokenReturned:
    case TxnType::kError:
      return Rc::kOk;  // no tree effect
  }
  return Rc::kBadArguments;
}

Rc DataTree::apply_create(const Txn& txn, Time now) {
  if (!valid_path(txn.path) || txn.path == "/") return Rc::kInvalidPath;
  const std::string parent = parent_path(txn.path);
  auto pit = nodes_.find(parent);
  if (pit == nodes_.end()) return Rc::kNoNode;
  if (pit->second.stat.ephemeral_owner != kNoSession) {
    return Rc::kNoChildrenForEphemerals;
  }
  if (nodes_.count(txn.path) != 0) return Rc::kNodeExists;

  Node node;
  node.data = txn.data;
  node.stat.czxid = txn.zxid;
  node.stat.mzxid = txn.zxid;
  node.stat.ctime = now;
  node.stat.mtime = now;
  node.stat.version = 0;
  if (txn.ephemeral) {
    node.stat.ephemeral_owner = txn.session;
    ephemerals_[txn.session].insert(txn.path);
  }
  nodes_[txn.path] = std::move(node);
  pit = nodes_.find(parent);
  pit->second.children.insert(basename(txn.path));
  // Sequential counters live in the parent's cversion; the leader stamps the
  // resulting cversion into the txn so application is idempotent. Taking the
  // max keeps replicas convergent when *different* sites commit creates
  // under the same parent concurrently (allowed under WanKeeper's causal
  // mode for non-sequential children; sequential children are serialized by
  // a bulk token, so for them the max equals the stamp).
  pit->second.stat.cversion = std::max(
      pit->second.stat.cversion,
      txn.parent_cversion != 0 ? txn.parent_cversion : pit->second.stat.cversion + 1);
  pit->second.stat.num_children = static_cast<std::int32_t>(pit->second.children.size());
  return Rc::kOk;
}

Rc DataTree::apply_delete(const Txn& txn) {
  const auto it = nodes_.find(txn.path);
  if (it == nodes_.end()) return Rc::kNoNode;
  if (!it->second.children.empty()) return Rc::kNotEmpty;
  if (txn.version >= 0 && it->second.stat.version != txn.version &&
      txn.version != 0x7fffffff) {
    return Rc::kBadVersion;
  }
  if (it->second.stat.ephemeral_owner != kNoSession) {
    auto eit = ephemerals_.find(it->second.stat.ephemeral_owner);
    if (eit != ephemerals_.end()) eit->second.erase(txn.path);
  }
  const std::string parent = parent_path(txn.path);
  nodes_.erase(it);
  auto pit = nodes_.find(parent);
  if (pit != nodes_.end()) {
    pit->second.children.erase(basename(txn.path));
    pit->second.stat.cversion = std::max(
        pit->second.stat.cversion,
        txn.parent_cversion != 0 ? txn.parent_cversion : pit->second.stat.cversion + 1);
    pit->second.stat.num_children = static_cast<std::int32_t>(pit->second.children.size());
  }
  return Rc::kOk;
}

Rc DataTree::apply_set_data(const Txn& txn, Time now) {
  const auto it = nodes_.find(txn.path);
  if (it == nodes_.end()) return Rc::kNoNode;
  // Idempotent: the serialization point (token holder or L2) computed the
  // resulting version, and versions of one record are totally ordered by
  // it. Apply is last-writer-wins on that order: a cross-site resync can
  // refill an old missed write *after* newer ones (local apply order is
  // zab order, not gseq order), and skipping the stale overwrite here is
  // what lets every site converge to the same record whatever the refill
  // order. Re-applying the newest txn (zab sync replay) is a no-op too.
  if (txn.version <= it->second.stat.version) return Rc::kOk;
  it->second.data = txn.data;
  it->second.stat.version = txn.version;
  it->second.stat.mzxid = txn.zxid;
  it->second.stat.mtime = now;
  return Rc::kOk;
}

std::uint64_t DataTree::digest() const {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& [path, node] : nodes_) {
    h = fnv(h, path.data(), path.size());
    h = fnv(h, node.data.data(), node.data.size());
    h = fnv_u64(h, static_cast<std::uint64_t>(node.stat.version));
    h = fnv_u64(h, static_cast<std::uint64_t>(node.stat.ephemeral_owner));
  }
  return h;
}

std::vector<std::string> DataTree::all_paths() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [path, node] : nodes_) out.push_back(path);
  return out;
}

DataTree::Snapshot DataTree::snapshot() const {
  BufferWriter w;
  w.u32(static_cast<std::uint32_t>(nodes_.size()));
  for (const auto& [path, node] : nodes_) w(path, node.data, node.stat);
  return Snapshot{w.take(), last_applied_};
}

void DataTree::restore(const Snapshot& snap) {
  nodes_.clear();
  ephemerals_.clear();
  BufferReader r(snap.bytes);
  const auto count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string path;
    Node node;
    r(path, node.data, node.stat);
    if (node.stat.ephemeral_owner != kNoSession) {
      ephemerals_[node.stat.ephemeral_owner].insert(path);
    }
    nodes_[path] = std::move(node);
  }
  // Rebuild child sets from paths.
  for (auto& [path, node] : nodes_) {
    if (path == "/") continue;
    nodes_[parent_path(path)].children.insert(basename(path));
  }
  for (auto& [path, node] : nodes_) {
    node.stat.num_children = static_cast<std::int32_t>(node.children.size());
  }
  last_applied_ = snap.last_applied;
}

}  // namespace wankeeper::store
