// Zab wire messages: election, discovery, synchronization, broadcast —
// the four phases of Figure 2 (minus the WanKeeper L1/L2 extension, which
// lives in wankeeper/).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/message.h"
#include "zab/log.h"

namespace wankeeper::zab {

// --- election ---

// Broadcast by LOOKING peers; carries the sender's best-known candidate.
struct VoteMsg : sim::Wire<VoteMsg> {
  std::uint64_t round = 0;   // election round (logical clock)
  NodeId candidate = kNoNode;
  Zxid candidate_zxid = kNoZxid;
  std::int32_t candidate_priority = 0;  // deployment-assigned tie-break
  const char* name() const override { return "zab.vote"; }
  template <class V> void fields(V& v) {
    v(round, candidate, candidate_zxid, candidate_priority);
  }
  bool operator==(const VoteMsg&) const = default;
};

// Reply from a settled (FOLLOWING/LEADING) peer to a LOOKING one.
struct CurrentLeaderMsg : sim::Wire<CurrentLeaderMsg> {
  NodeId leader = kNoNode;
  std::uint32_t epoch = 0;
  const char* name() const override { return "zab.currentLeader"; }
  template <class V> void fields(V& v) { v(leader, epoch); }
  bool operator==(const CurrentLeaderMsg&) const = default;
};

// --- discovery ---

struct FollowerInfoMsg : sim::Wire<FollowerInfoMsg> {
  std::uint32_t accepted_epoch = 0;
  Zxid last_zxid = kNoZxid;
  const char* name() const override { return "zab.followerInfo"; }
  template <class V> void fields(V& v) { v(accepted_epoch, last_zxid); }
  bool operator==(const FollowerInfoMsg&) const = default;
};

struct NewEpochMsg : sim::Wire<NewEpochMsg> {
  std::uint32_t epoch = 0;
  const char* name() const override { return "zab.newEpoch"; }
  template <class V> void fields(V& v) { v(epoch); }
  bool operator==(const NewEpochMsg&) const = default;
};

struct AckEpochMsg : sim::Wire<AckEpochMsg> {
  std::uint32_t current_epoch = 0;
  Zxid last_zxid = kNoZxid;
  const char* name() const override { return "zab.ackEpoch"; }
  template <class V> void fields(V& v) { v(current_epoch, last_zxid); }
  bool operator==(const AckEpochMsg&) const = default;
};

// --- synchronization ---

// TRUNC + DIFF in one message: drop everything after `truncate_to`, then
// append `entries`. `commit_up_to` tells the learner how far it may apply.
struct SyncMsg : sim::Wire<SyncMsg> {
  std::uint32_t epoch = 0;
  Zxid truncate_to = kNoZxid;
  std::vector<LogEntry> entries;
  Zxid commit_up_to = kNoZxid;
  const char* name() const override { return "zab.sync"; }
  template <class V> void fields(V& v) {
    v(epoch, truncate_to, entries, commit_up_to);
  }
  bool operator==(const SyncMsg&) const = default;
};

struct NewLeaderMsg : sim::Wire<NewLeaderMsg> {
  std::uint32_t epoch = 0;
  const char* name() const override { return "zab.newLeader"; }
  template <class V> void fields(V& v) { v(epoch); }
  bool operator==(const NewLeaderMsg&) const = default;
};

struct AckNewLeaderMsg : sim::Wire<AckNewLeaderMsg> {
  std::uint32_t epoch = 0;
  const char* name() const override { return "zab.ackNewLeader"; }
  template <class V> void fields(V& v) { v(epoch); }
  bool operator==(const AckNewLeaderMsg&) const = default;
};

struct UpToDateMsg : sim::Wire<UpToDateMsg> {
  std::uint32_t epoch = 0;
  const char* name() const override { return "zab.upToDate"; }
  template <class V> void fields(V& v) { v(epoch); }
  bool operator==(const UpToDateMsg&) const = default;
};

// Observer announcing itself to the leader (non-voting learner).
struct ObserverInfoMsg : sim::Wire<ObserverInfoMsg> {
  Zxid last_zxid = kNoZxid;
  const char* name() const override { return "zab.observerInfo"; }
  template <class V> void fields(V& v) { v(last_zxid); }
  bool operator==(const ObserverInfoMsg&) const = default;
};

// --- broadcast ---

// One quorum round may carry several contiguous entries (group commit);
// a batch of one is the unbatched protocol.
struct ProposeMsg : sim::Wire<ProposeMsg> {
  std::uint32_t epoch = 0;
  std::vector<LogEntry> entries;  // contiguous, ascending zxids
  const char* name() const override { return "zab.propose"; }
  template <class V> void fields(V& v) { v(epoch, entries); }
  bool operator==(const ProposeMsg&) const = default;
};

struct AckMsg : sim::Wire<AckMsg> {
  std::uint32_t epoch = 0;
  Zxid zxid = kNoZxid;
  const char* name() const override { return "zab.ack"; }
  template <class V> void fields(V& v) { v(epoch, zxid); }
  bool operator==(const AckMsg&) const = default;
};

struct CommitMsg : sim::Wire<CommitMsg> {
  std::uint32_t epoch = 0;
  Zxid zxid = kNoZxid;
  const char* name() const override { return "zab.commit"; }
  template <class V> void fields(V& v) { v(epoch, zxid); }
  bool operator==(const CommitMsg&) const = default;
};

// Commit + payload for observers (ZooKeeper's INFORM).
struct InformMsg : sim::Wire<InformMsg> {
  std::uint32_t epoch = 0;
  LogEntry entry;
  const char* name() const override { return "zab.inform"; }
  template <class V> void fields(V& v) { v(epoch, entry); }
  bool operator==(const InformMsg&) const = default;
};

// Leader heartbeat; piggybacks the commit frontier so stragglers catch up.
struct PingMsg : sim::Wire<PingMsg> {
  std::uint32_t epoch = 0;
  Zxid commit_up_to = kNoZxid;
  const char* name() const override { return "zab.ping"; }
  template <class V> void fields(V& v) { v(epoch, commit_up_to); }
  bool operator==(const PingMsg&) const = default;
};

struct PingReplyMsg : sim::Wire<PingReplyMsg> {
  std::uint32_t epoch = 0;
  const char* name() const override { return "zab.pingReply"; }
  template <class V> void fields(V& v) { v(epoch); }
  bool operator==(const PingReplyMsg&) const = default;
};

}  // namespace wankeeper::zab
