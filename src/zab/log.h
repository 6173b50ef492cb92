// The replicated transaction log a Zab peer persists. Entries are opaque
// payloads stamped with zxids; the log survives crashes (it models the disk
// log) while the peer's role and protocol state do not.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"

namespace wankeeper::zab {

struct LogEntry {
  Zxid zxid = kNoZxid;
  // Shared immutable bytes: copying an entry (log append, SYNC, INFORM,
  // per-follower fan-out) shares the payload instead of duplicating it.
  common::Bytes payload;

  template <class V> void fields(V& v) { v(zxid, payload); }
  bool operator==(const LogEntry&) const = default;
};

class TxnLog {
 public:
  // Appends must be in strictly increasing zxid order.
  void append(LogEntry entry);

  // Batch append: skips entries at or below the current tail (a batch may
  // overlap entries already received via sync). Returns the count appended.
  std::size_t append_new(const std::vector<LogEntry>& entries);

  Zxid last_zxid() const;
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  bool contains(Zxid zxid) const;
  const LogEntry* find(Zxid zxid) const;

  // Entries with zxid strictly greater than `after`.
  std::vector<LogEntry> entries_after(Zxid after) const;
  const std::vector<LogEntry>& entries() const { return entries_; }

  // Index of the first entry with zxid strictly greater than `after`
  // (== size() if none). With at(), allows copy-free in-order scans.
  std::size_t index_after(Zxid after) const;
  const LogEntry& at(std::size_t i) const { return entries_[i]; }

  // Drop every entry with zxid strictly greater than `keep_through`
  // (Zab TRUNC when a follower has uncommitted tail from a dead epoch).
  void truncate_after(Zxid keep_through);

  // Highest zxid z in this log such that every entry up to z is also a
  // prefix of `other` — used by the leader to pick DIFF/TRUNC points.
  Zxid last_common_zxid(const TxnLog& other) const;

 private:
  std::vector<LogEntry> entries_;  // ordered by zxid
};

}  // namespace wankeeper::zab
