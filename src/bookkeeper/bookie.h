// Bookies: BookKeeper's ledger-storage servers. Deliberately simple — the
// paper's BookKeeper experiment stresses only the *coordination* path
// (ledger metadata and the writer lock live in ZooKeeper/WanKeeper); entry
// storage is local to each region and off the coordination critical path.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"
#include "sim/actor.h"
#include "sim/network.h"

namespace wankeeper::bk {

using LedgerId = std::int64_t;
using EntryId = std::int64_t;

struct AddEntryMsg : sim::Wire<AddEntryMsg> {
  LedgerId ledger = 0;
  EntryId entry = 0;
  std::vector<std::uint8_t> payload;
  const char* name() const override { return "bk.addEntry"; }
  template <class V> void fields(V& v) { v(ledger, entry, payload); }
};

struct AddEntryAckMsg : sim::Wire<AddEntryAckMsg> {
  LedgerId ledger = 0;
  EntryId entry = 0;
  const char* name() const override { return "bk.addEntryAck"; }
  template <class V> void fields(V& v) { v(ledger, entry); }
};

struct ReadEntryMsg : sim::Wire<ReadEntryMsg> {
  LedgerId ledger = 0;
  EntryId entry = 0;
  const char* name() const override { return "bk.readEntry"; }
  template <class V> void fields(V& v) { v(ledger, entry); }
};

struct ReadEntryReplyMsg : sim::Wire<ReadEntryReplyMsg> {
  LedgerId ledger = 0;
  EntryId entry = 0;
  bool found = false;
  std::vector<std::uint8_t> payload;
  const char* name() const override { return "bk.readEntryReply"; }
  template <class V> void fields(V& v) { v(ledger, entry, found, payload); }
};

class Bookie : public sim::Actor {
 public:
  Bookie(sim::Simulator& sim, std::string name, Time add_latency = 200 * kMicrosecond);

  void set_network(sim::Network& net) { net_ = &net; }

  void on_message(NodeId from, const sim::MessagePtr& msg) override;

  std::uint64_t entries_stored() const { return entries_stored_; }
  bool has_entry(LedgerId ledger, EntryId entry) const;

 protected:
  void on_crash() override;

 private:
  sim::Network* net_ = nullptr;
  Time add_latency_;  // fsync + journal model
  std::map<LedgerId, std::map<EntryId, std::vector<std::uint8_t>>> ledgers_;
  std::uint64_t entries_stored_ = 0;
};

}  // namespace wankeeper::bk
