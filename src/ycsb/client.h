// Closed-loop YCSB driver: issues one synchronous operation at a time
// against a zk::Client (exactly the paper's "YCSB benchmark client with the
// synchronous ZooKeeper client API"), records per-op latency, and retries
// transient unavailability.
#pragma once

#include <functional>
#include <memory>

#include "ycsb/metrics.h"
#include "ycsb/workload.h"
#include "zk/client.h"

namespace wankeeper::ycsb {

class Driver {
 public:
  Driver(zk::Client& client, WorkloadSpec spec, KeyMapper mapper,
         ClientMetrics& metrics);

  // Begin issuing (call once the deployment is ready and records exist).
  void start();
  bool done() const { return done_; }

  // Creates the driver's records through `client` (untimed load phase);
  // invokes `on_complete` when all records exist.
  static void preload(zk::Client& client, const KeyMapper& mapper,
                      std::uint64_t record_count, std::size_t payload_bytes,
                      std::function<void()> on_complete);

 private:
  void issue_next();
  // `issued_at` is the op's first issue time: a retry keeps it, so the
  // recorded latency includes the failed attempts.
  void issue(const OpStream::Op& op, Time issued_at);
  void on_result(const OpStream::Op& op, Time issued_at,
                 const zk::ClientResult& result);

  zk::Client& client_;
  WorkloadSpec spec_;
  KeyMapper mapper_;
  ClientMetrics& metrics_;
  OpStream stream_;
  std::vector<std::uint8_t> payload_;
  std::uint64_t issued_ = 0;
  bool done_ = false;
};

}  // namespace wankeeper::ycsb
