// Open-loop load generation: a seeded Poisson arrival schedule, the loop
// that releases it on time, and the per-op ledger that charges latency from
// each op's intended start.
//
// Open loop on purpose: a closed-loop client sends its next op only after
// the previous one returns, so a stalled system simply receives less load
// and the stall vanishes from the latency record (coordinated omission).
// Here every op has a due time fixed before the run; a stall delays the ops
// due during it, and their latency still counts from when they were due.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "store/datatree.h"

namespace wkbench {

enum class OpKind : std::uint8_t { kRead = 0, kWrite = 1 };

struct Arrival {
  std::int64_t due_ns = 0;  // offset from the schedule's start
  std::uint32_t key = 0;    // record index within the workload's key space
  OpKind kind = OpKind::kRead;
};

struct LoadShape {
  double rate_per_s = 1000.0;   // mean Poisson arrival rate
  double write_fraction = 0.5;  // share of ops that are writes
  std::uint32_t keys = 64;      // records the ops choose from
  double zipf_theta = 0.99;     // key skew (YCSB's default)
};

// The full schedule for `duration_ns`, a pure function of (shape, seed):
// exponential inter-arrival gaps, Zipfian keys, Bernoulli read/write.
inline std::vector<Arrival> make_schedule(const LoadShape& shape,
                                          std::uint64_t seed,
                                          std::int64_t duration_ns) {
  wankeeper::Rng rng(seed);
  wankeeper::Zipfian zipf(shape.keys, shape.zipf_theta);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(shape.rate_per_s *
                                       static_cast<double>(duration_ns) / 1e9) +
              16);
  const double mean_gap_ns = 1e9 / shape.rate_per_s;
  double t = 0.0;
  for (;;) {
    // 1 - real() lies in (0, 1], so the log is finite.
    t += -mean_gap_ns * std::log(1.0 - rng.real());
    if (t >= static_cast<double>(duration_ns)) break;
    Arrival a;
    a.due_ns = static_cast<std::int64_t>(t);
    a.key = static_cast<std::uint32_t>(zipf.next(rng));
    a.kind = rng.chance(shape.write_fraction) ? OpKind::kWrite : OpKind::kRead;
    out.push_back(a);
  }
  return out;
}

// FNV-1a over the schedule's fields, in a fixed byte layout: equal hashes
// mean the generator produced byte-identical inputs.
inline std::uint64_t schedule_hash(const std::vector<Arrival>& schedule) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const Arrival& a : schedule) {
    const std::uint8_t kind = static_cast<std::uint8_t>(a.kind);
    mix(&a.due_ns, sizeof a.due_ns);
    mix(&a.key, sizeof a.key);
    mix(&kind, sizeof kind);
  }
  return h;
}

// Releases each arrival at start_ns + due_ns: clock.sleep_until(t) blocks
// until t (or returns at once if t has passed), then issue(index, due, sent)
// hands the op to the system. A late generator sends late; the ledger below
// still measures from `due`.
template <class Clock, class Issue>
void run_open_loop(const std::vector<Arrival>& schedule, std::int64_t start_ns,
                   Clock& clock, Issue&& issue) {
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const std::int64_t due = start_ns + schedule[i].due_ns;
    clock.sleep_until(due);
    issue(i, due, clock.now_ns());
  }
}

// One slot per scheduled op. begin() runs on the generator thread before the
// op is handed to the system; finish() runs on whichever thread sees the
// reply. The hand-off (a locked queue) orders the two, so a slot is never
// touched by two threads at once.
struct OpRecord {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;  // first attempt's send time
  std::int64_t done_ns = 0;  // 0 while in flight
  std::uint16_t attempts = 0;
  bool ok = false;
  std::int32_t version = -1;  // produced (write) / observed (read)

  std::int64_t latency_ns() const { return done_ns - due_ns; }
  std::int64_t lateness_ns() const { return sent_ns - due_ns; }
};

class OpLedger {
 public:
  // Retries of one op before it is counted failed.
  static constexpr std::uint16_t kMaxAttempts = 8;

  explicit OpLedger(std::size_t n) : ops_(n) {}

  void begin(std::size_t i, std::int64_t due_ns, std::int64_t sent_ns) {
    OpRecord& op = ops_[i];
    op.due_ns = due_ns;
    op.sent_ns = sent_ns;
    op.attempts = 1;
  }

  // Returns true when the reply asks for another attempt. A kUnavailable
  // reply is retried inside the same op: the op keeps its due time, so the
  // failed attempt's wait stays in its latency.
  bool finish(std::size_t i, std::int64_t now_ns, wankeeper::store::Rc rc,
              std::int32_t version) {
    OpRecord& op = ops_[i];
    if (rc == wankeeper::store::Rc::kUnavailable &&
        op.attempts < kMaxAttempts) {
      ++op.attempts;
      return true;
    }
    op.done_ns = now_ns;
    op.ok = rc == wankeeper::store::Rc::kOk;
    op.version = version;
    return false;
  }

  const OpRecord& at(std::size_t i) const { return ops_[i]; }
  std::size_t size() const { return ops_.size(); }

 private:
  std::vector<OpRecord> ops_;
};

}  // namespace wkbench
