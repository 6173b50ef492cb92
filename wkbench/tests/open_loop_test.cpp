// The open-loop generator's contract: seeded schedules are reproducible,
// a stall is charged to every op that was due during it, and a kUnavailable
// retry keeps the op's intended start.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "open_loop.h"

namespace wkbench {
namespace {

using wankeeper::store::Rc;

constexpr std::int64_t kUs = 1000;

// A clock that only moves when told to: sleep_until jumps to the deadline.
struct FakeClock {
  std::int64_t t = 0;
  std::int64_t now_ns() const { return t; }
  void sleep_until(std::int64_t d) {
    if (t < d) t = d;
  }
};

TEST(OpenLoop, SameSeedGivesByteIdenticalSchedule) {
  const LoadShape shape{5000.0, 0.5, 100, 0.99};
  const auto a = make_schedule(shape, 42, 2'000'000'000);
  const auto b = make_schedule(shape, 42, 2'000'000'000);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 9000u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ns, b[i].due_ns);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].kind, b[i].kind);
  }
  EXPECT_EQ(schedule_hash(a), schedule_hash(b));
  EXPECT_NE(schedule_hash(a),
            schedule_hash(make_schedule(shape, 43, 2'000'000'000)));
}

TEST(OpenLoop, StallIsChargedToOpsDueDuringIt) {
  // Ten ops due every 100 us; the system answers 10 us after each send, but
  // sending op 3 blocks for 500 us (a stall in the issue path).
  std::vector<Arrival> schedule;
  for (int i = 0; i < 10; ++i) {
    schedule.push_back({i * 100 * kUs, 0, OpKind::kWrite});
  }
  FakeClock clock;
  OpLedger ledger(schedule.size());
  run_open_loop(schedule, 0, clock,
                [&](std::size_t i, std::int64_t due, std::int64_t sent) {
                  ledger.begin(i, due, sent);
                  if (i == 3) clock.t += 500 * kUs;
                  ledger.finish(i, sent + 10 * kUs, Rc::kOk, 1);
                });
  const std::int64_t stall_end = 800 * kUs;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const OpRecord& op = ledger.at(i);
    const std::int64_t due = schedule[i].due_ns;
    if (due > 300 * kUs && due < stall_end) {
      // Sent only when the stall ended, and charged from when it was due.
      EXPECT_EQ(op.sent_ns, stall_end) << "op " << i;
      EXPECT_EQ(op.latency_ns(), stall_end + 10 * kUs - due) << "op " << i;
      EXPECT_GT(op.lateness_ns(), 0) << "op " << i;
    } else {
      EXPECT_EQ(op.latency_ns(), 10 * kUs) << "op " << i;
    }
  }
}

TEST(OpenLoop, UnavailableRetryKeepsIntendedStart) {
  OpLedger ledger(1);
  ledger.begin(0, 1000 * kUs, 1200 * kUs);
  EXPECT_TRUE(ledger.finish(0, 3000 * kUs, Rc::kUnavailable, -1));
  EXPECT_FALSE(ledger.finish(0, 5000 * kUs, Rc::kOk, 7));
  const OpRecord& op = ledger.at(0);
  EXPECT_EQ(op.attempts, 2);
  EXPECT_TRUE(op.ok);
  // From the original due time, not from the retry's send.
  EXPECT_EQ(op.latency_ns(), 4000 * kUs);
  EXPECT_EQ(op.sent_ns, 1200 * kUs);
}

TEST(OpenLoop, OpFailsAfterMaxAttempts) {
  OpLedger ledger(1);
  ledger.begin(0, 0, 0);
  int retries = 0;
  while (ledger.finish(0, (retries + 1) * kUs, Rc::kUnavailable, -1)) ++retries;
  EXPECT_EQ(retries, OpLedger::kMaxAttempts - 1);
  EXPECT_FALSE(ledger.at(0).ok);
  EXPECT_NE(ledger.at(0).done_ns, 0);
}

}  // namespace
}  // namespace wkbench
