// The runtime seam: the narrow surface protocol actors (zab::Peer,
// zk::Server, zk::Client, wk::Broker) actually need from their execution
// substrate — a clock, timers, message send, site placement, and the
// observability/fault-injection contexts. Everything in zab/, zk/, and
// wankeeper/ is written against this interface; sim::Simulator implements
// it over virtual time (the deterministic testing substrate) and
// rt::ThreadRuntime implements it over real threads and loopback TCP (the
// deployable artifact). See DESIGN.md §2d for what each implementation
// guarantees.
//
// The seam is deliberately message-shaped, not socket-shaped: send() takes
// an immutable sim::MessagePtr and delivery is a call to
// Actor::on_message(). The DES routes the pointer through the latency
// model unchanged; the thread runtime serializes it through rt/codec.h and
// reconstructs it on the destination's event loop, so the protocol code
// cannot tell the difference (and cannot accidentally share mutable state
// across nodes — the codec round-trip enforces value semantics).
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.h"
#include "sim/message.h"

namespace wankeeper {
class Rng;
}
namespace wankeeper::obs {
struct Context;
}
namespace wankeeper::sim {
class Actor;
class FaultPoints;
class Simulator;
}  // namespace wankeeper::sim

namespace wankeeper::rt {

// Timer handle. 0 is never a valid id (the simulator's slot generations
// start at 1; the thread runtime's sequence numbers do too), so callers can
// use 0 as "no timer armed". Layout is runtime-private.
using TimerId = std::uint64_t;

class Runtime {
 public:
  virtual ~Runtime() = default;

  // Current time in microseconds: virtual time on the DES, monotonic wall
  // clock (since runtime start) on the thread runtime.
  virtual Time now() const = 0;

  // Run `fn` after `delay` on the event loop that owns `home`. Loop
  // affinity only matters to multi-threaded runtimes (the callback must
  // run where the actor's state lives); the single-threaded DES ignores
  // it. Actors should use Actor::set_timer, which adds the
  // incarnation/liveness guard and, on the DES, skips the std::function
  // type erasure entirely.
  virtual TimerId schedule(NodeId home, Time delay,
                           std::function<void()> fn) = 0;
  // Cancelling an already-fired or unknown id is a harmless no-op.
  virtual void cancel(TimerId id) = 0;

  // Register an actor and assign its NodeId; calls (or arranges to call)
  // Actor::start(). On the DES this requires an attached sim::Network.
  virtual NodeId spawn(sim::Actor& actor, SiteId site) = 0;

  // Send msg from -> to. Fire-and-forget: delivery is not guaranteed
  // (links may be cut, the destination may be down or unreachable); loss
  // and reordering semantics are per-runtime — see DESIGN.md §2d. Both
  // runtimes guarantee FIFO per ordered (from, to) pair while the
  // transport stays connected.
  virtual void send(NodeId from, NodeId to, sim::MessagePtr msg) = 0;

  // Site placement of a node, kNoSite if unknown to this runtime.
  virtual SiteId site_of(NodeId node) const = 0;

  // Flight recorder (metrics + traces + event log). The DES has exactly
  // one; the thread runtime returns the calling loop's shard.
  virtual obs::Context& obs() = 0;
  // Crash/recovery fault-injection points. Armed points are a DES-only
  // feature; the thread runtime returns the calling loop's never-armed
  // instance.
  virtual sim::FaultPoints& faults() = 0;
  // Seeded randomness. Deterministic on the DES; per-loop on the thread
  // runtime (seeded from the runtime seed, but interleaving is real).
  virtual Rng& rng() = 0;

  // Non-null iff this runtime is the deterministic simulator. Actor uses
  // it to keep the allocation-free timer fast path (and sim-only harness
  // code uses it to reach DES-specific APIs).
  virtual sim::Simulator* des() { return nullptr; }
};

}  // namespace wankeeper::rt
