// rt::Runtime over real threads and loopback TCP: the deployable
// counterpart of the deterministic simulator. Each event loop owns a set of
// actors (a co-located server + zab peer pair shares one loop, mirroring
// the one-process-per-replica deployment), and every message — even one
// between actors of the same loop — is serialized through rt/codec.h and
// decoded on the destination loop, so no mutable state ever crosses a node
// boundary by pointer.
//
// Threads: exactly one per loop, nothing else. Each loop is an epoll
// reactor over an edge-triggered eventfd (written by another thread only
// while the loop is parked), its timers (µs deadlines via epoll_pwait2),
// and the sockets it owns.
//
// Cross-process topology: a node is either local (registered with
// add_actor) or remote (registered with add_remote, reachable through the
// listener of its site). Frames are length-prefixed:
//   [u32 len][i32 from][i32 to][codec payload],  len = 8 + payload size.
// Outbound, every (sending loop, remote node) pair gets its own TCP link,
// owned by the sending loop: a handler's sends are encoded straight into
// the link buffer and written with one non-blocking send(MSG_NOSIGNAL) per
// loop turn. A link opens with an 8-byte hello [u32 magic][i32 to]; the
// listening loop (loop 0) reads it and hands the socket to the loop that
// owns `to`, which reads the stream itself and delivers each frame inline.
// Loss semantics match the seam contract: frames sent while a link is not
// connected wait (bounded, overflow counted) and flush in order once the
// 50 ms connect retry succeeds; frames still unsent when a connection dies
// are gone (counted) — exactly the link-loss the protocols already recover
// from (Zab resync, WAN retransmit).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "rt/runtime.h"
#include "sim/actor.h"

namespace wankeeper::rt {

class ThreadRuntime final : public Runtime, public sim::ActorRegistry {
 public:
  explicit ThreadRuntime(std::uint64_t seed = 1);
  ~ThreadRuntime() override;

  ThreadRuntime(const ThreadRuntime&) = delete;
  ThreadRuntime& operator=(const ThreadRuntime&) = delete;

  // --- topology assembly; all of these before start() ---

  // A new event loop; returns its index for add_actor.
  std::size_t add_loop();
  // Register a local actor under an explicit, cluster-wide-agreed id.
  void add_actor(sim::Actor& actor, NodeId id, SiteId site, std::size_t loop);
  // Declare a node that lives in another process; sends to it are framed
  // over a TCP link to the listener of `site`.
  void add_remote(NodeId id, SiteId site);
  // Accept links for local actors on 127.0.0.1:port (served by loop 0).
  void listen(std::uint16_t port);
  // Route frames addressed to `site`'s nodes to 127.0.0.1:port.
  void connect_site(SiteId site, std::uint16_t port);

  // Launches one thread per loop. Each loop first runs its actors' start()
  // in registration order, then serves timers, deliveries and sockets.
  void start();
  // Stops every loop and joins it; idempotent, also run by ~.
  // Registered actors must outlive this call.
  void stop();

  // Run fn on the loop that owns `node` (how non-loop threads poke actor
  // state: client ops, crash/restart, metric sampling). call() waits for
  // completion and rethrows nothing — fn must not throw.
  void post(NodeId node, std::function<void()> fn);
  void call(NodeId node, std::function<void()> fn);

  std::uint64_t frames_dropped() const { return frames_dropped_.load(); }

  // Fold every event-loop thread's thread-local metrics registry into
  // `into` (obs() is per-thread on this runtime, so no single registry has
  // the whole picture). Runs a task on each loop and waits for all of
  // them; only valid between start() and stop().
  void collect_metrics(obs::MetricsRegistry& into);

  // --- rt::Runtime ---
  Time now() const override;
  TimerId schedule(NodeId home, Time delay, std::function<void()> fn) override;
  void cancel(TimerId id) override;
  // Creates a dedicated loop and auto-assigns an id (ids from 1<<20, clear
  // of any cluster plan). Pre-start only.
  NodeId spawn(sim::Actor& actor, SiteId site) override;
  // On a loop thread the frame leaves from that loop; from any other
  // thread the send is posted to `from`'s loop.
  void send(NodeId from, NodeId to, sim::MessagePtr msg) override;
  SiteId site_of(NodeId node) const override;
  obs::Context& obs() override;          // per-thread shard
  sim::FaultPoints& faults() override;   // per-thread, never armed
  Rng& rng() override;                   // per-thread, seeded off `seed`

  // --- sim::ActorRegistry ---
  void forget_actor(NodeId node) override;

 private:
  struct Delivery {
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    std::vector<std::uint8_t> bytes;
  };

  // What an epoll registration points at.
  struct Io {
    enum class Kind { kWake, kListen, kHello, kInbound, kLink };
    Kind kind;
    int fd = -1;
  };

  // Accepted socket: waiting for its hello on the listening loop (kHello),
  // then read by the destination node's loop (kInbound).
  struct Inbound : Io {
    std::vector<std::uint8_t> buf;
    std::size_t have = 0;
  };

  // Outbound link from one loop to one remote node; only that loop's
  // thread touches it. `out` holds whole frames; [0, sent) already went
  // to the socket, and `head` is the start of the first frame not yet
  // fully sent.
  struct Link : Io {
    NodeId to = kNoNode;
    std::uint16_t port = 0;
    bool connecting = false;   // non-blocking connect in progress
    bool want_out = false;     // EPOLLOUT armed
    bool dirty = false;        // queued on Loop::dirty for this turn's flush
    bool retry_armed = false;  // a failed connect waits for its retry
    std::vector<std::uint8_t> out;
    std::size_t head = 0;
    std::size_t sent = 0;
  };

  struct Loop {
    ~Loop();  // closes the reactor fds

    ThreadRuntime* owner = nullptr;
    std::thread thread;
    int epfd = -1;
    Io wake{Io::Kind::kWake};  // eventfd

    std::mutex mu;  // guards the members down to `parked`
    // (absolute deadline, seq) -> callback; deadline_of mirrors it so
    // cancel() is a lookup, not a scan.
    std::map<std::pair<Time, std::uint64_t>, std::function<void()>> timers;
    std::unordered_map<std::uint64_t, Time> deadline_of;
    std::uint64_t next_seq = 1;
    std::deque<Delivery> inbox;
    std::deque<std::function<void()>> posts;
    std::vector<int> adopted;  // accepted fds handed over after their hello
    bool parked = false;       // blocked in epoll; producers write `wake`

    // Loop-thread only.
    std::vector<sim::Actor*> actors;  // start() order
    std::unordered_map<NodeId, std::unique_ptr<Link>> links;
    std::vector<Link*> dirty;
    std::unordered_map<int, std::unique_ptr<Inbound>> inbound;  // by fd
  };

  struct LocalNode {
    sim::Actor* actor = nullptr;
    Loop* loop = nullptr;
    std::size_t loop_idx = 0;
    SiteId site = kNoSite;
  };

  void run_loop(Loop& loop);
  void run_due_timers(Loop& loop);
  void on_ready(Loop& loop, Io& io, std::uint32_t events);
  std::uint64_t add_timer(Loop& loop, Time delay, std::function<void()> fn);
  // Queue under loop.mu, then write the eventfd iff the loop was parked.
  template <class F>
  void push(Loop& loop, F&& add);
  static void ring(Loop& loop);  // one eventfd write
  void deliver(Loop& loop, NodeId from, NodeId to, const std::uint8_t* data,
               std::size_t size);

  // Listening side.
  void accept_all(Loop& loop, int listen_fd);
  void read_hello(Loop& loop, Inbound& in);
  void adopt(Loop& loop, int fd);
  void read_inbound(Loop& loop, Inbound& in);
  void close_inbound(Loop& loop, Inbound& in);

  // Sending side.
  // `to`'s link from `loop` if it is remote (made on first use); else
  // null, with *local set to its loop when it is local.
  Link* route(Loop& loop, NodeId to, Loop** local);
  void append_frame(Link& link, NodeId from, NodeId to,
                    const sim::Message& msg);
  void flush(Loop& loop, Link& link);
  void write_link(Loop& loop, Link& link);
  void connect_link(Loop& loop, Link& link);
  void retry_connect(Loop& loop, Link& link);
  void on_connected(Loop& loop, Link& link);
  void link_dead(Link& link);
  void watch(Loop& loop, Io& io, std::uint32_t events, bool add);
  void set_want_out(Loop& loop, Link& link, bool on);

  Loop* loop_of(NodeId node) const;

  static thread_local Loop* current_;

  const std::uint64_t seed_;
  const std::chrono::steady_clock::time_point start_tp_;

  std::atomic<bool> running_{false};
  bool started_ = false;

  mutable std::mutex route_mu_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::unordered_map<NodeId, LocalNode> local_;
  std::unordered_map<NodeId, SiteId> remote_site_;
  std::map<SiteId, std::uint16_t> site_ports_;
  NodeId next_auto_id_ = 1 << 20;

  std::vector<std::unique_ptr<Io>> listeners_;

  std::atomic<std::uint64_t> frames_dropped_{0};
};

}  // namespace wankeeper::rt
