#include "rt/thread_runtime.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <stdexcept>

#include "common/logging.h"
#include "obs/context.h"
#include "rt/codec.h"
#include "sim/faults.h"

namespace wankeeper::rt {
namespace {

// TimerId layout: (loop index + 1) in the high bits, per-loop sequence
// below. +1 keeps 0 invalid.
constexpr int kTimerLoopShift = 40;

constexpr std::size_t kMaxFrameBytes = 64u << 20;
// Past this many unsent bytes on one link the peer is effectively gone;
// drop new frames (counted) the way a dead link would.
constexpr std::size_t kMaxLinkBytes = 64u << 20;
constexpr std::size_t kHeaderBytes = 12;     // [u32 len][i32 from][i32 to]
constexpr std::size_t kReadBufBytes = 64u << 10;
// A link buffer grown past this by a burst is released once it drains.
constexpr std::size_t kKeepBufBytes = 1u << 20;
// Compact a link buffer once this many fully-sent bytes sit in front.
constexpr std::size_t kCompactBytes = 64u << 10;

constexpr std::uint32_t kHelloMagic = 0x574b4c31;  // "WKL1"
constexpr std::size_t kHelloBytes = 8;             // [u32 magic][i32 to]
constexpr Time kConnectRetry = 50 * kMillisecond;
constexpr int kMaxEvents = 64;

// Frames in buf[from, end), walking the length prefixes.
std::size_t count_frames(const std::vector<std::uint8_t>& buf,
                         std::size_t from) {
  std::size_t n = 0;
  while (from + 4 <= buf.size()) {
    from += 4 + load_le32(buf.data() + from);
    ++n;
  }
  return n;
}

// Sequential per-thread seeds: determinism of draws within a thread, not
// across interleavings (which are real on this runtime anyway).
std::atomic<std::uint64_t> thread_counter{0};

}  // namespace

thread_local ThreadRuntime::Loop* ThreadRuntime::current_ = nullptr;

ThreadRuntime::Loop::~Loop() {
  if (wake.fd >= 0) ::close(wake.fd);
  if (epfd >= 0) ::close(epfd);
}

ThreadRuntime::ThreadRuntime(std::uint64_t seed)
    : seed_(seed), start_tp_(std::chrono::steady_clock::now()) {}

ThreadRuntime::~ThreadRuntime() { stop(); }

Time ThreadRuntime::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_tp_)
      .count();
}

std::size_t ThreadRuntime::add_loop() {
  std::lock_guard<std::mutex> lk(route_mu_);
  if (started_) throw std::logic_error("add_loop after start");
  loops_.push_back(std::make_unique<Loop>());
  loops_.back()->owner = this;
  return loops_.size() - 1;
}

void ThreadRuntime::add_actor(sim::Actor& actor, NodeId id, SiteId site,
                              std::size_t loop) {
  std::lock_guard<std::mutex> lk(route_mu_);
  if (started_) throw std::logic_error("add_actor after start");
  if (loop >= loops_.size()) throw std::out_of_range("bad loop index");
  if (local_.count(id) != 0 || remote_site_.count(id) != 0) {
    throw std::logic_error("duplicate node id");
  }
  actor.id_ = id;
  actor.registry_ = this;
  local_[id] = LocalNode{&actor, loops_[loop].get(), loop, site};
  loops_[loop]->actors.push_back(&actor);
}

void ThreadRuntime::add_remote(NodeId id, SiteId site) {
  std::lock_guard<std::mutex> lk(route_mu_);
  if (local_.count(id) != 0) throw std::logic_error("node is local");
  remote_site_[id] = site;
}

void ThreadRuntime::listen(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("bind(127.0.0.1:" + std::to_string(port) +
                             ") failed");
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("listen() failed");
  }
  std::lock_guard<std::mutex> lk(route_mu_);
  if (started_) {
    ::close(fd);
    throw std::logic_error("listen after start");
  }
  listeners_.push_back(std::make_unique<Io>(Io{Io::Kind::kListen, fd}));
}

void ThreadRuntime::connect_site(SiteId site, std::uint16_t port) {
  std::lock_guard<std::mutex> lk(route_mu_);
  if (started_) throw std::logic_error("connect_site after start");
  site_ports_[site] = port;
}

NodeId ThreadRuntime::spawn(sim::Actor& actor, SiteId site) {
  const std::size_t loop = add_loop();
  NodeId id;
  {
    std::lock_guard<std::mutex> lk(route_mu_);
    id = next_auto_id_++;
  }
  add_actor(actor, id, site, loop);
  return id;
}

void ThreadRuntime::start() {
  {
    std::lock_guard<std::mutex> lk(route_mu_);
    if (started_) throw std::logic_error("start() twice");
    if (!listeners_.empty() && loops_.empty()) {
      throw std::logic_error("listen() needs a loop to serve it");
    }
    started_ = true;
  }
  for (auto& loop : loops_) {
    loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake.fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epfd < 0 || loop->wake.fd < 0) {
      throw std::runtime_error("epoll/eventfd setup failed");
    }
    // Edge-triggered and never read: every write is one fresh edge.
    watch(*loop, loop->wake, EPOLLIN | EPOLLET, true);
  }
  for (auto& l : listeners_) watch(*loops_.front(), *l, EPOLLIN, true);
  running_.store(true);
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, l = loop.get()] { run_loop(*l); });
  }
}

void ThreadRuntime::stop() {
  if (running_.exchange(false)) {
    for (auto& loop : loops_) ring(*loop);
    for (auto& loop : loops_) {
      if (loop->thread.joinable()) loop->thread.join();
    }
    // Every loop has closed its own sockets; what is left was in transit
    // between loops. The reactor fds live as long as their Loop, so a late
    // post() from a foreign thread never writes to a recycled fd.
    for (auto& loop : loops_) {
      for (const int fd : loop->adopted) ::close(fd);
      loop->adopted.clear();
    }
  }
  for (auto& l : listeners_) ::close(l->fd);
  listeners_.clear();
}

ThreadRuntime::Loop* ThreadRuntime::loop_of(NodeId node) const {
  std::lock_guard<std::mutex> lk(route_mu_);
  const auto it = local_.find(node);
  return it == local_.end() ? nullptr : it->second.loop;
}

template <class F>
void ThreadRuntime::push(Loop& loop, F&& add) {
  bool wake;
  {
    std::lock_guard<std::mutex> lk(loop.mu);
    add();
    wake = loop.parked;
    loop.parked = false;
  }
  if (wake) ring(loop);
}

void ThreadRuntime::ring(Loop& loop) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t w = ::write(loop.wake.fd, &one, sizeof(one));
}

std::uint64_t ThreadRuntime::add_timer(Loop& loop, Time delay,
                                       std::function<void()> fn) {
  const Time deadline = now() + (delay < 0 ? 0 : delay);
  std::uint64_t seq = 0;
  push(loop, [&] {
    seq = loop.next_seq++;
    loop.timers.emplace(std::make_pair(deadline, seq), std::move(fn));
    loop.deadline_of[seq] = deadline;
  });
  return seq;
}

TimerId ThreadRuntime::schedule(NodeId home, Time delay,
                                std::function<void()> fn) {
  Loop* loop = nullptr;
  std::size_t idx = 0;
  {
    std::lock_guard<std::mutex> lk(route_mu_);
    const auto it = local_.find(home);
    if (it == local_.end()) {
      throw std::logic_error("schedule: unknown home node");
    }
    loop = it->second.loop;
    idx = it->second.loop_idx;
  }
  const std::uint64_t seq = add_timer(*loop, delay, std::move(fn));
  return (static_cast<TimerId>(idx + 1) << kTimerLoopShift) | seq;
}

void ThreadRuntime::cancel(TimerId id) {
  if (id == 0) return;
  const std::size_t idx = static_cast<std::size_t>(id >> kTimerLoopShift) - 1;
  const std::uint64_t seq = id & ((1ULL << kTimerLoopShift) - 1);
  Loop* loop = nullptr;
  {
    std::lock_guard<std::mutex> lk(route_mu_);
    if (idx >= loops_.size()) return;
    loop = loops_[idx].get();
  }
  std::lock_guard<std::mutex> lk(loop->mu);
  const auto it = loop->deadline_of.find(seq);
  if (it == loop->deadline_of.end()) return;
  loop->timers.erase(std::make_pair(it->second, seq));
  loop->deadline_of.erase(it);
}

void ThreadRuntime::send(NodeId from, NodeId to, sim::MessagePtr msg) {
  Loop* cur = current_;
  if (cur == nullptr || cur->owner != this) {
    // The sending loop owns the link, so hand the send to `from`'s loop.
    Loop* home = loop_of(from);
    if (home == nullptr) {
      ++frames_dropped_;
      return;
    }
    push(*home, [&] {
      home->posts.push_back([this, from, to, m = std::move(msg)] {
        send(from, to, m);
      });
    });
    return;
  }
  Loop* dest = nullptr;
  if (Link* link = route(*cur, to, &dest)) {
    append_frame(*link, from, to, *msg);
    if (!link->dirty) {
      link->dirty = true;
      cur->dirty.push_back(link);
    }
    return;
  }
  if (dest == nullptr) {
    ++frames_dropped_;
    return;
  }
  Delivery d{from, to, encode_message(*msg)};
  push(*dest, [&] { dest->inbox.push_back(std::move(d)); });
}

SiteId ThreadRuntime::site_of(NodeId node) const {
  std::lock_guard<std::mutex> lk(route_mu_);
  const auto it = local_.find(node);
  if (it != local_.end()) return it->second.site;
  const auto rit = remote_site_.find(node);
  return rit == remote_site_.end() ? kNoSite : rit->second;
}

obs::Context& ThreadRuntime::obs() {
  thread_local obs::Context ctx;
  return ctx;
}

sim::FaultPoints& ThreadRuntime::faults() {
  thread_local sim::FaultPoints points;
  return points;
}

Rng& ThreadRuntime::rng() {
  thread_local Rng r(seed_ + 0x9e37 * (1 + thread_counter.fetch_add(1)));
  return r;
}

void ThreadRuntime::forget_actor(NodeId node) {
  std::lock_guard<std::mutex> lk(route_mu_);
  local_.erase(node);
}

void ThreadRuntime::post(NodeId node, std::function<void()> fn) {
  Loop* loop = loop_of(node);
  if (loop == nullptr) throw std::logic_error("post: unknown node");
  push(*loop, [&] { loop->posts.push_back(std::move(fn)); });
}

void ThreadRuntime::call(NodeId node, std::function<void()> fn) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  post(node, [&] {
    fn();
    std::lock_guard<std::mutex> lk(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return done; });
}

void ThreadRuntime::collect_metrics(obs::MetricsRegistry& into) {
  if (!running_.load()) return;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = loops_.size();
  for (auto& loop : loops_) {
    push(*loop, [&] {
      loop->posts.push_back([this, &into, &mu, &cv, &remaining] {
        // Runs on the loop thread: obs() resolves to ITS registry.
        std::lock_guard<std::mutex> lk2(mu);
        into.merge_from(obs().metrics);
        if (--remaining == 0) cv.notify_all();
      });
    });
  }
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return remaining == 0; });
}

void ThreadRuntime::deliver(Loop& loop, NodeId from, NodeId to,
                            const std::uint8_t* data, std::size_t size) {
  sim::Actor* actor = nullptr;
  {
    std::lock_guard<std::mutex> lk(route_mu_);
    const auto it = local_.find(to);
    if (it != local_.end() && it->second.loop == &loop) {
      actor = it->second.actor;
    }
  }
  if (actor == nullptr) {
    ++frames_dropped_;
    return;
  }
  if (!actor->up_) return;
  try {
    BufferReader r(data, size);
    sim::MessagePtr msg = decode_from(r);
    actor->on_message(from, msg);
  } catch (const BufferError& e) {
    // A malformed frame is a codec bug or a torn stream; drop it like a
    // corrupt packet rather than taking the loop down.
    ++frames_dropped_;
    WK_WARN(now(), "rt", std::string("dropping undecodable frame: ") + e.what());
  }
}

// One turn: flush what the last turn's handlers sent, park in epoll until
// a socket, a producer or the next timer needs the loop, then serve them.
void ThreadRuntime::run_loop(Loop& loop) {
  current_ = &loop;
  for (sim::Actor* actor : loop.actors) actor->start();
  epoll_event events[kMaxEvents];
  std::deque<std::function<void()>> posts;
  std::deque<Delivery> inbox;
  std::vector<int> adopted;
  while (running_.load()) {
    for (Link* link : loop.dirty) {
      link->dirty = false;
      flush(loop, *link);
    }
    loop.dirty.clear();

    timespec wait{};
    const timespec* timeout = &wait;
    {
      std::lock_guard<std::mutex> lk(loop.mu);
      if (loop.posts.empty() && loop.inbox.empty() && loop.adopted.empty()) {
        if (loop.timers.empty()) {
          timeout = nullptr;
        } else {
          const auto left = start_tp_ +
                            std::chrono::microseconds(
                                loop.timers.begin()->first.first) -
                            std::chrono::steady_clock::now();
          const auto ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(left)
                  .count();
          if (ns > 0) {
            wait.tv_sec = static_cast<time_t>(ns / 1000000000);
            wait.tv_nsec = static_cast<long>(ns % 1000000000);
          }
        }
        loop.parked = timeout == nullptr || wait.tv_sec > 0 || wait.tv_nsec > 0;
      }
    }
    const int n = ::epoll_pwait2(loop.epfd, events, kMaxEvents, timeout,
                                 nullptr);
    {
      std::lock_guard<std::mutex> lk(loop.mu);
      loop.parked = false;
      posts.swap(loop.posts);
      inbox.swap(loop.inbox);
      adopted.swap(loop.adopted);
    }
    for (int i = 0; i < n; ++i) {
      on_ready(loop, *static_cast<Io*>(events[i].data.ptr), events[i].events);
    }
    for (const int fd : adopted) adopt(loop, fd);
    adopted.clear();
    for (auto& fn : posts) fn();
    posts.clear();
    for (const Delivery& d : inbox) {
      deliver(loop, d.from, d.to, d.bytes.data(), d.bytes.size());
    }
    inbox.clear();
    run_due_timers(loop);
  }
  // Unblock any call() waiters that raced shutdown.
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(loop.mu);
      posts.swap(loop.posts);
    }
    if (posts.empty()) break;
    for (auto& fn : posts) fn();
    posts.clear();
  }
  for (auto& [to, link] : loop.links) {
    (void)to;
    if (link->fd >= 0) ::close(link->fd);
  }
  for (auto& [fd, in] : loop.inbound) {
    (void)in;
    ::close(fd);
  }
  current_ = nullptr;
}

void ThreadRuntime::run_due_timers(Loop& loop) {
  const Time t = now();
  for (;;) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lk(loop.mu);
      if (loop.timers.empty() || loop.timers.begin()->first.first > t) return;
      auto it = loop.timers.begin();
      loop.deadline_of.erase(it->first.second);
      fn = std::move(it->second);
      loop.timers.erase(it);
    }
    fn();
  }
}

void ThreadRuntime::on_ready(Loop& loop, Io& io, std::uint32_t events) {
  switch (io.kind) {
    case Io::Kind::kWake:
      return;  // the wakeup itself was the message
    case Io::Kind::kListen:
      accept_all(loop, io.fd);
      return;
    case Io::Kind::kHello:
      read_hello(loop, static_cast<Inbound&>(io));
      return;
    case Io::Kind::kInbound:
      read_inbound(loop, static_cast<Inbound&>(io));
      return;
    case Io::Kind::kLink: {
      Link& link = static_cast<Link&>(io);
      if (link.connecting) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(link.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          retry_connect(loop, link);
          return;
        }
        link.connecting = false;
        on_connected(loop, link);
        return;
      }
      // The peer never writes on a link, so readable means EOF or reset.
      if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        link_dead(link);
        return;
      }
      if ((events & EPOLLOUT) != 0) write_link(loop, link);
      return;
    }
  }
}

void ThreadRuntime::watch(Loop& loop, Io& io, std::uint32_t events, bool add) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = &io;
  ::epoll_ctl(loop.epfd, add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, io.fd, &ev);
}

// --- listening side ---

void ThreadRuntime::accept_all(Loop& loop, int listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    auto in = std::make_unique<Inbound>();
    in->kind = Io::Kind::kHello;
    in->fd = fd;
    in->buf.resize(kHelloBytes);
    watch(loop, *in, EPOLLIN, true);
    loop.inbound[fd] = std::move(in);
  }
}

void ThreadRuntime::read_hello(Loop& loop, Inbound& in) {
  // Read exactly the hello: whatever follows belongs to the owning loop.
  const ssize_t r = ::read(in.fd, in.buf.data() + in.have, kHelloBytes - in.have);
  if (r < 0 && (errno == EAGAIN || errno == EINTR)) return;
  if (r <= 0) {
    close_inbound(loop, in);
    return;
  }
  in.have += static_cast<std::size_t>(r);
  if (in.have < kHelloBytes) return;
  const int fd = in.fd;
  Loop* dest = load_le32(in.buf.data()) == kHelloMagic
                   ? loop_of(static_cast<NodeId>(load_le32(in.buf.data() + 4)))
                   : nullptr;
  ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, fd, nullptr);
  loop.inbound.erase(fd);
  if (dest == nullptr) {
    ::close(fd);
    return;
  }
  push(*dest, [&] { dest->adopted.push_back(fd); });
}

void ThreadRuntime::adopt(Loop& loop, int fd) {
  auto in = std::make_unique<Inbound>();
  in->kind = Io::Kind::kInbound;
  in->fd = fd;
  in->buf.resize(kReadBufBytes);
  watch(loop, *in, EPOLLIN, true);
  loop.inbound[fd] = std::move(in);
}

// One read() per readiness (the fd is level-triggered), then every
// complete frame in the buffer is delivered right here on the loop.
void ThreadRuntime::read_inbound(Loop& loop, Inbound& in) {
  const ssize_t r =
      ::read(in.fd, in.buf.data() + in.have, in.buf.size() - in.have);
  if (r < 0 && (errno == EAGAIN || errno == EINTR)) return;
  if (r <= 0) {
    if (in.have > 0) ++frames_dropped_;  // torn by the connection's death
    close_inbound(loop, in);
    return;
  }
  in.have += static_cast<std::size_t>(r);
  std::size_t off = 0;
  std::size_t need = 0;  // bytes of the first incomplete frame
  while (in.have - off >= kHeaderBytes) {
    const std::uint8_t* p = in.buf.data() + off;
    const std::uint32_t len = load_le32(p);
    if (len < 8 || len > kMaxFrameBytes) {  // torn stream
      ++frames_dropped_;
      close_inbound(loop, in);
      return;
    }
    if (in.have - off < 4 + static_cast<std::size_t>(len)) {
      need = 4 + static_cast<std::size_t>(len);
      break;
    }
    deliver(loop, static_cast<NodeId>(load_le32(p + 4)),
            static_cast<NodeId>(load_le32(p + 8)), p + kHeaderBytes, len - 8);
    off += 4 + static_cast<std::size_t>(len);
  }
  if (off > 0) {
    std::memmove(in.buf.data(), in.buf.data() + off, in.have - off);
    in.have -= off;
  }
  if (need > in.buf.size()) {
    in.buf.resize(need);
  } else if (in.have == 0 && in.buf.size() > kReadBufBytes) {
    in.buf.resize(kReadBufBytes);
    in.buf.shrink_to_fit();
  }
}

void ThreadRuntime::close_inbound(Loop& loop, Inbound& in) {
  const int fd = in.fd;
  ::close(fd);
  loop.inbound.erase(fd);
}

// --- sending side ---

ThreadRuntime::Link* ThreadRuntime::route(Loop& loop, NodeId to,
                                          Loop** local) {
  const auto it = loop.links.find(to);
  if (it != loop.links.end()) return it->second.get();
  std::lock_guard<std::mutex> lk(route_mu_);
  const auto lit = local_.find(to);
  if (lit != local_.end()) {
    *local = lit->second.loop;
    return nullptr;
  }
  const auto rit = remote_site_.find(to);
  if (rit == remote_site_.end()) return nullptr;
  auto link = std::make_unique<Link>();
  link->kind = Io::Kind::kLink;
  link->to = to;
  const auto pit = site_ports_.find(rit->second);
  if (pit != site_ports_.end()) link->port = pit->second;
  return loop.links.emplace(to, std::move(link)).first->second.get();
}

// Encodes straight into the link buffer behind a 12-byte header whose
// length is patched in afterwards: no payload vector, no frame copy.
void ThreadRuntime::append_frame(Link& link, NodeId from, NodeId to,
                                 const sim::Message& msg) {
  if (link.port == 0 || link.out.size() - link.head >= kMaxLinkBytes) {
    ++frames_dropped_;
    return;
  }
  const std::size_t at = link.out.size();
  BufferWriter w(std::move(link.out));
  w.u32(0);
  w.i32(from);
  w.i32(to);
  try {
    encode_into(w, msg);
  } catch (...) {
    link.out = w.take();
    link.out.resize(at);
    throw;
  }
  link.out = w.take();
  const std::size_t len = link.out.size() - at - 4;
  if (len > kMaxFrameBytes) {
    link.out.resize(at);
    ++frames_dropped_;
    return;
  }
  store_le32(link.out.data() + at, static_cast<std::uint32_t>(len));
}

void ThreadRuntime::flush(Loop& loop, Link& link) {
  if (link.sent == link.out.size()) return;
  if (link.fd < 0) {
    if (!link.retry_armed) connect_link(loop, link);
    return;
  }
  // Mid-connect or blocked on a full socket: EPOLLOUT resumes the write.
  if (link.connecting || link.want_out) return;
  write_link(loop, link);
}

// One non-blocking send of everything unsent; a partial write or EAGAIN
// keeps the rest and arms EPOLLOUT.
void ThreadRuntime::write_link(Loop& loop, Link& link) {
  const ssize_t w = ::send(link.fd, link.out.data() + link.sent,
                           link.out.size() - link.sent,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
  if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    link_dead(link);
    return;
  }
  if (w > 0) link.sent += static_cast<std::size_t>(w);
  if (link.sent == link.out.size()) {
    link.out.clear();
    link.head = link.sent = 0;
    if (link.out.capacity() > kKeepBufBytes) link.out.shrink_to_fit();
    set_want_out(loop, link, false);
    return;
  }
  while (link.head + 4 <= link.sent) {
    const std::size_t end = link.head + 4 + load_le32(link.out.data() + link.head);
    if (end > link.sent) break;
    link.head = end;
  }
  if (link.head >= kCompactBytes) {
    link.out.erase(link.out.begin(),
                   link.out.begin() + static_cast<std::ptrdiff_t>(link.head));
    link.sent -= link.head;
    link.head = 0;
  }
  set_want_out(loop, link, true);
}

void ThreadRuntime::set_want_out(Loop& loop, Link& link, bool on) {
  if (link.want_out == on) return;
  link.want_out = on;
  watch(loop, link, on ? (EPOLLIN | EPOLLOUT) : EPOLLIN, false);
}

void ThreadRuntime::connect_link(Loop& loop, Link& link) {
  link.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (link.fd < 0) {
    retry_connect(loop, link);
    return;
  }
  int one = 1;
  ::setsockopt(link.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(link.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(link.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    watch(loop, link, EPOLLIN, true);
    on_connected(loop, link);
  } else if (errno == EINPROGRESS) {
    // Completion or refusal shows up as EPOLLOUT/EPOLLERR; on_ready reads
    // SO_ERROR then.
    link.connecting = true;
    link.want_out = true;
    watch(loop, link, EPOLLIN | EPOLLOUT, true);
  } else {
    retry_connect(loop, link);
  }
}

// Peer not listening (yet, or any more): keep the frames, retry in 50 ms.
void ThreadRuntime::retry_connect(Loop& loop, Link& link) {
  if (link.fd >= 0) ::close(link.fd);
  link.fd = -1;
  link.connecting = false;
  link.want_out = false;
  link.retry_armed = true;
  add_timer(loop, kConnectRetry, [this, &loop, &link] {
    link.retry_armed = false;
    if (link.fd < 0 && !link.out.empty()) connect_link(loop, link);
  });
}

void ThreadRuntime::on_connected(Loop& loop, Link& link) {
  std::uint8_t hello[kHelloBytes];
  store_le32(hello, kHelloMagic);
  store_le32(hello + 4, static_cast<std::uint32_t>(link.to));
  // A fresh socket's send buffer always has room for 8 bytes.
  if (::send(link.fd, hello, sizeof(hello), MSG_NOSIGNAL | MSG_DONTWAIT) !=
      static_cast<ssize_t>(sizeof(hello))) {
    link_dead(link);
    return;
  }
  write_link(loop, link);
}

// The connection died: its unsent frames are lost (counted) and the next
// frame reconnects.
void ThreadRuntime::link_dead(Link& link) {
  frames_dropped_ += count_frames(link.out, link.head);
  link.out.clear();
  link.head = link.sent = 0;
  if (link.fd >= 0) ::close(link.fd);
  link.fd = -1;
  link.connecting = false;
  link.want_out = false;
}

}  // namespace wankeeper::rt
