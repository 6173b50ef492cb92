// Open-loop load on three thread-runtime sites, one process, loopback TCP.
//
// Each site is its own rt::ThreadRuntime + rt::HostedCluster (local_sites =
// {s}, a listening port per site), so every cross-site message crosses a
// real socket, as in a wankeeper_node deployment. Modelled service time and
// head overhead are zero and no WAN delay is injected: latency is processor
// plus loopback time only.
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "phases.h"
#include "rt/cluster.h"
#include "rt/thread_runtime.h"
#include "wankeeper/consistency.h"
#include "zk/client.h"

namespace wkbench {
namespace {

using namespace wankeeper;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSites = 3;
constexpr std::size_t kReplicas = 3;
// Set-up time is bimodal, about 0.07 s or 1.02 s, each about half the
// time: a non-hub site whose first registration reaches the hub site before
// that site has elected its leader is re-registered only on its next WAN
// heartbeat (WanOptions::heartbeat_interval, 1 s). A median of such a mix
// jumps between the modes, so setup_s is the fastest of kSetups set-ups and
// setup.slow_share reports how many paid the re-registration.
constexpr int kSetups = 7;
constexpr double kSlowSetupS = 0.5;
constexpr double kWarmupS = 2.0;
// The measured window is cut into slices of this length. On a shared VM the
// host stalls the loops for milliseconds at a time, for stretches of seconds
// to minutes, and a stall only ever adds time. So each gated latency is its
// value in the fastest slice, and CPU per op (which stalls move little) is
// the median over slices. The whole-window percentiles are printed beside
// them.
constexpr double kSliceS = 2.0;
constexpr std::int64_t kNsPerS = 1000000000;

struct SteadyClock {
  std::int64_t now_ns() const { return wkbench::now_ns(); }
  void sleep_until(std::int64_t t) const {
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(t)));
  }
};

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

// Process-wide counters read from outside the program: CPU and context
// switches (getrusage), read/write syscalls and bytes written
// (/proc/self/io; zero where the kernel does not expose it).
struct ProcSample {
  double cpu_us = 0;
  double ctx_switches = 0;
  double syscr = 0;
  double syscw = 0;
  double wchar = 0;

  static ProcSample take() {
    ProcSample s;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    s.cpu_us =
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    s.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
    std::ifstream io("/proc/self/io");
    std::string key;
    double value = 0;
    while (io >> key >> value) {
      if (key == "syscr:") s.syscr = value;
      if (key == "syscw:") s.syscw = value;
      if (key == "wchar:") s.wchar = value;
    }
    return s;
  }

  ProcSample operator-(const ProcSample& o) const {
    return {cpu_us - o.cpu_us, ctx_switches - o.ctx_switches, syscr - o.syscr,
            syscw - o.syscw, wchar - o.wchar};
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool port_free(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

// Three consecutive free listening ports below the usual ephemeral range.
std::uint16_t pick_base_port(std::uint64_t salt) {
  for (std::uint64_t k = 0; k < 4000; ++k) {
    const auto base =
        static_cast<std::uint16_t>(20000 + ((salt + k * 7919) % 4000) * 3);
    if (port_free(base) && port_free(base + 1) && port_free(base + 2)) {
      return base;
    }
  }
  return 0;
}

template <class T>
std::vector<T> sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// The three sites: one runtime and one hosted site each, one client
// session per site.
class Wan3 {
 public:
  Wan3(std::uint16_t base_port, std::uint64_t seed) {
    rt::ClusterConfig cfg;
    cfg.sites = kSites;
    cfg.nodes_per_site = kReplicas;
    cfg.clients_per_site = 1;
    cfg.base_port = base_port;
    cfg.seed = seed;
    cfg.server.service_time = 0;
    cfg.server.head_overhead = 0;
    for (std::size_t s = 0; s < kSites; ++s) {
      rts_.push_back(std::make_unique<rt::ThreadRuntime>(seed * 1000 + s + 1));
      clusters_.push_back(std::make_unique<rt::HostedCluster>(
          *rts_[s], cfg, std::vector<SiteId>{static_cast<SiteId>(s)}));
    }
  }

  Wan3(const Wan3&) = delete;
  Wan3& operator=(const Wan3&) = delete;

  ~Wan3() {
    // Stop every site before any actor is destroyed.
    for (auto& r : rts_) r->stop();
  }

  bool start(Time max_wait) {
    for (auto& c : clusters_) c->start();
    for (auto& c : clusters_) {
      if (!c->wait_ready(max_wait)) return false;
    }
    return true;
  }

  rt::ThreadRuntime& rt(std::size_t s) { return *rts_[s]; }
  rt::HostedCluster& cluster(std::size_t s) { return *clusters_[s]; }
  zk::Client& client(std::size_t s) { return clusters_[s]->client(0); }

  // The site whose leader holds the level-2 hub role (kNoSite if none).
  SiteId hub_site() {
    for (std::size_t s = 0; s < kSites; ++s) {
      wk::Broker* leader = clusters_[s]->site_leader(static_cast<SiteId>(s));
      if (leader == nullptr) continue;
      bool hub = false;
      rts_[s]->call(leader->id(), [leader, &hub] { hub = leader->l2_role(); });
      if (hub) return static_cast<SiteId>(s);
    }
    return kNoSite;
  }

  // Every site's leader replica reports the same tree digest, and each
  // site's replicas agree among themselves.
  bool digests_agree(std::uint64_t* digest) {
    std::uint64_t first = 0;
    for (std::size_t s = 0; s < kSites; ++s) {
      const std::uint64_t d = clusters_[s]->tree_digest(static_cast<SiteId>(s));
      if (d == 0 || (s > 0 && d != first)) return false;
      if (s == 0) first = d;
      if (!clusters_[s]->converged_locally()) return false;
    }
    *digest = first;
    return true;
  }

 private:
  std::vector<std::unique_ptr<rt::ThreadRuntime>> rts_;
  std::vector<std::unique_ptr<rt::HostedCluster>> clusters_;
};

std::vector<std::vector<std::string>> record_paths(const RtOptions& opt) {
  std::vector<std::vector<std::string>> paths(kSites);
  for (std::size_t s = 0; s < kSites; ++s) {
    for (std::uint32_t k = 0; k < opt.shape.keys; ++k) {
      paths[s].push_back(opt.shared ? "/shared-k" + std::to_string(k)
                                    : "/s" + std::to_string(s) + "-k" +
                                          std::to_string(k));
    }
  }
  return paths;
}

// Creates the workload's records: each site its own private records, or
// site 0 the shared ones. Returns false on any failed create or timeout.
bool preload(Wan3& wan, const RtOptions& opt,
             const std::vector<std::vector<std::string>>& paths) {
  std::atomic<long> pending{0};
  std::atomic<long> failed{0};
  for (std::size_t s = 0; s < kSites; ++s) {
    if (opt.shared && s != 0) continue;
    zk::Client* c = &wan.client(s);
    for (const std::string& path : paths[s]) {
      ++pending;
      wan.rt(s).post(c->id(), [c, path, &pending, &failed] {
        c->create(path, "0", false, false,
                  [&pending, &failed](const zk::ClientResult& r) {
                    if (!r.ok()) ++failed;
                    --pending;
                  });
      });
    }
  }
  const std::int64_t deadline = now_ns() + 30 * kNsPerS;
  while (pending.load() > 0) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return failed.load() == 0;
}

// One measurement window: the ops whose due time falls in it.
struct Window {
  std::int64_t from_ns = 0;  // offsets from the schedule start
  std::int64_t to_ns = 0;
  ProcSample proc_begin;
  ProcSample proc_end;

  bool contains(std::int64_t due_offset) const {
    return due_offset >= from_ns && due_offset < to_ns;
  }
};

struct WindowStats {
  std::vector<std::int64_t> read_ns, write_ns, all_ns, late_ns;
  std::uint64_t ops = 0, writes = 0;
  ProcSample proc;

  double cpu_us_per_op() const {
    return ops == 0 ? 0.0 : proc.cpu_us / static_cast<double>(ops);
  }
};

// Loop roles for the traced run's probes and CPU attribution.
enum Role { kSiteLeader = 0, kFollower, kHubLeader, kClient, kRoles };
const char* const kRoleName[kRoles] = {"site_leader", "follower",
                                       "hub_leader", "client"};

struct LoopRef {
  std::size_t site = 0;
  NodeId node = kNoNode;  // any actor on the loop
  bool is_client = false;
  double cpu_begin_us = 0;
  double cpu_end_us = 0;
};

class LoadRun {
 public:
  LoadRun(Wan3& wan, const RtOptions& opt,
          const std::vector<std::vector<std::string>>& paths)
      : wan_(wan), paths_(paths) {
    const auto total_ns = static_cast<std::int64_t>(
        (kWarmupS + opt.seconds) * static_cast<double>(kNsPerS));
    LoadShape per_site = opt.shape;
    per_site.rate_per_s /= static_cast<double>(kSites);
    for (std::size_t s = 0; s < kSites; ++s) {
      schedules_.push_back(
          make_schedule(per_site, opt.seed * 7919 + s + 1, total_ns));
      ledgers_.emplace_back(schedules_.back().size());
      total_ops_ += schedules_.back().size();
    }
  }

  LoadRun(const LoadRun&) = delete;
  LoadRun& operator=(const LoadRun&) = delete;
  ~LoadRun() { join_generators(); }

  std::uint64_t schedule_hash_all() const {
    std::uint64_t h = 0;
    for (const auto& s : schedules_) h = h * 31 + schedule_hash(s);
    return h;
  }
  std::size_t total_ops() const { return total_ops_; }
  std::uint64_t retries() const { return retries_.load(); }

  // Releases the schedules from start_ns on; returns once every generator
  // has sent its last op.
  void start(std::int64_t start_ns) {
    start_ns_ = start_ns;
    for (std::size_t s = 0; s < kSites; ++s) {
      generators_.emplace_back([this, s] { generate(s); });
    }
  }

  void join_generators() {
    for (auto& t : generators_) t.join();
    generators_.clear();
  }

  // Waits for every op to complete or for the deadline.
  bool wait_done(std::int64_t deadline_ns) {
    while (done_.load() < total_ops_) {
      if (now_ns() > deadline_ns) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  WindowStats stats(const Window& w) const {
    WindowStats st;
    for (std::size_t s = 0; s < kSites; ++s) {
      for (std::size_t i = 0; i < schedules_[s].size(); ++i) {
        if (!w.contains(schedules_[s][i].due_ns)) continue;
        const OpRecord& op = ledgers_[s].at(i);
        const bool write = schedules_[s][i].kind == OpKind::kWrite;
        ++st.ops;
        if (write) ++st.writes;
        if (op.done_ns == 0 || !op.ok) continue;  // counted failed by the tally
        st.late_ns.push_back(op.lateness_ns());
        st.all_ns.push_back(op.latency_ns());
        (write ? st.write_ns : st.read_ns).push_back(op.latency_ns());
      }
    }
    st.read_ns = sorted(std::move(st.read_ns));
    st.write_ns = sorted(std::move(st.write_ns));
    st.all_ns = sorted(std::move(st.all_ns));
    st.late_ns = sorted(std::move(st.late_ns));
    st.proc = w.proc_end - w.proc_begin;
    return st;
  }

  std::uint64_t failed_ops() const {
    std::uint64_t n = 0;
    for (const auto& l : ledgers_) {
      for (std::size_t i = 0; i < l.size(); ++i) {
        if (l.at(i).done_ns == 0 || !l.at(i).ok) ++n;
      }
    }
    return n;
  }

  // Every op as the consistency checker sees it, begun in send order.
  // Ops that never completed stay open.
  wk::OpHistory history() const {
    struct Ref {
      std::int64_t sent;
      std::size_t site, idx;
    };
    std::vector<Ref> refs;
    for (std::size_t s = 0; s < kSites; ++s) {
      for (std::size_t i = 0; i < ledgers_[s].size(); ++i) {
        refs.push_back({ledgers_[s].at(i).sent_ns, s, i});
      }
    }
    std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
      return a.sent < b.sent;
    });
    wk::OpHistory h;
    for (const Ref& r : refs) {
      const OpRecord& op = ledgers_[r.site].at(r.idx);
      const Arrival& a = schedules_[r.site][r.idx];
      const std::uint64_t id = h.begin(
          wan_.client(r.site).session(), 0, static_cast<SiteId>(r.site),
          a.kind == OpKind::kWrite ? wk::ClientOp::Kind::kWrite
                                   : wk::ClientOp::Kind::kRead,
          paths_[r.site][a.key], (op.sent_ns - start_ns_) / 1000);
      if (op.done_ns != 0) {
        h.finish(id, (op.done_ns - start_ns_) / 1000, op.ok, op.version);
      }
    }
    return h;
  }

  // Generator CPU spent while releasing ops due at or after from_ns.
  double generator_cpu_us() const { return generator_cpu_us_.load(); }
  void set_generator_cpu_from(std::int64_t from_ns) {
    gen_cpu_from_ns_ = from_ns;
  }

 private:
  void generate(std::size_t s) {
    SteadyClock clock;
    zk::Client* c = &wan_.client(s);
    rt::ThreadRuntime& rt = wan_.rt(s);
    double cpu_from = -1;
    const auto& schedule = schedules_[s];
    run_open_loop(schedule, start_ns_, clock,
                  [&](std::size_t i, std::int64_t due, std::int64_t sent) {
                    if (cpu_from < 0 &&
                        schedule[i].due_ns >= gen_cpu_from_ns_) {
                      cpu_from = thread_cpu_us();
                    }
                    ledgers_[s].begin(i, due, sent);
                    rt.post(c->id(), [this, s, i] { send_op(s, i); });
                  });
    if (cpu_from >= 0) generator_cpu_us_.fetch_add(thread_cpu_us() - cpu_from);
  }

  // Runs on the site's client loop, for the first attempt and each retry.
  void send_op(std::size_t s, std::size_t i) {
    zk::Client& c = wan_.client(s);
    const Arrival& a = schedules_[s][i];
    auto done = [this, s, i](const zk::ClientResult& r) {
      if (ledgers_[s].finish(i, now_ns(), r.rc, r.stat.version)) {
        ++retries_;
        send_op(s, i);
        return;
      }
      ++done_;
    };
    if (a.kind == OpKind::kWrite) {
      c.set_data(paths_[s][a.key], "v" + std::to_string(i), -1,
                 std::move(done));
    } else {
      c.get_data(paths_[s][a.key], false, std::move(done));
    }
  }

  Wan3& wan_;
  const std::vector<std::vector<std::string>>& paths_;
  std::vector<std::vector<Arrival>> schedules_;
  std::vector<OpLedger> ledgers_;
  std::size_t total_ops_ = 0;
  std::int64_t start_ns_ = 0;
  std::int64_t gen_cpu_from_ns_ = 0;
  std::atomic<std::size_t> done_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<double> generator_cpu_us_{0};
  std::vector<std::thread> generators_;
};

// Round trips through ThreadRuntime::call() into one loop per role, every
// millisecond while switched on.
class LoopProbe {
 public:
  struct Target {
    rt::ThreadRuntime* rt = nullptr;
    NodeId node = kNoNode;
  };

  explicit LoopProbe(std::vector<Target> targets)
      : targets_(std::move(targets)), samples_(targets_.size()) {
    thread_ = std::thread([this] { run(); });
  }

  LoopProbe(const LoopProbe&) = delete;
  LoopProbe& operator=(const LoopProbe&) = delete;

  ~LoopProbe() { stop(); }

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  void set_on(bool on) { on_.store(on); }

  const std::vector<std::int64_t>& samples(std::size_t i) const {
    return samples_[i];
  }
  double cpu_us() const { return cpu_us_; }

 private:
  void run() {
    const double cpu0 = thread_cpu_us();
    while (!stop_.load()) {
      for (std::size_t i = 0; on_.load() && i < targets_.size(); ++i) {
        const std::int64_t t0 = now_ns();
        targets_[i].rt->call(targets_[i].node, [] {});
        samples_[i].push_back(now_ns() - t0);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cpu_us_ = thread_cpu_us() - cpu0;
  }

  std::vector<Target> targets_;
  std::vector<std::vector<std::int64_t>> samples_;
  double cpu_us_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> on_{false};
  std::thread thread_;  // last: started after the members it uses
};

// Counter totals summed over all three sites' loops.
struct Counters {
  obs::MetricsRegistry merged;
  double collect_ms = 0;  // mean cost of one collect_metrics call

  static Counters take(Wan3& wan) {
    Counters c;
    const std::int64_t t0 = now_ns();
    for (std::size_t s = 0; s < kSites; ++s) {
      wan.rt(s).collect_metrics(c.merged);
    }
    c.collect_ms = static_cast<double>(now_ns() - t0) / 1e6 /
                   static_cast<double>(kSites);
    return c;
  }
  double total(const char* name) const {
    return static_cast<double>(merged.counter_total(name));
  }
};

// Samples every histogram of `name` across sites.
std::vector<Time> histogram_samples(obs::MetricsRegistry& reg,
                                    const std::string& name) {
  std::vector<Time> out;
  for (SiteId s = kNoSite; s < static_cast<SiteId>(kSites); ++s) {
    const auto& v = reg.histogram(name, s).recorder().samples();
    out.insert(out.end(), v.begin(), v.end());
  }
  return sorted(std::move(out));
}

std::vector<LoopRef> loop_refs(Wan3& wan) {
  std::vector<LoopRef> loops;
  for (std::size_t s = 0; s < kSites; ++s) {
    for (std::size_t i = 0; i < kReplicas; ++i) {
      loops.push_back({s, wan.cluster(s).broker(static_cast<SiteId>(s), i).id(),
                       false});
    }
    loops.push_back({s, wan.client(s).id(), true});
  }
  return loops;
}

void sample_loop_cpu(Wan3& wan, std::vector<LoopRef>& loops, bool begin) {
  for (LoopRef& l : loops) {
    double v = 0;
    wan.rt(l.site).call(l.node, [&v] { v = thread_cpu_us(); });
    (begin ? l.cpu_begin_us : l.cpu_end_us) = v;
  }
}

double pct_us(const std::vector<std::int64_t>& sorted_ns, double q) {
  return percentile(sorted_ns, q).value / 1e3;
}

// The gated latency and CPU metrics, from their per-slice values.
void report_sliced(Report& rep, const std::vector<WindowStats>& slices) {
  struct Gated {
    const char* name;
    double (*of)(const WindowStats&);
    bool fastest;  // else the median over slices
  };
  const Gated gated[] = {
      {"read_p50_us",
       [](const WindowStats& w) { return pct_us(w.read_ns, 0.50); }, true},
      {"read_p90_us",
       [](const WindowStats& w) { return pct_us(w.read_ns, 0.90); }, true},
      {"write_p50_us",
       [](const WindowStats& w) { return pct_us(w.write_ns, 0.50); }, true},
      {"write_p90_us",
       [](const WindowStats& w) { return pct_us(w.write_ns, 0.90); }, true},
      {"cpu_us_per_op", [](const WindowStats& w) { return w.cpu_us_per_op(); },
       false}};
  std::size_t min_reads = SIZE_MAX, min_writes = SIZE_MAX;
  for (const WindowStats& w : slices) {
    min_reads = std::min(min_reads, w.read_ns.size());
    min_writes = std::min(min_writes, w.write_ns.size());
  }
  for (const Gated& g : gated) {
    std::vector<double> v;
    std::string note = std::string(g.fastest ? "(fastest" : "(median") +
                       " of " + std::to_string(slices.size()) + " slices of " +
                       std::to_string(kSliceS).substr(0, 3) + " s; >= " +
                       std::to_string(min_reads) + " reads, " +
                       std::to_string(min_writes) + " writes each:";
    for (const WindowStats& w : slices) {
      v.push_back(g.of(w));
      note += " " + std::to_string(static_cast<long>(v.back()));
    }
    const double value =
        g.fastest ? *std::min_element(v.begin(), v.end()) : median(v);
    rep.metric(g.name, value, "us", note + ")");
  }
}


}  // namespace

void run_rt_phase(const RtOptions& opt, Report& rep, Tally& tally) {
  Report::section("rt: three sites on loopback TCP, open loop");
  std::printf("  no WAN delay is injected: latency is processor + loopback "
              "time; modelled service_time/head_overhead = 0\n");
  std::printf("  offered %.0f ops/s (Poisson), %.0f%% writes, %u %s records, "
              "zipf %.2f; warmup %.1f s, measured %.1f s\n",
              opt.shape.rate_per_s, opt.shape.write_fraction * 100,
              opt.shape.keys, opt.shared ? "shared" : "site-private",
              opt.shape.zipf_theta, kWarmupS, opt.seconds);
  const auto paths = record_paths(opt);

  // setup_s: build + start + ready + preload, several times; the last
  // cluster carries the load.
  std::vector<double> setups;
  std::unique_ptr<Wan3> wan;
  for (int k = 0; k < kSetups; ++k) {
    wan.reset();
    const std::uint16_t port =
        pick_base_port(opt.seed * 131 + static_cast<std::uint64_t>(getpid()) +
                       static_cast<std::uint64_t>(k) * 17);
    if (port == 0) {
      tally.fail("no free loopback ports");
      return;
    }
    const std::int64_t t0 = now_ns();
    wan = std::make_unique<Wan3>(port, opt.seed);
    if (!wan->start(30 * kSecond) || !preload(*wan, opt, paths)) {
      tally.fail("cluster not ready or preload failed");
      return;
    }
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::string setup_note = "(fastest of";
  double slow = 0;
  for (const double s : setups) {
    setup_note += " " + std::to_string(s).substr(0, 5);
    if (s > kSlowSetupS) ++slow;
  }
  rep.metric("setup_s", *std::min_element(setups.begin(), setups.end()), "s",
             setup_note + ")");
  rep.ratio("setup.slow_share", slow, "set-ups over 0.5 s",
            static_cast<double>(setups.size()), "set-ups");

  LoadRun run(*wan, opt, paths);
  const auto warm_ns = static_cast<std::int64_t>(kWarmupS * kNsPerS);
  const auto run_ns = static_cast<std::int64_t>(opt.seconds * kNsPerS);
  // The measured window, cut into slices. In a traced run the loop probes
  // run in every other slice only, so traced and untraced slices interleave
  // in time and their difference is the tracing overhead.
  Window measured{warm_ns, warm_ns + run_ns, {}, {}};
  std::vector<Window> slices;
  const auto n_slices =
      std::max<std::int64_t>(2, static_cast<std::int64_t>(opt.seconds /
                                                           kSliceS));
  for (std::int64_t k = 0; k < n_slices; ++k) {
    slices.push_back({warm_ns + run_ns * k / n_slices,
                      warm_ns + run_ns * (k + 1) / n_slices, {}, {}});
  }
  auto traced_slice = [&](std::size_t k) { return opt.trace && k % 2 == 1; };
  run.set_generator_cpu_from(measured.from_ns);

  const std::int64_t start = now_ns() + 20 * 1000000;
  run.start(start);
  SteadyClock clock;
  std::vector<LoopRef> loops;
  std::unique_ptr<LoopProbe> probe;
  Counters counters_begin;
  SiteId hub = kNoSite;
  std::vector<Role> probe_roles;
  if (opt.trace) {
    // Before the window: roles, loop CPU and counter baselines, probes.
    clock.sleep_until(start + warm_ns - kNsPerS / 2);
    hub = wan->hub_site();
    loops = loop_refs(*wan);
    const std::size_t other = hub == kNoSite ? 1 : (hub + 1) % kSites;
    wk::Broker* other_leader =
        wan->cluster(other).site_leader(static_cast<SiteId>(other));
    std::vector<LoopProbe::Target> targets;
    if (hub != kNoSite && other_leader != nullptr) {
      wk::Broker* hub_leader = wan->cluster(hub).site_leader(hub);
      NodeId follower = kNoNode;
      for (std::size_t i = 0; i < kReplicas; ++i) {
        const NodeId id =
            wan->cluster(other).broker(static_cast<SiteId>(other), i).id();
        if (id != other_leader->id()) follower = id;
      }
      targets = {{&wan->rt(other), other_leader->id()},
                 {&wan->rt(other), follower},
                 {&wan->rt(hub), hub_leader->id()},
                 {&wan->rt(other), wan->client(other).id()}};
      probe_roles = {kSiteLeader, kFollower, kHubLeader, kClient};
    }
    probe = std::make_unique<LoopProbe>(std::move(targets));
    clock.sleep_until(start + warm_ns);
    sample_loop_cpu(*wan, loops, true);
    counters_begin = Counters::take(*wan);
  }
  clock.sleep_until(start + warm_ns);
  measured.proc_begin = ProcSample::take();
  for (std::size_t k = 0; k < slices.size(); ++k) {
    if (k == 0) {
      slices[k].proc_begin = measured.proc_begin;
    } else {
      clock.sleep_until(start + slices[k].from_ns);
      slices[k].proc_begin = slices[k - 1].proc_end = ProcSample::take();
    }
    if (probe) probe->set_on(traced_slice(k));
  }
  clock.sleep_until(start + slices.back().to_ns);
  slices.back().proc_end = ProcSample::take();
  if (probe) probe->set_on(false);

  run.join_generators();
  const bool all_done = run.wait_done(now_ns() + 30 * kNsPerS);
  measured.proc_end = ProcSample::take();
  if (probe) probe->stop();
  if (opt.trace) sample_loop_cpu(*wan, loops, false);
  const double rss_mb = peak_rss_mb();
  Counters counters_end = Counters::take(*wan);

  tally.attempted += run.total_ops();
  const std::uint64_t failed = run.failed_ops();
  tally.failed += failed;
  if (!all_done) tally.fail("ops still in flight 30 s after the last was due");
  if (failed != 0) tally.fail(std::to_string(failed) + " rt op(s) failed");

  // Correctness: every site converges to one tree, and the recorded client
  // history obeys the consistency contract.
  std::uint64_t digest = 0;
  bool agree = false;
  const std::int64_t settle_deadline = now_ns() + 30 * kNsPerS;
  while (now_ns() < settle_deadline) {
    if (wan->digests_agree(&digest)) {
      agree = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!agree) tally.fail("site tree digests did not agree after the run");
  const wk::OpHistory history = run.history();
  const auto violations = wk::ConsistencyChecker::check(history);
  if (!violations.empty()) {
    tally.fail(std::to_string(violations.size()) +
               " consistency violation(s), first: " + violations[0].format());
  }
  std::printf("  correctness: %zu ops, %llu failed, %llu kUnavailable "
              "retries, digests %s (%016llx), %zu consistency violation(s)\n",
              run.total_ops(), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(run.retries()),
              agree ? "agree" : "DIFFER",
              static_cast<unsigned long long>(digest), violations.size());
  // Steadiness self-check: these repeat exactly for a given seed unless
  // the input or the protocol's decisions are nondeterministic.
  std::printf("  steady: schedule_hash=%016llx token.local_commits=%.0f\n",
              static_cast<unsigned long long>(run.schedule_hash_all()),
              counters_end.total("token.local_commits"));
  std::uint64_t dropped = 0;
  for (std::size_t s = 0; s < kSites; ++s) {
    dropped += wan->rt(s).frames_dropped();
  }
  std::printf("  transport: %llu frame(s) dropped by the runtime, %.0f WAN "
              "stream reset(s), %.0f recalls, %.0f parked\n",
              static_cast<unsigned long long>(dropped),
              counters_end.total("wan.stream_resets"),
              counters_end.total("token.recalls"),
              counters_end.total("broker.parked"));

  const WindowStats st = run.stats(measured);
  std::vector<WindowStats> per_slice;
  for (const Window& w : slices) per_slice.push_back(run.stats(w));
  if (!opt.trace) report_sliced(rep, per_slice);
  rep.pct("whole_window.read_p50_us", percentile(st.read_ns, 0.50), 1e-3,
          "us");
  rep.pct("whole_window.write_p50_us", percentile(st.write_ns, 0.50), 1e-3,
          "us");
  rep.metric("peak_rss_mb", rss_mb, "MB", "(after the rt phase)");
  rep.pct("gen.late_p99_us", percentile(st.late_ns, 0.99), 1e-3, "us");
  const double late_max_us =
      st.late_ns.empty() ? 0.0 : static_cast<double>(st.late_ns.back()) / 1e3;
  rep.metric("gen.late_max_us", late_max_us, "us",
             "(n=" + std::to_string(st.late_ns.size()) + ")");
  rep.pct("tail.read_p90_us", percentile(st.read_ns, 0.90), 1e-3, "us");
  rep.pct("tail.write_p90_us", percentile(st.write_ns, 0.90), 1e-3, "us");
  rep.pct("tail.read_p99_us", percentile(st.read_ns, 0.99), 1e-3, "us");
  rep.pct("tail.write_p99_us", percentile(st.write_ns, 0.99), 1e-3, "us");
  rep.pct("tail.p999_us", percentile(st.all_ns, 0.999), 1e-3, "us");
  if (!opt.trace) return;

  // ---- per-layer metrics over the whole measured window ----
  const double ops = static_cast<double>(st.ops);
  const double writes = static_cast<double>(st.writes);
  Report::section("obs: traced vs untraced slices of the same run");
  std::vector<WindowStats> on, off;
  for (std::size_t k = 0; k < per_slice.size(); ++k) {
    (traced_slice(k) ? on : off).push_back(per_slice[k]);
  }
  auto slice_median = [](const std::vector<WindowStats>& v, auto&& of) {
    std::vector<double> x;
    for (const WindowStats& w : v) x.push_back(of(w));
    return median(x);
  };
  auto write_p50 = [](const WindowStats& w) {
    return percentile(w.write_ns, 0.5).value;
  };
  auto cpu_per_op = [](const WindowStats& w) { return w.cpu_us_per_op(); };
  auto overhead = [](double with, double without) {
    return without > 0 ? (with - without) / without * 100.0 : 0.0;
  };
  const std::string slices_note = "(median of " + std::to_string(on.size()) +
                                  " traced vs " + std::to_string(off.size()) +
                                  " untraced slices)";
  rep.metric(
      "obs.trace_overhead_pct.write_p50",
      overhead(slice_median(on, write_p50), slice_median(off, write_p50)), "%",
      slices_note);
  rep.metric(
      "obs.trace_overhead_pct.cpu_per_op",
      overhead(slice_median(on, cpu_per_op), slice_median(off, cpu_per_op)),
      "%", slices_note);
  rep.metric("obs.collect_ms",
             (counters_begin.collect_ms + counters_end.collect_ms) / 2, "ms",
             "(ThreadRuntime::collect_metrics, one site, mean of 2)");

  Report::section("rt");
  for (std::size_t i = 0; i < probe_roles.size(); ++i) {
    const auto samples = sorted(probe->samples(i));
    const std::string base = std::string("rt.loop_wait_us.") +
                             kRoleName[probe_roles[i]];
    rep.pct(base + ".p50", percentile(samples, 0.50), 1e-3, "us");
    rep.pct(base + ".p99", percentile(samples, 0.99), 1e-3, "us");
  }
  const std::string ops_base = "ops in the window";
  rep.ratio("rt.ctx_switches_per_op", st.proc.ctx_switches, "context switches",
            ops, ops_base, "count");
  rep.ratio("rt.read_syscalls_per_op", st.proc.syscr, "read syscalls", ops,
            ops_base, "count");
  rep.ratio("rt.write_syscalls_per_op", st.proc.syscw, "write syscalls", ops,
            ops_base, "count");
  rep.ratio("rt.wire_bytes_per_op", st.proc.wchar, "bytes written", ops,
            ops_base, "bytes");

  Report::section("cpu attribution (CLOCK_THREAD_CPUTIME_ID per loop)");
  double role_cpu[kRoles] = {0, 0, 0, 0};
  for (const LoopRef& l : loops) {
    Role role = kClient;
    if (!l.is_client) {
      wk::Broker* leader =
          wan->cluster(l.site).site_leader(static_cast<SiteId>(l.site));
      const bool leads = leader != nullptr && leader->id() == l.node;
      role = !leads ? kFollower
                    : (static_cast<SiteId>(l.site) == hub ? kHubLeader
                                                          : kSiteLeader);
    }
    role_cpu[role] += l.cpu_end_us - l.cpu_begin_us;
  }
  double loop_cpu = 0;
  for (int r = 0; r < kRoles; ++r) {
    loop_cpu += role_cpu[r];
    rep.ratio(std::string("cpu.") + kRoleName[r] + "_us_per_op", role_cpu[r],
              std::string("us on ") + kRoleName[r] + " loops", ops, ops_base,
              "us");
  }
  const double bench_cpu = run.generator_cpu_us() + probe->cpu_us();
  const double io_cpu = st.proc.cpu_us - loop_cpu - bench_cpu;
  rep.ratio("cpu.io_us_per_op", io_cpu,
            "us off the loops (process - loops - generator/probe threads)", ops,
            ops_base, "us");
  rep.ratio("cpu.attributed_share", loop_cpu, "us on event loops",
            st.proc.cpu_us, "us process CPU");

  Report::section("zab");
  auto diff = [&](const char* name) {
    return counters_end.total(name) - counters_begin.total(name);
  };
  rep.ratio("zab.proposals_per_write", diff("zab.proposals"), "proposals",
            writes, "writes in the window");
  const auto batches = histogram_samples(counters_end.merged, "zab.batch_size");
  double batch_sum = 0;
  for (const Time b : batches) batch_sum += static_cast<double>(b);
  rep.ratio("zab.batch_size_mean", batch_sum, "entries",
            static_cast<double>(batches.size()), "PROPOSE batches (whole run)",
            "count");
  const auto commit =
      histogram_samples(counters_end.merged, "zab.commit_latency_us");
  rep.pct("zab.commit_latency_us.p50", percentile(commit, 0.50), 1.0, "us");
  rep.pct("zab.commit_latency_us.p99", percentile(commit, 0.99), 1.0, "us");

  Report::section("wankeeper");
  rep.ratio("wk.local_commit_ratio", diff("token.local_commits"),
            "local commits", writes, "writes attempted");
  const std::pair<const char*, const char*> per_write[] = {
      {"wk.forwards_per_write", "broker.wan_forwards"},
      {"wk.grants_per_write", "token.grants"},
      {"wk.recalls_per_write", "token.recalls"},
      {"wk.returns_per_write", "token.returns"},
      {"wk.parked_per_write", "broker.parked"}};
  for (const auto& [metric, counter] : per_write) {
    rep.ratio(metric, diff(counter), counter, writes, "writes attempted");
  }
  const auto recall =
      histogram_samples(counters_end.merged, "token.recall_latency_us");
  rep.pct("wk.recall_latency_us.p50", percentile(recall, 0.50), 1.0, "us");
  rep.pct("wk.recall_latency_us.p99", percentile(recall, 0.99), 1.0, "us");
  rep.ratio("wan.msgs_per_frame", diff("wan.frame_msgs"), "messages",
            diff("wan.frames_sent"), "WAN frames", "count");
}

}  // namespace wkbench
