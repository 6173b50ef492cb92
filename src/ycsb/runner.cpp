#include "ycsb/runner.h"

#include <map>
#include <memory>
#include <set>
#include <stdexcept>

namespace wankeeper::ycsb {

namespace {

constexpr const char* kBasePath = "/ycsb";

// Runs one loader client through a list of creates; sets *done at the end.
void load_paths(zk::Client& loader, std::shared_ptr<std::vector<std::string>> paths,
                std::size_t payload, std::shared_ptr<bool> done) {
  auto body = std::vector<std::uint8_t>(payload, 0x61);
  auto step = std::make_shared<std::function<void(std::size_t)>>();
  // The lambda must not capture `step` strongly — it lives inside *step, so a
  // strong self-capture is a refcount cycle that outlives the experiment.
  // Each in-flight create callback holds the strong reference instead.
  std::weak_ptr<std::function<void(std::size_t)>> weak_step = step;
  *step = [&loader, paths, body, weak_step, done](std::size_t i) {
    if (i >= paths->size()) {
      *done = true;
      return;
    }
    auto self = weak_step.lock();
    loader.create((*paths)[i], body, false, false,
                  [self, i](const zk::ClientResult&) { (*self)(i + 1); });
  };
  (*step)(0);
}

void run_drivers(sim::Simulator& sim, std::vector<std::unique_ptr<Driver>>& drivers,
                 Time guard_deadline) {
  for (auto& d : drivers) d->start();
  while (sim.now() < guard_deadline) {
    bool all_done = true;
    for (const auto& d : drivers) {
      if (!d->done()) {
        all_done = false;
        break;
      }
    }
    if (all_done) return;
    sim.run_for(100 * kMillisecond);
  }
  throw std::runtime_error("experiment exceeded max_sim_time");
}

}  // namespace

RunResult run_experiment(const RunConfig& config) {
  TestbedOptions bed_opts;
  bed_opts.wk_policy = config.wk_policy;
  bed_opts.batching = config.batching;
  bed_opts.wan_frame_overhead = config.wan_frame_overhead;
  Testbed bed(config.system, config.seed, bed_opts);
  sim::Simulator& sim = bed.sim();
  RunResult result;
  result.clients.resize(config.clients.size());

  // Per-client key mappers (tags default to c<i>).
  std::vector<KeyMapper> mappers;
  const std::uint64_t records =
      config.clients.empty() ? 0 : config.clients.front().workload.record_count;
  for (std::size_t i = 0; i < config.clients.size(); ++i) {
    const auto& spec = config.clients[i];
    const std::string tag = spec.tag.empty() ? "c" + std::to_string(i) : spec.tag;
    result.clients[i].name = tag;
    mappers.emplace_back(kBasePath, tag, spec.shared_fraction,
                         spec.workload.record_count);
  }

  // --- load phase (untimed). As in YCSB, each client loads its own records
  // from its own site (giving every private record exactly one access from
  // its home site before measurement, like the paper's runs); records
  // shared between sites load neutrally from Virginia.
  {
    const std::size_t payload =
        config.clients.empty() ? 64 : config.clients.front().workload.payload_bytes;

    std::map<SiteId, std::set<std::string>> by_site;
    std::set<std::string> assigned;
    by_site[kVirginia].insert(kBasePath);
    for (std::size_t i = 0; i < config.clients.size(); ++i) {
      for (std::uint64_t r = 0; r < records; ++r) {
        const std::string path = mappers[i].path_of(r);
        if (assigned.count(path) != 0) continue;
        assigned.insert(path);
        by_site[mappers[i].is_shared(r) ? kVirginia : config.clients[i].site]
            .insert(path);
      }
    }

    std::vector<std::unique_ptr<zk::Client>> loaders;
    std::vector<std::shared_ptr<bool>> done_flags;
    int loader_id = 0;
    const Time guard = sim.now() + 4 * 3600 * kSecond;

    // Virginia first, alone, so the base znode exists before other sites'
    // creates reference it.
    {
      auto loader = bed.make_client("loader-va", kVirginia, 100 + loader_id++);
      sim.run_for(300 * kMillisecond);
      auto done = std::make_shared<bool>(false);
      const auto& paths = by_site[kVirginia];
      load_paths(*loader,
                 std::make_shared<std::vector<std::string>>(paths.begin(), paths.end()),
                 payload, done);
      while (!*done && sim.now() < guard) sim.run_for(100 * kMillisecond);
      loaders.push_back(std::move(loader));
    }
    for (const auto& [site, paths] : by_site) {
      if (site == kVirginia) continue;
      auto loader = bed.make_client("loader-" + std::to_string(site), site,
                                    100 + loader_id++);
      sim.run_for(300 * kMillisecond);
      auto done = std::make_shared<bool>(false);
      load_paths(*loader,
                 std::make_shared<std::vector<std::string>>(paths.begin(), paths.end()),
                 payload, done);
      loaders.push_back(std::move(loader));
      done_flags.push_back(done);
    }
    while (sim.now() < guard) {
      bool all = true;
      for (const auto& d : done_flags) {
        if (!*d) all = false;
      }
      if (all) break;
      sim.run_for(100 * kMillisecond);
    }
    for (auto& l : loaders) l->close();
    sim.run_for(2 * kSecond);  // drain fan-out

    // WK Hot: pre-place each client's private tokens at its site (Fig 6).
    if (config.system == SystemKind::kWanKeeper && config.wk_hot_start) {
      wk::Broker* l2 = bed.deployment()->l2_broker();
      if (l2 == nullptr) throw std::runtime_error("no L2 broker");
      for (std::size_t i = 0; i < config.clients.size(); ++i) {
        std::vector<wk::TokenKey> keys;
        for (const auto& path : mappers[i].private_paths()) {
          keys.push_back(wk::node_token(path));
        }
        l2->bench_grant_tokens(keys, config.clients[i].site);
      }
      sim.run_for(2 * kSecond);  // let the grant markers propagate
    }
    sim.run_for(config.settle);
  }

  // Reset the flight recorder so the exports cover only the measurement
  // phase (the load phase would otherwise dominate every histogram).
  sim.obs().clear();

  // --- measurement phase ---
  std::vector<std::unique_ptr<zk::Client>> clients;
  std::vector<std::unique_ptr<Driver>> drivers;
  for (std::size_t i = 0; i < config.clients.size(); ++i) {
    const auto& spec = config.clients[i];
    clients.push_back(bed.make_client(result.clients[i].name, spec.site,
                                      static_cast<SessionId>(1000 + i)));
    drivers.push_back(std::make_unique<Driver>(*clients.back(), spec.workload,
                                               mappers[i], result.clients[i]));
  }
  sim.run_for(1 * kSecond);  // sessions established
  run_drivers(sim, drivers, sim.now() + config.max_sim_time);
  sim.run_for(2 * kSecond);  // drain replication before inspecting state

  // --- collect ---
  AggregateMetrics agg;
  for (auto& c : result.clients) agg.clients.push_back(&c);
  result.total_throughput = agg.total_throughput();
  result.reads = agg.merged_reads();
  result.writes = agg.merged_writes();

  if (config.system == SystemKind::kWanKeeper) {
    const auto counters = bed.wk_counters();
    result.wk_local_commits = counters.local_commits;
    result.wk_forwards = counters.forwards;
    result.wk_grants = counters.grants;
    result.wk_recalls = counters.recalls;
    result.wk_frames_sent = sim.obs().metrics.counter_total("wan.frames_sent");
    result.wk_frame_msgs = sim.obs().metrics.counter_total("wan.frame_msgs");
    result.token_audit_clean = bed.audit_clean();
  }

  // --- flight-recorder exports (the testbed dies with this scope) ---
  const auto& obs = sim.obs();
  result.metrics_json = obs.metrics.to_json();
  for (std::size_t k = 0; k < obs::kSpanKindCount; ++k) {
    const auto kind = static_cast<obs::SpanKind>(k);
    const auto rec = obs.tracer.span_latencies(kind);
    RunResult::SpanStat st;
    st.kind = obs::span_kind_name(kind);
    st.count = rec.count();
    if (st.count > 0) {
      st.p50_us = rec.percentile_us(0.50);
      st.p99_us = rec.percentile_us(0.99);
      for (const Time s : rec.samples()) st.total_us += s;
    }
    result.phase_breakdown.push_back(std::move(st));
  }
  for (const auto* t : obs.tracer.slowest(config.trace_report_n)) {
    result.slow_traces.push_back(obs.tracer.format_trace(t->id));
  }
  result.ownership = obs::OwnershipAnalytics::from_events(obs.events.merged());
  result.measure_end = sim.now();
  return result;
}

}  // namespace wankeeper::ycsb
