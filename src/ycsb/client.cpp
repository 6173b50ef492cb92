#include "ycsb/client.h"

namespace wankeeper::ycsb {

Driver::Driver(zk::Client& client, WorkloadSpec spec, KeyMapper mapper,
               ClientMetrics& metrics)
    : client_(client),
      spec_(spec),
      mapper_(std::move(mapper)),
      metrics_(metrics),
      stream_(spec),
      payload_(spec.payload_bytes, 0x61) {}

void Driver::start() {
  metrics_.started = client_.sim().now();
  issue_next();
}

void Driver::issue_next() {
  if (issued_ >= spec_.op_count) {
    done_ = true;
    metrics_.finished = client_.sim().now();
    return;
  }
  ++issued_;
  issue(stream_.next(), client_.sim().now());
}

void Driver::issue(const OpStream::Op& op, Time issued_at) {
  const std::string path = mapper_.path_of(op.rank);
  auto cb = [this, op, issued_at](const zk::ClientResult& r) {
    on_result(op, issued_at, r);
  };
  if (op.is_write) {
    client_.set_data(path, payload_, -1, std::move(cb));
  } else {
    client_.get_data(path, false, std::move(cb));
  }
}

void Driver::on_result(const OpStream::Op& op, Time issued_at,
                       const zk::ClientResult& result) {
  auto& reg = client_.sim().obs().metrics;
  if (result.rc == store::Rc::kUnavailable) {
    ++metrics_.retries;
    reg.counter("ycsb.retries").inc();
    issue(op, issued_at);  // transient: leadership change or lost forward
    return;
  }
  const Time latency = client_.sim().now() - issued_at;
  if (op.is_write) {
    metrics_.write_latency.record(latency);
    reg.histogram("ycsb.write_latency_us").record(latency);
  } else {
    metrics_.read_latency.record(latency);
    reg.histogram("ycsb.read_latency_us").record(latency);
  }
  ++metrics_.ops;
  reg.counter("ycsb.ops").inc();
  // Windowed series are relative to this client's measurement start.
  metrics_.series.record(client_.sim().now() - metrics_.started);
  issue_next();
}

void Driver::preload(zk::Client& client, const KeyMapper& mapper,
                     std::uint64_t record_count, std::size_t payload_bytes,
                     std::function<void()> on_complete) {
  auto paths = std::make_shared<std::vector<std::string>>();
  for (std::uint64_t r = 0; r < record_count; ++r) {
    paths->push_back(mapper.path_of(r));
  }
  auto payload = std::vector<std::uint8_t>(payload_bytes, 0x61);
  auto next = std::make_shared<std::function<void(std::size_t)>>();
  *next = [&client, paths, payload, next,
           done = std::move(on_complete)](std::size_t i) {
    if (i >= paths->size()) {
      if (done) done();
      return;
    }
    // kNodeExists is fine: shared records are preloaded once per client set.
    client.create((*paths)[i], payload, false, false,
                  [next, i](const zk::ClientResult&) { (*next)(i + 1); });
  };
  (*next)(0);
}

}  // namespace wankeeper::ycsb
