// Layer costs timed from outside, through each layer's public calls, on
// inputs shaped like the workload's own: its records, its write values,
// and the messages one of its writes produces on the wire.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "phases.h"
#include "rt/codec.h"
#include "store/datatree.h"
#include "wankeeper/messages.h"
#include "zab/log.h"
#include "zab/messages.h"
#include "zk/messages.h"
#include "zk/server.h"

namespace wkbench {
namespace {

using namespace wankeeper;

constexpr int kBatches = 7;
constexpr std::size_t kVariants = 64;  // distinct records cycled through

// Timed results land here so the compiler cannot drop the timed calls.
volatile std::size_t g_sink = 0;

// Median over kBatches of the per-call cost of `n` calls of fn(i).
template <class Fn>
double ns_per_call(std::size_t n, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    per_call.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(n));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

std::string record_path(const RtOptions& opt, std::size_t k) {
  return opt.shared ? "/shared-k" + std::to_string(k)
                    : "/s0-k" + std::to_string(k);
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// The messages one write of the workload puts on the wire.
struct WriteMessages {
  zk::ClientRequest request;
  zk::ClientReply reply;
  zab::ProposeMsg propose;
  zab::AckMsg ack;
  zab::CommitMsg commit;
  wk::WanEnvelopeMsg envelope;
};

WriteMessages write_messages(const RtOptions& opt, std::size_t k) {
  WriteMessages m;
  const std::string path = record_path(opt, k % opt.shape.keys);
  const std::vector<std::uint8_t> value =
      bytes_of("v" + std::to_string(1000 + k));
  const Zxid zxid = (Zxid{1} << 32) | (k + 1);
  m.request.session = 10001;
  m.request.xid = static_cast<Xid>(k + 1);
  m.request.op.op = zk::OpCode::kSetData;
  m.request.op.path = path;
  m.request.op.data = value;

  m.reply.session = m.request.session;
  m.reply.xid = m.request.xid;
  m.reply.op = zk::OpCode::kSetData;
  m.reply.stat.version = static_cast<std::int32_t>(k + 1);
  m.reply.stat.mzxid = zxid;
  m.reply.zxid = zxid;

  zk::Envelope env;
  env.session = m.request.session;
  env.xid = m.request.xid;
  env.txn.type = store::TxnType::kSetData;
  env.txn.zxid = zxid;
  env.txn.path = path;
  env.txn.data = value;
  env.txn.version = static_cast<std::int32_t>(k + 1);
  env.txn.origin_site = 0;
  env.txn.origin_zxid = zxid;
  m.propose.epoch = 1;
  m.propose.entries.push_back(zab::LogEntry{zxid, env.encode()});
  m.ack.epoch = 1;
  m.ack.zxid = zxid;
  m.commit.epoch = 1;
  m.commit.zxid = zxid;

  auto up = sim::make_mutable_message<wk::ReplicateUpMsg>();
  up->envelope = env;
  m.envelope.from_site = 0;
  m.envelope.from_node = 5;
  m.envelope.stream_epoch = 1;
  m.envelope.seq = k + 1;
  m.envelope.inners.push_back(up);
  return m;
}

template <class Get>
void time_codec(Report& rep, const char* type,
                const std::vector<WriteMessages>& msgs, Get&& get) {
  std::vector<std::vector<std::uint8_t>> encoded;
  for (const auto& m : msgs) encoded.push_back(rt::encode_message(get(m)));
  std::size_t sink = 0;
  const double enc = ns_per_call(20000, [&](std::size_t i) {
    sink += rt::encode_message(get(msgs[i % msgs.size()])).size();
  });
  const double dec = ns_per_call(20000, [&](std::size_t i) {
    sink += rt::decode_message(encoded[i % encoded.size()]) != nullptr;
  });
  double bytes = 0;
  for (const auto& e : encoded) bytes += static_cast<double>(e.size());
  bytes /= static_cast<double>(encoded.size());
  const std::string base = std::string("codec.");
  g_sink = sink;
  rep.metric(base + "encode_ns." + type, enc, "ns");
  rep.metric(base + "decode_ns." + type, dec, "ns");
  rep.metric(base + "bytes." + type, bytes, "bytes");
}

}  // namespace

void run_layer_probes(const RtOptions& opt, Report& rep) {
  std::vector<WriteMessages> msgs;
  for (std::size_t k = 0; k < kVariants; ++k) {
    msgs.push_back(write_messages(opt, k));
  }

  Report::section("codec (rt::encode_message / rt::decode_message)");
  using Get = const sim::Message& (*)(const WriteMessages&);
  const std::pair<const char*, Get> types[] = {
      {"ClientRequest", [](const WriteMessages& m) -> const sim::Message& {
         return m.request;
       }},
      {"ClientReply", [](const WriteMessages& m) -> const sim::Message& {
         return m.reply;
       }},
      {"Propose", [](const WriteMessages& m) -> const sim::Message& {
         return m.propose;
       }},
      {"Ack",
       [](const WriteMessages& m) -> const sim::Message& { return m.ack; }},
      {"Commit",
       [](const WriteMessages& m) -> const sim::Message& { return m.commit; }},
      {"WanEnvelope", [](const WriteMessages& m) -> const sim::Message& {
         return m.envelope;
       }}};
  for (const auto& [type, get] : types) time_codec(rep, type, msgs, get);

  Report::section("zab (zab::TxnLog::append)");
  constexpr std::size_t kAppends = 50000;
  std::vector<zab::LogEntry> entries;
  for (std::size_t i = 0; i < kAppends; ++i) {
    zab::LogEntry e = msgs[i % msgs.size()].propose.entries.front();
    e.zxid = (Zxid{1} << 32) | (i + 1);
    entries.push_back(std::move(e));
  }
  std::vector<double> per_append;
  for (int b = 0; b < kBatches; ++b) {
    zab::TxnLog log;  // a fresh log per batch, freed outside the timing
    const std::int64_t t0 = now_ns();
    for (const zab::LogEntry& e : entries) log.append(e);
    per_append.push_back(static_cast<double>(now_ns() - t0) /
                         static_cast<double>(kAppends));
  }
  std::sort(per_append.begin(), per_append.end());
  const double append_ns = per_append[per_append.size() / 2];
  rep.metric("zab.log_append_ns", append_ns, "ns",
             "(" + std::to_string(kAppends) + " appends per batch)");

  Report::section("store (store::DataTree)");
  store::DataTree tree;
  Zxid zxid = 0;
  for (std::uint32_t k = 0; k < opt.shape.keys; ++k) {
    store::Txn create;
    create.type = store::TxnType::kCreate;
    create.zxid = ++zxid;
    create.path = record_path(opt, k);
    create.data = bytes_of("0");
    create.parent_cversion = static_cast<std::int32_t>(k + 1);
    tree.apply(create, 0);
  }
  std::vector<std::int32_t> version(opt.shape.keys, 0);
  std::vector<store::Txn> sets;
  for (std::size_t i = 0; i < 100000; ++i) {
    const auto k = static_cast<std::uint32_t>((i * 7) % opt.shape.keys);
    store::Txn t;
    t.type = store::TxnType::kSetData;
    t.path = record_path(opt, k);
    t.data = bytes_of("v" + std::to_string(i));
    t.version = ++version[k];
    sets.push_back(std::move(t));
  }
  std::size_t next_set = 0;
  const double apply_ns = ns_per_call(sets.size() / kBatches, [&](std::size_t) {
    store::Txn& t = sets[next_set++];
    t.zxid = ++zxid;
    tree.apply(t, 0);
  });
  rep.metric("store.apply_ns", apply_ns, "ns",
             "(set-data over " + std::to_string(opt.shape.keys) + " records)");
  std::vector<std::string> paths;
  for (std::uint32_t k = 0; k < opt.shape.keys; ++k) {
    paths.push_back(record_path(opt, k));
  }
  std::vector<std::uint8_t> data;
  store::Stat stat;
  std::size_t found = 0;
  const double get_ns = ns_per_call(100000, [&](std::size_t i) {
    found += tree.get_data(paths[(i * 7) % paths.size()], &data, &stat) ==
             store::Rc::kOk;
  });
  g_sink = found;
  rep.metric("store.get_ns", get_ns, "ns",
             "(" + std::to_string(found) + " hits over " +
                 std::to_string(paths.size()) + " records)");
}

}  // namespace wkbench
