// SCFS metadata service model (paper §IV-C): the Shared Cloud-backed File
// System keeps file metadata in a coordination service and uses it to
// arbitrate multi-client access; file *data* goes to cloud stores and never
// touches the coordination path. MetadataClient is the MDS-facing slice of
// an SCFS client: metadata lookups are local reads, metadata updates are
// coordination writes — the operations Figure 10 measures.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "zk/client.h"

namespace wankeeper::scfs {

struct FileMeta {
  std::string path;           // SCFS-visible path, e.g. "/docs/a.txt"
  std::uint64_t size = 0;
  std::uint64_t mtime = 0;    // application timestamp
  std::string backend_ref;    // opaque pointer into the cloud data store
  std::int32_t version = 0;   // metadata version (from the znode)

  // The znode's bytes; version is the znode's own, not stored.
  template <class V> void fields(V& v) { v(path, size, mtime, backend_ref); }
};

class MetadataClient {
 public:
  using Callback = std::function<void(store::Rc, const FileMeta&)>;
  using ListCallback =
      std::function<void(store::Rc, const std::vector<std::string>&)>;

  // All metadata lives under `root` (default "/scfs").
  explicit MetadataClient(zk::Client& zk, std::string root = "/scfs");

  // Creates the metadata root (idempotent).
  void init(std::function<void(store::Rc)> cb);

  void create_file(const std::string& path, Callback cb);
  // Metadata update (size/mtime/backend pointer): one coordination write.
  void update(const FileMeta& meta, Callback cb);
  void lookup(const std::string& path, Callback cb);
  void remove_file(const std::string& path, std::function<void(store::Rc)> cb);
  void list_dir(ListCallback cb);

  static std::string znode_of(const std::string& root, const std::string& path);

 private:
  std::vector<std::uint8_t> encode(const FileMeta& meta) const;
  FileMeta decode(const std::string& path,
                  const std::vector<std::uint8_t>& bytes) const;

  zk::Client& zk_;
  std::string root_;
};

}  // namespace wankeeper::scfs
