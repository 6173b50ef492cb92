#include "scfs/metadata.h"

#include "common/buffer.h"

namespace wankeeper::scfs {

MetadataClient::MetadataClient(zk::Client& zk, std::string root)
    : zk_(zk), root_(std::move(root)) {}

std::string MetadataClient::znode_of(const std::string& root,
                                     const std::string& path) {
  // Flatten the SCFS path into one component: the MDS namespace is flat in
  // SCFS (a single metadata table), only the coordination keys matter.
  std::string flat = path;
  for (auto& c : flat) {
    if (c == '/') c = '_';
  }
  return root + "/" + flat;
}

std::vector<std::uint8_t> MetadataClient::encode(const FileMeta& meta) const {
  return encode_value(meta);
}

FileMeta MetadataClient::decode(const std::string& path,
                                const std::vector<std::uint8_t>& bytes) const {
  FileMeta meta;
  meta.path = path;
  if (bytes.empty()) return meta;
  return decode_value<FileMeta>(BufferReader(bytes));
}

void MetadataClient::init(std::function<void(store::Rc)> cb) {
  zk_.create(root_, "", false, false,
             [cb = std::move(cb)](const zk::ClientResult& r) {
               const store::Rc rc =
                   r.rc == store::Rc::kNodeExists ? store::Rc::kOk : r.rc;
               if (cb) cb(rc);
             });
}

void MetadataClient::create_file(const std::string& path, Callback cb) {
  FileMeta meta;
  meta.path = path;
  zk_.create(znode_of(root_, path), encode(meta), false, false,
             [cb = std::move(cb), meta](const zk::ClientResult& r) {
               if (cb) cb(r.rc, meta);
             });
}

void MetadataClient::update(const FileMeta& meta, Callback cb) {
  zk_.set_data(znode_of(root_, meta.path), encode(meta), -1,
               [this, cb = std::move(cb), meta](const zk::ClientResult& r) {
                 FileMeta out = meta;
                 out.version = r.stat.version;
                 if (cb) cb(r.rc, out);
               });
}

void MetadataClient::lookup(const std::string& path, Callback cb) {
  zk_.get_data(znode_of(root_, path), false,
               [this, path, cb = std::move(cb)](const zk::ClientResult& r) {
                 FileMeta meta = decode(path, r.data);
                 meta.version = r.stat.version;
                 if (cb) cb(r.rc, meta);
               });
}

void MetadataClient::remove_file(const std::string& path,
                                 std::function<void(store::Rc)> cb) {
  zk_.remove(znode_of(root_, path), -1,
             [cb = std::move(cb)](const zk::ClientResult& r) {
               if (cb) cb(r.rc);
             });
}

void MetadataClient::list_dir(ListCallback cb) {
  zk_.get_children(root_, false,
                   [cb = std::move(cb)](const zk::ClientResult& r) {
                     if (cb) cb(r.rc, r.children);
                   });
}

}  // namespace wankeeper::scfs
