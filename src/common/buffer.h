// Flat binary serialization used for Zab transaction payloads.
//
// ZooKeeper marshals requests with jute; we use an equivalent hand-rolled
// length-prefixed little-endian format. Keeping txn payloads as real bytes
// (rather than passing C++ structs through) models the marshalling work the
// paper charges WanKeeper for, and forces every layer to round-trip its
// wire state, which the tests exploit.
//
// The integer accessors are inline: every committed txn is serialized once
// and deserialized at every applying peer, so out-of-line byte-at-a-time
// calls showed up as a few percent of the whole event-loop profile.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace wankeeper {

// Raw little-endian accessors for fixed-offset headers written outside a
// BufferWriter — the socket frame header in rt/thread_runtime.cpp reads and
// writes these directly on the wire buffer. Same byte order as u32() below.
inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

class BufferWriter {
 public:
  BufferWriter() = default;
  // Appends after `into`'s existing bytes; take() hands them all back.
  explicit BufferWriter(std::vector<std::uint8_t> into)
      : bytes_(std::move(into)) {}

  // Pre-size for a known payload; saves the doubling reallocs on the
  // per-commit encode path.
  void reserve(std::size_t n) { bytes_.reserve(n); }
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    const std::size_t n = bytes_.size();
    bytes_.resize(n + 4);
    for (int i = 0; i < 4; ++i) {
      bytes_[n + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  void u64(std::uint64_t v) {
    const std::size_t n = bytes_.size();
    bytes_.resize(n + 8);
    for (int i = 0; i < 8; ++i) {
      bytes_[n + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void raw(const std::uint8_t* p, std::size_t n) {
    bytes_.insert(bytes_.end(), p, p + n);
  }
  void blob(const std::vector<std::uint8_t>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Thrown when a reader runs off the end of a buffer or sees a bad tag:
// indicates a serialization bug, never expected in a healthy run.
class BufferError : public std::runtime_error {
 public:
  explicit BufferError(const std::string& what) : std::runtime_error(what) {}
};

class BufferReader {
 public:
  explicit BufferReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  BufferReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<std::uint8_t> blob() {
    const std::uint32_t n = u32();
    need(n);
    std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > size_) throw BufferError("buffer underflow");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace wankeeper
