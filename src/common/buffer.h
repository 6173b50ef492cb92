// Flat binary serialization: Zab transaction payloads and, through
// rt/codec, every protocol message on the thread runtime's sockets.
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
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"

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

// --- one schema, three visitors ---
//
// Every wire type declares its fields once, in wire order:
//
//   template <class V> void fields(V& v) { v(epoch, zxid, entries); }
//
// and the three visitors below walk that one list: BufferWriter encodes,
// BufferReader decodes and ByteCounter sizes. wire_value() holds the rules
// all three share, so a field cannot be encoded one way and sized another:
//   - integers: little-endian at their own width, bool as one byte;
//   - enums: as their underlying integer;
//   - std::string, byte vectors and common::Bytes: u32 length + bytes;
//   - std::vector<T>: u32 count + each element;
//   - structs that declare fields(): their fields in order, no header.
// Any other field type brings its own wire_value(V&, T&) overload, found by
// argument-dependent lookup (sim::MessagePtr is the one such type).

namespace wire_detail {
struct AnyVisitor {
  template <class... F>
  void operator()(F&...) {}
};
template <class T>
struct IsVector : std::false_type {};
template <class T, class A>
struct IsVector<std::vector<T, A>> : std::true_type {};
template <class T>
constexpr bool kIsByteString = std::is_same_v<T, std::string> ||
                               std::is_same_v<T, std::vector<std::uint8_t>> ||
                               std::is_same_v<T, common::Bytes>;
}  // namespace wire_detail

template <class T>
concept WireStruct =
    requires(T& t, wire_detail::AnyVisitor& v) { t.fields(v); };

template <class V, class T>
void wire_value(V& v, T& x) {
  if constexpr (std::is_integral_v<T>) {
    v.scalar(x);
  } else if constexpr (std::is_enum_v<T>) {
    auto u = static_cast<std::underlying_type_t<T>>(x);
    v.scalar(u);
    if constexpr (V::kDecodes) x = static_cast<T>(u);
  } else if constexpr (wire_detail::kIsByteString<T>) {
    v.byte_string(x);
  } else if constexpr (wire_detail::IsVector<T>::value) {
    auto n = static_cast<std::uint32_t>(x.size());
    v.count(n);
    if constexpr (V::kDecodes) {
      // Grow as elements actually decode: a forged count can cost no more
      // memory than the bytes that back it.
      x.clear();
      for (std::uint32_t i = 0; i < n; ++i) wire_value(v, x.emplace_back());
    } else {
      for (auto& e : x) wire_value(v, e);
    }
  } else {
    static_assert(WireStruct<T>,
                  "no wire rule: declare fields() or a wire_value overload");
    if constexpr (V::kDecodes) v.descend();
    x.fields(v);
    if constexpr (V::kDecodes) v.ascend();
  }
}

class BufferWriter {
 public:
  static constexpr bool kDecodes = false;

  BufferWriter() = default;
  // Appends after `into`'s existing bytes; take() hands them all back.
  explicit BufferWriter(std::vector<std::uint8_t> into)
      : bytes_(std::move(into)) {}

  // Encodes each value by the wire_value() rules.
  template <class... F>
  void operator()(const F&... f) {
    // Writing only reads the fields; fields() is non-const so one
    // declaration serves the reader too.
    (wire_value(*this, const_cast<F&>(f)), ...);
  }

  // Pre-size for a known payload; saves the doubling reallocs on the
  // per-commit encode path.
  void reserve(std::size_t n) { bytes_.reserve(n); }
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) { scalar(v); }
  void u64(std::uint64_t v) { scalar(v); }
  void i32(std::int32_t v) { scalar(v); }
  void i64(std::int64_t v) { scalar(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) { byte_string(s); }
  void raw(const std::uint8_t* p, std::size_t n) {
    bytes_.insert(bytes_.end(), p, p + n);
  }
  void blob(const std::vector<std::uint8_t>& b) { byte_string(b); }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

  // --- wire_value() primitives ---
  template <class I>
  void scalar(I v) {
    if constexpr (sizeof(I) == 1) {  // bool included: it converts to 0/1
      u8(static_cast<std::uint8_t>(v));
    } else {
      const auto u = static_cast<std::make_unsigned_t<I>>(v);
      const std::size_t n = bytes_.size();
      bytes_.resize(n + sizeof(I));
      for (std::size_t i = 0; i < sizeof(I); ++i) {
        bytes_[n + i] = static_cast<std::uint8_t>(u >> (8 * i));
      }
    }
  }
  void count(std::uint32_t n) { scalar(n); }
  template <class B>
  void byte_string(const B& b) {
    scalar(static_cast<std::uint32_t>(b.size()));
    raw(reinterpret_cast<const std::uint8_t*>(b.data()), b.size());
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Thrown when a reader runs off the end of a buffer or sees a bad tag, a
// count larger than the bytes left, or nesting deeper than any real message.
// Indicates a serialization bug or a corrupt frame, never a healthy run.
class BufferError : public std::runtime_error {
 public:
  explicit BufferError(const std::string& what) : std::runtime_error(what) {}
};

class BufferReader {
 public:
  static constexpr bool kDecodes = true;
  // Deeper than any real message (envelope > request > txn > multi op).
  static constexpr int kMaxDepth = 32;

  explicit BufferReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  BufferReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  // Decodes into each value by the wire_value() rules.
  template <class... F>
  void operator()(F&... f) {
    (wire_value(*this, f), ...);
  }

  std::uint8_t u8() { return read<std::uint8_t>(); }
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  std::int32_t i32() { return read<std::int32_t>(); }
  std::int64_t i64() { return read<std::int64_t>(); }
  bool boolean() { return read<bool>(); }
  std::string str() { return read<std::string>(); }
  std::vector<std::uint8_t> blob() { return read<std::vector<std::uint8_t>>(); }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

  // --- wire_value() primitives ---
  template <class I>
  void scalar(I& x) {
    need(sizeof(I));
    if constexpr (std::is_same_v<I, bool>) {
      x = data_[pos_++] != 0;
    } else {
      std::make_unsigned_t<I> u = 0;
      for (std::size_t i = 0; i < sizeof(I); ++i) {
        u |= static_cast<std::make_unsigned_t<I>>(data_[pos_++]) << (8 * i);
      }
      x = static_cast<I>(u);
    }
  }
  // Every element takes at least one byte, so a count above remaining() is
  // a corrupt frame: reject it before anything is allocated for it.
  void count(std::uint32_t& n) {
    scalar(n);
    if (n > remaining()) throw BufferError("count exceeds buffer");
  }
  void byte_string(std::string& s) {
    const std::uint32_t n = length();
    s.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
  }
  void byte_string(std::vector<std::uint8_t>& b) {
    const std::uint32_t n = length();
    b.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
  }
  void byte_string(common::Bytes& b) {
    std::vector<std::uint8_t> v;
    byte_string(v);
    b = common::Bytes(std::move(v));
  }
  void descend() {
    if (++depth_ > kMaxDepth) throw BufferError("nesting too deep");
  }
  void ascend() { --depth_; }

 private:
  template <class T>
  T read() {
    T x{};
    wire_value(*this, x);
    return x;
  }
  std::uint32_t length() {
    std::uint32_t n = 0;
    scalar(n);
    need(n);
    return n;
  }
  void need(std::size_t n) const {
    if (n > size_ - pos_) throw BufferError("buffer underflow");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

// Sizes a value without encoding it: exactly the bytes BufferWriter would
// append for the same fields, with no allocation.
class ByteCounter {
 public:
  static constexpr bool kDecodes = false;

  template <class... F>
  void operator()(const F&... f) {
    (wire_value(*this, const_cast<F&>(f)), ...);
  }
  std::size_t size() const { return n_; }

  // --- wire_value() primitives ---
  template <class I>
  void scalar(const I&) {
    n_ += sizeof(I);
  }
  void count(std::uint32_t) { n_ += 4; }
  template <class B>
  void byte_string(const B& b) {
    n_ += 4 + b.size();
  }
  void add(std::size_t n) { n_ += n; }

 private:
  std::size_t n_ = 0;
};

// Whole-value helpers for records kept as bytes (store::Txn, zk::Envelope):
// one exactly-sized allocation per encode.
template <class T>
std::vector<std::uint8_t> encode_value(const T& x) {
  ByteCounter c;
  c(x);
  BufferWriter w;
  w.reserve(c.size());
  w(x);
  return w.take();
}

template <class T>
T decode_value(BufferReader r) {
  T x{};
  r(x);
  return x;
}

}  // namespace wankeeper
