// Base type for everything sent over the simulated network. Each protocol
// message derives from Wire<Self> and declares its fields once (see
// common/buffer.h); that one declaration drives the rt codec's encode and
// decode and the byte count the DES charges. Receivers dispatch with
// msg_cast — an O(1) compare of the type tag Wire stamps at construction
// (dynamic_cast dominated the event-loop profile; the tag keeps the same
// deserialize-then-dispatch shape without the RTTI walk).
//
// Allocation: messages are by far the hottest heap traffic in a sweep (one
// per send, tens of thousands per simulated minute), so make_message /
// make_mutable_message back std::allocate_shared with a size-bucketed
// frame arena: freed control-block+object frames are recycled through
// per-size-class free lists instead of returning to the allocator. The
// arena is thread-local (the simulator is single-threaded; the parallel
// seed hunter forks processes, not threads) and recycling is invisible to
// the virtual execution — no behavior reads message addresses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "common/buffer.h"

// Under ASan, poison pooled frames while they sit on a free list so a
// use-after-free into recycled memory is caught instead of silently reading
// whatever the next occupant wrote there.
#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#define WK_POISON(p, n) __asan_poison_memory_region((p), (n))
#define WK_UNPOISON(p, n) __asan_unpoison_memory_region((p), (n))
#else
#define WK_POISON(p, n) ((void)0)
#define WK_UNPOISON(p, n) ((void)0)
#endif

namespace wankeeper::sim {

struct Message {
  virtual ~Message() = default;
  // Human-readable tag for traces.
  virtual const char* name() const = 0;
  // Encoded size in bytes, wire tag included; the DES charges it to the
  // network. Wire<Self> computes it; test-only messages state one.
  virtual std::size_t wire_size() const = 0;
  // Concrete-type tag for O(1) dispatch, stamped by Wire's constructor.
  // 0 only on test-only messages, which msg_cast never matches.
  std::uint32_t type_id = 0;
};

using MessagePtr = std::shared_ptr<const Message>;

namespace detail {
inline std::uint32_t next_msg_type_id() {
  static std::uint32_t n = 0;
  return ++n;
}
}  // namespace detail

// Process-local tag for a concrete message type. Assigned during static
// initialization (an inline variable, not a guarded function-local static:
// dispatch chains compare tags a dozen times per delivery, and the guard
// check showed up in the profile), so the numeric value depends on link
// order and is not stable across binaries — never serialize it.
template <typename T>
inline const std::uint32_t kMsgTypeId = detail::next_msg_type_id();

template <typename T>
std::uint32_t msg_type_id() {
  return kMsgTypeId<T>;
}

// Bytes of the wire tag rt::encode_message writes ahead of the fields.
constexpr std::size_t kWireTagBytes = 2;

// CRTP base of every protocol message: `struct AckMsg : Wire<AckMsg>`.
template <class Self>
struct Wire : Message {
  Wire() { type_id = msg_type_id<Self>(); }
  // Exactly the length rt::encode_message produces, counted without
  // encoding or allocating.
  std::size_t wire_size() const final {
    ByteCounter c;
    c(static_cast<const Self&>(*this));
    return kWireTagBytes + c.size();
  }
  // Two messages of one type differ only in their fields, so each message
  // can default its operator==.
  bool operator==(const Wire&) const { return true; }
};

// The one polymorphic field type (WanEnvelopeMsg::inners) sizes through the
// inner message's own wire_size(); rt/codec.h declares its encode/decode.
inline void wire_value(ByteCounter& c, MessagePtr& m) { c.add(m->wire_size()); }

// dynamic_cast replacement for the flat Message hierarchy (every concrete
// type derives directly from Wire<T>, so an exact tag compare is enough).
template <typename T>
const T* msg_cast(const Message* m) {
  static_assert(std::is_base_of_v<Wire<T>, T>, "msg_cast needs a Wire type");
  return m != nullptr && m->type_id == msg_type_id<T>()
             ? static_cast<const T*>(m)
             : nullptr;
}

namespace detail {

// Frame arena counters, surfaced by bench/bench_sim.
struct ArenaStats {
  std::uint64_t allocs = 0;   // frames handed out
  std::uint64_t reused = 0;   // ... of which came from a free list
  std::uint64_t bytes = 0;    // bytes handed out (fresh + reused)
};

// Size classes in 64-byte steps up to 4 KiB; larger frames (rare: a huge
// coalesced envelope) fall through to plain new/delete.
class FrameArena {
 public:
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kMaxPooled = 4096;

  static FrameArena& instance() {
    thread_local FrameArena arena;
    return arena;
  }

  void* allocate(std::size_t bytes) {
    ++stats_.allocs;
    stats_.bytes += bytes;
    if (bytes > kMaxPooled) return ::operator new(bytes);
    const std::size_t bucket = (bytes + kGranularity - 1) / kGranularity;
    auto& list = free_[bucket];
    if (!list.empty()) {
      void* p = list.back();
      list.pop_back();
      ++stats_.reused;
      WK_UNPOISON(p, bucket * kGranularity);
      return p;
    }
    return ::operator new(bucket * kGranularity);
  }

  void deallocate(void* p, std::size_t bytes) {
    if (bytes > kMaxPooled) {
      ::operator delete(p);
      return;
    }
    const std::size_t bucket = (bytes + kGranularity - 1) / kGranularity;
    free_[bucket].push_back(p);
    WK_POISON(p, bucket * kGranularity);
  }

  const ArenaStats& stats() const { return stats_; }
  void reset_stats() { stats_ = ArenaStats{}; }

 private:
  FrameArena() : free_(kMaxPooled / kGranularity + 1) {}
  ~FrameArena() {
    for (auto& list : free_) {
      for (void* p : list) ::operator delete(p);
    }
  }

  std::vector<std::vector<void*>> free_;
  ArenaStats stats_;
};

template <typename T>
struct FrameAllocator {
  using value_type = T;

  FrameAllocator() = default;
  template <typename U>
  FrameAllocator(const FrameAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(FrameArena::instance().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    FrameArena::instance().deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const FrameAllocator<U>&) const {
    return true;
  }
};

}  // namespace detail

inline const detail::ArenaStats& message_arena_stats() {
  return detail::FrameArena::instance().stats();
}
inline void reset_message_arena_stats() {
  detail::FrameArena::instance().reset_stats();
}

// Construct-complete messages (all fields passed to the constructor).
template <typename T, typename... Args>
MessagePtr make_message(Args&&... args) {
  return std::allocate_shared<T>(detail::FrameAllocator<T>{},
                                 std::forward<Args>(args)...);
}

// Build-then-fill messages: `auto m = make_mutable_message<FooMsg>();
// m->field = ...; send(..., m);`. Same arena as make_message — the
// shared_ptr converts to MessagePtr at the send boundary.
template <typename T, typename... Args>
std::shared_ptr<T> make_mutable_message(Args&&... args) {
  return std::allocate_shared<T>(detail::FrameAllocator<T>{},
                                 std::forward<Args>(args)...);
}

}  // namespace wankeeper::sim
