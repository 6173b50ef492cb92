#include "rt/codec.h"

#include <algorithm>
#include <array>
#include <string>

namespace wankeeper::rt {
namespace {

using sim::Message;
using sim::MessagePtr;

static_assert(sizeof(std::uint16_t) == sim::kWireTagBytes);

template <class E>
void encode_as(BufferWriter& w, const Message& m) {
  w(E::kTag, static_cast<const typename E::Type&>(m));
}

template <class E>
MessagePtr decode_as(BufferReader& r) {
  auto m = sim::make_mutable_message<typename E::Type>();
  r(*m);
  return m;
}

using Encoder = void (*)(BufferWriter&, const Message&);
using Decoder = MessagePtr (*)(BufferReader&);

// Indexed by the process-local type_id. Built on first use rather than at
// static initialization, which is when the type ids themselves are assigned.
const std::vector<Encoder>& encoders() {
  static const std::vector<Encoder> table = []<class... E>(TypeList<E...>) {
    std::vector<Encoder> t(
        std::max({sim::msg_type_id<typename E::Type>()...}) + 1);
    ((t[sim::msg_type_id<typename E::Type>()] = &encode_as<E>), ...);
    return t;
  }(WireTypes{});
  return table;
}

// Indexed by wire tag.
constexpr auto kDecoders = []<class... E>(TypeList<E...>) {
  std::array<Decoder, std::max({E::kTag...}) + 1> t{};
  ((t[E::kTag] = &decode_as<E>), ...);
  return t;
}(WireTypes{});

}  // namespace

void encode_into(BufferWriter& w, const Message& m) {
  const auto& table = encoders();
  if (m.type_id >= table.size() || table[m.type_id] == nullptr) {
    throw BufferError(std::string("codec: unencodable message type ") +
                      m.name());
  }
  table[m.type_id](w, m);
}

MessagePtr decode_from(BufferReader& r) {
  std::uint16_t tag = 0;
  r(tag);
  if (tag >= kDecoders.size() || kDecoders[tag] == nullptr) {
    throw BufferError("codec: unknown wire tag " + std::to_string(tag));
  }
  return kDecoders[tag](r);
}

}  // namespace wankeeper::rt

namespace wankeeper::sim {

void wire_value(BufferWriter& w, MessagePtr& m) { rt::encode_into(w, *m); }
void wire_value(BufferReader& r, MessagePtr& m) { m = rt::decode_from(r); }

}  // namespace wankeeper::sim
