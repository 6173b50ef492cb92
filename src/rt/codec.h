// Wire codec for every protocol message: the serialization boundary that
// lets the same zab/zk/wankeeper actors run over real sockets. The DES
// passes MessagePtr by reference and never needs this; ThreadRuntime
// encodes at send and decodes on the destination loop, so each node only
// ever sees value copies — the same isolation a socket gives.
//
// A message goes on the wire as [u16 tag][fields...]. The tag is the stable
// number WireTypes pairs with the message type; the fields are the
// message's one fields() declaration walked by the common/buffer.h visitors,
// so the bytes written here are exactly the count the DES charges through
// wire_size(). This codec holds no per-type code: it is two tables
// generated from WireTypes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/buffer.h"
#include "sim/message.h"
#include "wankeeper/messages.h"
#include "zab/messages.h"
#include "zk/messages.h"

namespace wankeeper::rt {

template <std::uint16_t Tag, class M>
struct Tagged {
  static constexpr std::uint16_t kTag = Tag;
  using Type = M;
};

template <class... E>
struct TypeList {};

// Every message that crosses a socket, with its wire tag. Append only:
// never reuse or renumber a tag. The in-process sim::kMsgTypeId is assigned
// by link order and MUST NOT leak onto the wire.
using WireTypes = TypeList<
    // zab/ — election, discovery, synchronization, broadcast.
    Tagged<1, zab::VoteMsg>, Tagged<2, zab::CurrentLeaderMsg>,
    Tagged<3, zab::FollowerInfoMsg>, Tagged<4, zab::NewEpochMsg>,
    Tagged<5, zab::AckEpochMsg>, Tagged<6, zab::SyncMsg>,
    Tagged<7, zab::NewLeaderMsg>, Tagged<8, zab::AckNewLeaderMsg>,
    Tagged<9, zab::UpToDateMsg>, Tagged<10, zab::ObserverInfoMsg>,
    Tagged<11, zab::ProposeMsg>, Tagged<12, zab::AckMsg>,
    Tagged<13, zab::CommitMsg>, Tagged<14, zab::InformMsg>,
    Tagged<15, zab::PingMsg>, Tagged<16, zab::PingReplyMsg>,
    // zk/ — client-server and server-server.
    Tagged<32, zk::ClientRequest>, Tagged<33, zk::ClientReply>,
    Tagged<34, zk::WatchNotifyMsg>, Tagged<35, zk::ForwardRequestMsg>,
    Tagged<36, zk::RequestErrorMsg>, Tagged<37, zk::SessionTouchMsg>,
    // wankeeper/ — the L1 <-> L2 WAN protocol.
    Tagged<64, wk::WanEnvelopeMsg>, Tagged<65, wk::WanAckMsg>,
    Tagged<66, wk::RegisterMsg>, Tagged<67, wk::WanForwardMsg>,
    Tagged<68, wk::ReplicateUpMsg>, Tagged<69, wk::ResyncPullMsg>,
    Tagged<70, wk::ResyncChunkMsg>, Tagged<71, wk::WanHeartbeatMsg>,
    Tagged<72, wk::RegisterOkMsg>, Tagged<73, wk::ReplicateDownMsg>,
    Tagged<74, wk::TokenRecallMsg>, Tagged<75, wk::WanRequestErrorMsg>,
    Tagged<76, wk::WanHeartbeatReplyMsg>>;

template <class... E>
constexpr bool distinct_tags(TypeList<E...>) {
  constexpr std::uint16_t tags[] = {E::kTag...};
  for (std::size_t i = 0; i < sizeof...(E); ++i) {
    for (std::size_t j = i + 1; j < sizeof...(E); ++j) {
      if (tags[i] == tags[j]) return false;
    }
  }
  return true;
}
static_assert(distinct_tags(WireTypes{}), "two message types share a tag");

// Appends [u16 tag][fields...]. Throws BufferError for a message type
// outside WireTypes.
void encode_into(BufferWriter& w, const sim::Message& m);

// Reads one message written by encode_into. Throws BufferError on a bad
// tag, a truncated buffer, or a count larger than the bytes left — before
// allocating for it.
sim::MessagePtr decode_from(BufferReader& r);

inline std::vector<std::uint8_t> encode_message(const sim::Message& m) {
  BufferWriter w;
  // One allocation covers every fixed-size message; the byte-at-a-time
  // appends would otherwise regrow the vector from empty several times.
  w.reserve(128);
  encode_into(w, m);
  return w.take();
}

inline sim::MessagePtr decode_message(const std::vector<std::uint8_t>& bytes) {
  BufferReader r(bytes);
  return decode_from(r);
}

}  // namespace wankeeper::rt

namespace wankeeper::sim {

// WanEnvelopeMsg::inners, the one polymorphic field: each inner message is
// a nested [tag][fields...]. (sim/message.h sizes it.)
void wire_value(BufferWriter& w, MessagePtr& m);
void wire_value(BufferReader& r, MessagePtr& m);

}  // namespace wankeeper::sim
