// Wire codec for every protocol message: the serialization boundary that
// lets the same zab/zk/wankeeper actors run over real sockets. The DES
// passes MessagePtr by reference and never needs this; ThreadRuntime
// encodes at send and decodes on the destination loop, so each node only
// ever sees value copies — the same isolation a socket gives.
//
// Tags are explicit and stable (never reuse or reorder a value): the
// in-process sim::kMsgTypeId is assigned by link order and MUST NOT leak
// onto the wire. Field encodings reuse the BufferWriter/Reader format the
// store already uses for txn payloads, so a ReplicateUp envelope crossing
// a real TCP link is byte-identical to the one the sim charges for.
#pragma once

#include <cstdint>
#include <vector>

#include "common/buffer.h"
#include "sim/message.h"

namespace wankeeper::rt {

// One value per concrete sim::Message subclass. Append only.
enum class WireType : std::uint16_t {
  // zab/
  kVote = 1,
  kCurrentLeader = 2,
  kFollowerInfo = 3,
  kNewEpoch = 4,
  kAckEpoch = 5,
  kSync = 6,
  kNewLeader = 7,
  kAckNewLeader = 8,
  kUpToDate = 9,
  kObserverInfo = 10,
  kPropose = 11,
  kAck = 12,
  kCommit = 13,
  kInform = 14,
  kPing = 15,
  kPingReply = 16,
  // zk/
  kClientRequest = 32,
  kClientReply = 33,
  kWatchNotify = 34,
  kForwardRequest = 35,
  kRequestError = 36,
  kSessionTouch = 37,
  // wankeeper/
  kWanEnvelope = 64,
  kWanAck = 65,
  kRegister = 66,
  kWanForward = 67,
  kReplicateUp = 68,
  kResyncPull = 69,
  kResyncChunk = 70,
  kWanHeartbeat = 71,
  kRegisterOk = 72,
  kReplicateDown = 73,
  kTokenRecall = 74,
  kWanRequestError = 75,
  kWanHeartbeatReply = 76,
};

// Appends [u16 tag][fields...] — WanEnvelopeMsg recurses for its inners.
// Throws BufferError for a message type outside the codec's inventory.
void encode_into(BufferWriter& w, const sim::Message& m);

// Reads one message written by encode_into. The result is stamped with the
// process-local type_id (via the message factories), so msg_cast dispatch
// works exactly as on sim-built messages. Throws BufferError on a bad tag
// or truncated buffer.
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
