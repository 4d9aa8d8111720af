// dvv/net/message.hpp
//
// Typed wire messages for the replication data plane.
//
// Everything that crosses between replicas — put fan-out, hinted
// handoff, hint delivery and its ack, anti-entropy session initiation —
// is one of these message types, serialized through the same codec the
// clock encodings use (codec/wire.hpp).  The transport layer
// (net/transport.hpp) carries only the encoded bytes, so wire-byte
// metering is the size of real encodings, not a modelled estimate, and
// a fault injector can drop/duplicate/reorder messages without knowing
// what they mean.
//
// Mechanism independence: the sibling-state payloads are carried as the
// key's full codec encoding (the same bytes Replica persists and ships
// today), produced and consumed by the kv layer.  The message layer
// never decodes a clock — which is what keeps one transport serving all
// six causality mechanisms.
//
// The hot message path adds three throughput layers on top of the
// typed messages (see README "Message path"):
//
//   * BatchMsg — a composite frame coalescing several same-destination
//     messages under one header, assembled by SimTransport at delivery
//     time and strict-decoded like every other frame;
//   * MessageView — a non-owning mirror of Message whose string fields
//     are views into the received buffer; the delivery path decodes
//     into views and the kv layer copies bytes only on adoption;
//   * net pools — recycled Message objects, encode buffers and a
//     freelist arena for shared_ptr control blocks, so the steady
//     state allocates nothing per op.  Pool MISSES are observable as
//     the net.alloc.* counters.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "codec/wire.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"

namespace dvv::net {

using NodeId = core::ActorId;

/// Put replication fan-out: merge `state` (the coordinator's post-write
/// encoding of `key`) into the destination replica.
struct ReplicateMsg {
  std::string key;
  std::string state;  ///< codec encoding of the coordinator's Stored
};

/// Hinted handoff stash: park `state` on the destination (a fallback
/// server outside the preference list) on behalf of dead `owner`.
struct HintMsg {
  NodeId owner = 0;
  std::string key;
  std::string state;
};

/// Hint delivery: a fallback holder pushes a parked write home to its
/// recovered `owner` (the destination).  The holder keeps the hint
/// parked until the ack comes back — a delivery lost in flight is
/// retried by the next deliver_hints round, never silently dropped.
struct HintDeliverMsg {
  NodeId owner = 0;
  std::string key;
  std::string state;
};

/// Acknowledges a HintDeliverMsg.  `digest` is the state digest the
/// owner merged; the holder drops its parked hint only if the parked
/// bytes still match, so an ack that raced a newer re-stash of the same
/// (owner, key) cannot erase the newer write.
struct HintAckMsg {
  NodeId owner = 0;
  std::string key;
  std::uint64_t digest = 0;
};

/// Asks the destination to run one digest-based anti-entropy session
/// with the sender (sync/anti_entropy.hpp).  `nonce` pairs the eventual
/// SyncRespMsg with the request at the initiator.
struct SyncReqMsg {
  std::uint64_t nonce = 0;
};

/// Reports a completed session's stats back to the initiator (the
/// fields of sync::SyncStats, flattened for the wire).
struct SyncRespMsg {
  std::uint64_t nonce = 0;
  std::uint64_t rounds = 0;
  std::uint64_t nodes_exchanged = 0;
  std::uint64_t keys_compared = 0;
  std::uint64_t keys_shipped = 0;
  std::uint64_t wire_bytes = 0;
};

// ---- quorum coordination (kv/coordinator.hpp) ------------------------------
//
// The client read/write path as request state machines: a coordinator
// replica scatters read/write requests to its peers and counts distinct
// replies toward an R/W quorum.  `req` is the coordinator-side request
// id (slot | generation); the engine drops late, duplicate and
// stale-generation replies, so these messages are safe to duplicate,
// reorder and delay arbitrarily.

/// Quorum-read scatter: asks the destination for its local state of
/// `key` (answered with a CoordReadRespMsg carrying the same `req`).
struct CoordReadReqMsg {
  std::uint64_t req = 0;
  std::string key;
};

/// Quorum-read reply: the responder's full codec encoding of the key's
/// state (`found` false and empty `state` when it holds nothing).
struct CoordReadRespMsg {
  std::uint64_t req = 0;
  bool found = false;
  std::string state;
};

/// Quorum-write fan-out: merge `state` (the coordinator's post-write
/// encoding of `key`) into the destination — a ReplicateMsg that asks
/// for an ack.
struct CoordWriteReqMsg {
  std::uint64_t req = 0;
  std::string key;
  std::string state;
};

/// Acknowledges a CoordWriteReqMsg: the destination applied the merge.
struct CoordWriteRespMsg {
  std::uint64_t req = 0;
};

// ---- elastic membership (src/membership, kv/cluster.hpp) -------------------
//
// Membership changes travel as typed frames like everything else: a
// joining node asks in with a JoinReqMsg, every minted epoch is
// disseminated as an EpochAnnounceMsg (droppable/partitionable like any
// other message — stale receivers are what the stale-epoch forwarding
// path exists for), and a completed partition transfer is broadcast as
// a TransferDoneMsg so peers can account the rebalance.

/// Asks the destination (a current member) to admit `node` into the
/// ring: the receiving member drives the join through its
/// MembershipTable and answers with an EpochAnnounceMsg broadcast.
struct JoinReqMsg {
  NodeId node = 0;
};

/// Disseminates one minted ring epoch: the epoch number and the full
/// member list it routes over.  `members` is canonical — strictly
/// ascending (sorted, distinct) — and the strict decoder rejects any
/// other order, so a frame cannot smuggle two rings that hash alike.
struct EpochAnnounceMsg {
  std::uint64_t epoch = 0;
  std::vector<NodeId> members;  ///< strictly ascending
};

/// Announces that `owner` finished syncing claimed `partition` for
/// `epoch` (its task reached kOwned): the transfer effort rides along
/// for membership.* accounting at every peer.
struct TransferDoneMsg {
  std::uint64_t epoch = 0;
  std::uint64_t partition = 0;
  NodeId owner = 0;
  std::uint64_t keys_shipped = 0;
  std::uint64_t wire_bytes = 0;
};

/// Composite frame: `count` sub-messages for one destination under one
/// header, each sub-frame a complete encoding of a NON-batch message
/// (no nesting).  SimTransport assembles one per maximal run of
/// consecutive due same-link messages at delivery time, so a tick's
/// fan-out crosses as a single envelope; the strict decoder validates
/// every sub-frame before the batch is accepted, and rejects empty
/// batches, nested batches, sub-frames with trailing bytes, and counts
/// the input cannot hold.
struct BatchMsg {
  std::vector<std::string> frames;  ///< each: full encoding of one sub-message
};

using Message = std::variant<ReplicateMsg, HintMsg, HintDeliverMsg, HintAckMsg,
                             SyncReqMsg, SyncRespMsg, CoordReadReqMsg,
                             CoordReadRespMsg, CoordWriteReqMsg, CoordWriteRespMsg,
                             JoinReqMsg, EpochAnnounceMsg, TransferDoneMsg,
                             BatchMsg>;

// The obs catalog's per-message-type counter axes (sent, delivered,
// decode_reject) must track the Message variant exactly; obs cannot
// include net headers, so the check lives here.
static_assert(std::variant_size_v<Message> == obs::kMessageTypes,
              "net: Message variant and obs::kMessageTypeNames diverged");

// ---- zero-copy views -------------------------------------------------------
//
// MessageView mirrors Message alternative-for-alternative (same order,
// so view.index() == message.index()), with every string field a
// std::string_view into the buffer it was decoded from.  The delivery
// path decodes received frames into views; owned bytes materialize
// only where the kv layer adopts them (replica merge, hint stash).

struct ReplicateView {
  std::string_view key;
  std::string_view state;
};
struct HintView {
  NodeId owner = 0;
  std::string_view key;
  std::string_view state;
};
struct HintDeliverView {
  NodeId owner = 0;
  std::string_view key;
  std::string_view state;
};
struct HintAckView {
  NodeId owner = 0;
  std::string_view key;
  std::uint64_t digest = 0;
};
struct SyncReqView {
  std::uint64_t nonce = 0;
};
struct SyncRespView {
  std::uint64_t nonce = 0;
  std::uint64_t rounds = 0;
  std::uint64_t nodes_exchanged = 0;
  std::uint64_t keys_compared = 0;
  std::uint64_t keys_shipped = 0;
  std::uint64_t wire_bytes = 0;
};
struct CoordReadReqView {
  std::uint64_t req = 0;
  std::string_view key;
};
struct CoordReadRespView {
  std::uint64_t req = 0;
  bool found = false;
  std::string_view state;
};
struct CoordWriteReqView {
  std::uint64_t req = 0;
  std::string_view key;
  std::string_view state;
};
struct CoordWriteRespView {
  std::uint64_t req = 0;
};
struct JoinReqView {
  NodeId node = 0;
};
/// `members` is the raw strictly-ascending varint region (already
/// validated when this view came out of the strict decoder).
struct EpochAnnounceView {
  std::uint64_t epoch = 0;
  std::uint64_t count = 0;
  std::string_view members;
};
struct TransferDoneView {
  std::uint64_t epoch = 0;
  std::uint64_t partition = 0;
  NodeId owner = 0;
  std::uint64_t keys_shipped = 0;
  std::uint64_t wire_bytes = 0;
};
/// `frames` is the raw length-prefixed sub-frame region (already
/// validated when this view came out of the strict decoder).
struct BatchView {
  std::uint64_t count = 0;
  std::string_view frames;
};

using MessageView =
    std::variant<ReplicateView, HintView, HintDeliverView, HintAckView,
                 SyncReqView, SyncRespView, CoordReadReqView, CoordReadRespView,
                 CoordWriteReqView, CoordWriteRespView, JoinReqView,
                 EpochAnnounceView, TransferDoneView, BatchView>;

static_assert(std::variant_size_v<MessageView> == std::variant_size_v<Message>,
              "net: MessageView and Message variants diverged");

// ---- codec -----------------------------------------------------------------
//
// One-byte type tag (the variant index as a varint), then the fields in
// declaration order.  Strings are length-prefixed; ids and digests are
// varints — the exact framing the clock codecs use.

inline void encode(codec::Writer& w, const Message& msg) {
  w.varint(msg.index());
  std::visit(
      [&w](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ReplicateMsg>) {
          w.bytes(m.key);
          w.bytes(m.state);
        } else if constexpr (std::is_same_v<T, HintMsg> ||
                             std::is_same_v<T, HintDeliverMsg>) {
          w.varint(m.owner);
          w.bytes(m.key);
          w.bytes(m.state);
        } else if constexpr (std::is_same_v<T, HintAckMsg>) {
          w.varint(m.owner);
          w.bytes(m.key);
          w.varint(m.digest);
        } else if constexpr (std::is_same_v<T, SyncReqMsg>) {
          w.varint(m.nonce);
        } else if constexpr (std::is_same_v<T, SyncRespMsg>) {
          w.varint(m.nonce);
          w.varint(m.rounds);
          w.varint(m.nodes_exchanged);
          w.varint(m.keys_compared);
          w.varint(m.keys_shipped);
          w.varint(m.wire_bytes);
        } else if constexpr (std::is_same_v<T, CoordReadReqMsg>) {
          w.varint(m.req);
          w.bytes(m.key);
        } else if constexpr (std::is_same_v<T, CoordReadRespMsg>) {
          w.varint(m.req);
          w.varint(m.found ? 1 : 0);
          w.bytes(m.state);
        } else if constexpr (std::is_same_v<T, CoordWriteReqMsg>) {
          w.varint(m.req);
          w.bytes(m.key);
          w.bytes(m.state);
        } else if constexpr (std::is_same_v<T, CoordWriteRespMsg>) {
          w.varint(m.req);
        } else if constexpr (std::is_same_v<T, JoinReqMsg>) {
          w.varint(m.node);
        } else if constexpr (std::is_same_v<T, EpochAnnounceMsg>) {
          w.varint(m.epoch);
          w.varint(m.members.size());
          for (std::size_t i = 0; i < m.members.size(); ++i) {
            // The wire form is canonical-only; encoding an unsorted
            // list would mint bytes the strict decoder rejects.
            DVV_ASSERT_MSG(i == 0 || m.members[i - 1] < m.members[i],
                           "net: epoch members must be strictly ascending");
            w.varint(m.members[i]);
          }
        } else if constexpr (std::is_same_v<T, TransferDoneMsg>) {
          w.varint(m.epoch);
          w.varint(m.partition);
          w.varint(m.owner);
          w.varint(m.keys_shipped);
          w.varint(m.wire_bytes);
        } else {
          static_assert(std::is_same_v<T, BatchMsg>);
          w.varint(m.frames.size());
          for (const std::string& frame : m.frames) w.bytes(frame);
        }
      },
      msg);
}

// Decoding is STRICT — the message layer is the first thing a socket
// front-end will point at hostile bytes, so the decode path follows the
// token.hpp contract: bounds-checked, linear in the received bytes
// (length claims are capped against the remaining input before any
// allocation), canonical-form-only (non-minimal varints and found
// flags outside {0,1} are rejected), and a failure is a status return,
// never an assert.  Successful decode of a full frame therefore
// implies encode_to_bytes reproduces the input byte-for-byte — the
// round-trip property the wire fuzzer pins.
//
// There is ONE parser: try_decode_view.  Owned decode is the view
// parser plus materialize(), so the strict contract cannot drift
// between the zero-copy delivery path and the owned path.

[[nodiscard]] inline bool parse_batch_frames(codec::StrictReader& r,
                                             std::uint64_t count,
                                             std::vector<MessageView>* out);

/// Strict decode of one message from `r`, into non-owning views over
/// the input buffer.  Returns nullopt on any malformation, leaving `r`
/// mid-buffer.  When `tag_out` is non-null it receives the claimed
/// variant index if one was readable and in range (rejection taxonomy
/// for the decode_reject counters), else SIZE_MAX.  `allow_batch`
/// false rejects BatchMsg frames — how sub-frame validation bans
/// nested batches.
[[nodiscard]] inline std::optional<MessageView> try_decode_view(
    codec::StrictReader& r, std::size_t* tag_out = nullptr,
    bool allow_batch = true) {
  if (tag_out != nullptr) *tag_out = SIZE_MAX;
  std::uint64_t tag = 0;
  if (!r.varint(tag)) return std::nullopt;
  if (tag >= std::variant_size_v<MessageView>) return std::nullopt;
  if (tag_out != nullptr) *tag_out = static_cast<std::size_t>(tag);
  switch (tag) {
    case 0: {
      ReplicateView v;
      if (!r.bytes_view(v.key) || !r.bytes_view(v.state)) return std::nullopt;
      return MessageView{v};
    }
    case 1: {
      HintView v;
      if (!r.varint(v.owner) || !r.bytes_view(v.key) || !r.bytes_view(v.state)) {
        return std::nullopt;
      }
      return MessageView{v};
    }
    case 2: {
      HintDeliverView v;
      if (!r.varint(v.owner) || !r.bytes_view(v.key) || !r.bytes_view(v.state)) {
        return std::nullopt;
      }
      return MessageView{v};
    }
    case 3: {
      HintAckView v;
      if (!r.varint(v.owner) || !r.bytes_view(v.key) || !r.varint(v.digest)) {
        return std::nullopt;
      }
      return MessageView{v};
    }
    case 4: {
      SyncReqView v;
      if (!r.varint(v.nonce)) return std::nullopt;
      return MessageView{v};
    }
    case 5: {
      SyncRespView v;
      if (!r.varint(v.nonce) || !r.varint(v.rounds) ||
          !r.varint(v.nodes_exchanged) || !r.varint(v.keys_compared) ||
          !r.varint(v.keys_shipped) || !r.varint(v.wire_bytes)) {
        return std::nullopt;
      }
      return MessageView{v};
    }
    case 6: {
      CoordReadReqView v;
      if (!r.varint(v.req) || !r.bytes_view(v.key)) return std::nullopt;
      return MessageView{v};
    }
    case 7: {
      CoordReadRespView v;
      std::uint64_t found = 0;
      if (!r.varint(v.req) || !r.varint(found)) return std::nullopt;
      if (found > 1) return std::nullopt;  // canonical bool
      v.found = found != 0;
      if (!r.bytes_view(v.state)) return std::nullopt;
      return MessageView{v};
    }
    case 8: {
      CoordWriteReqView v;
      if (!r.varint(v.req) || !r.bytes_view(v.key) || !r.bytes_view(v.state)) {
        return std::nullopt;
      }
      return MessageView{v};
    }
    case 9: {
      CoordWriteRespView v;
      if (!r.varint(v.req)) return std::nullopt;
      return MessageView{v};
    }
    case 10: {
      JoinReqView v;
      if (!r.varint(v.node)) return std::nullopt;
      return MessageView{v};
    }
    case 11: {
      EpochAnnounceView v;
      if (!r.varint(v.epoch) || !r.varint(v.count)) return std::nullopt;
      // A ring is never empty; every member varint costs >= 1 byte, so
      // a count beyond the remaining bytes is an overclaim — reject
      // before walking anything.
      if (v.count == 0 || v.count > r.remaining()) return std::nullopt;
      const std::size_t begin = r.position();
      std::uint64_t prev = 0;
      for (std::uint64_t i = 0; i < v.count; ++i) {
        std::uint64_t member = 0;
        if (!r.varint(member)) return std::nullopt;
        // Canonical form only: strictly ascending ids (sorted AND
        // distinct), so equal member sets have equal encodings.
        if (i > 0 && member <= prev) return std::nullopt;
        prev = member;
      }
      v.members = r.viewed_since(begin);
      return MessageView{v};
    }
    case 12: {
      TransferDoneView v;
      if (!r.varint(v.epoch) || !r.varint(v.partition) || !r.varint(v.owner) ||
          !r.varint(v.keys_shipped) || !r.varint(v.wire_bytes)) {
        return std::nullopt;
      }
      return MessageView{v};
    }
    default: {
      if (!allow_batch) return std::nullopt;  // no nested batches
      BatchView v;
      if (!r.varint(v.count)) return std::nullopt;
      // An empty batch is never framed; a count beyond the remaining
      // bytes is an overclaim (every sub-frame costs >= 2 bytes).
      if (v.count == 0 || v.count > r.remaining()) return std::nullopt;
      const std::size_t begin = r.position();
      if (!parse_batch_frames(r, v.count, nullptr)) return std::nullopt;
      v.frames = r.viewed_since(begin);
      return MessageView{v};
    }
  }
}

/// Validates `count` length-prefixed sub-frames at `r`, each a complete
/// non-batch message with no trailing bytes; collects the decoded views
/// into `out` when non-null.  Linear: fails at the first sub-frame the
/// input cannot hold.
[[nodiscard]] inline bool parse_batch_frames(codec::StrictReader& r,
                                             std::uint64_t count,
                                             std::vector<MessageView>* out) {
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string_view frame;
    if (!r.bytes_view(frame)) return false;
    codec::StrictReader sub(frame.data(), frame.size());
    std::optional<MessageView> view =
        try_decode_view(sub, nullptr, /*allow_batch=*/false);
    if (!view.has_value() || !sub.done()) return false;
    if (out != nullptr) out->push_back(*view);
  }
  return true;
}

/// Strict decode of one complete NON-batch frame (a batch sub-frame, or
/// an owned BatchMsg's stored encoding): one message, every byte
/// consumed.
[[nodiscard]] inline std::optional<MessageView> decode_frame_view(
    std::string_view frame) {
  codec::StrictReader r(frame.data(), frame.size());
  std::optional<MessageView> view =
      try_decode_view(r, nullptr, /*allow_batch=*/false);
  if (!view.has_value() || !r.done()) return std::nullopt;
  return view;
}

/// Owned message from a decoded view: copies every viewed byte range
/// into fresh strings — the one adoption point where the zero-copy
/// path materializes.
[[nodiscard]] inline Message materialize(const MessageView& view) {
  return std::visit(
      [](const auto& v) -> Message {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, ReplicateView>) {
          return ReplicateMsg{std::string(v.key), std::string(v.state)};
        } else if constexpr (std::is_same_v<T, HintView>) {
          return HintMsg{v.owner, std::string(v.key), std::string(v.state)};
        } else if constexpr (std::is_same_v<T, HintDeliverView>) {
          return HintDeliverMsg{v.owner, std::string(v.key), std::string(v.state)};
        } else if constexpr (std::is_same_v<T, HintAckView>) {
          return HintAckMsg{v.owner, std::string(v.key), v.digest};
        } else if constexpr (std::is_same_v<T, SyncReqView>) {
          return SyncReqMsg{v.nonce};
        } else if constexpr (std::is_same_v<T, SyncRespView>) {
          return SyncRespMsg{v.nonce,         v.rounds,       v.nodes_exchanged,
                             v.keys_compared, v.keys_shipped, v.wire_bytes};
        } else if constexpr (std::is_same_v<T, CoordReadReqView>) {
          return CoordReadReqMsg{v.req, std::string(v.key)};
        } else if constexpr (std::is_same_v<T, CoordReadRespView>) {
          return CoordReadRespMsg{v.req, v.found, std::string(v.state)};
        } else if constexpr (std::is_same_v<T, CoordWriteReqView>) {
          return CoordWriteReqMsg{v.req, std::string(v.key), std::string(v.state)};
        } else if constexpr (std::is_same_v<T, CoordWriteRespView>) {
          return CoordWriteRespMsg{v.req};
        } else if constexpr (std::is_same_v<T, JoinReqView>) {
          return JoinReqMsg{v.node};
        } else if constexpr (std::is_same_v<T, EpochAnnounceView>) {
          EpochAnnounceMsg m;
          m.epoch = v.epoch;
          m.members.reserve(static_cast<std::size_t>(v.count));
          codec::StrictReader r(v.members.data(), v.members.size());
          for (std::uint64_t i = 0; i < v.count; ++i) {
            std::uint64_t member = 0;
            const bool ok = r.varint(member);
            DVV_ASSERT_MSG(ok, "net: materializing an unvalidated epoch view");
            m.members.push_back(static_cast<NodeId>(member));
          }
          return m;
        } else if constexpr (std::is_same_v<T, TransferDoneView>) {
          return TransferDoneMsg{v.epoch, v.partition, v.owner, v.keys_shipped,
                                 v.wire_bytes};
        } else {
          static_assert(std::is_same_v<T, BatchView>);
          BatchMsg m;
          m.frames.reserve(static_cast<std::size_t>(v.count));
          codec::StrictReader r(v.frames.data(), v.frames.size());
          for (std::uint64_t i = 0; i < v.count; ++i) {
            std::string_view frame;
            const bool ok = r.bytes_view(frame);
            DVV_ASSERT_MSG(ok, "net: materializing an unvalidated batch view");
            m.frames.emplace_back(frame);
          }
          return m;
        }
      },
      view);
}

/// Non-owning view of an owned message (string fields become views into
/// the message's own strings — valid while `msg` lives).  BatchMsg and
/// EpochAnnounceMsg are excluded: their view forms are contiguous wire
/// regions an owned frame list / member vector does not have; consumers
/// iterate the owned fields directly.
[[nodiscard]] inline MessageView as_view(const Message& msg) {
  return std::visit(
      [](const auto& m) -> MessageView {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ReplicateMsg>) {
          return ReplicateView{m.key, m.state};
        } else if constexpr (std::is_same_v<T, HintMsg>) {
          return HintView{m.owner, m.key, m.state};
        } else if constexpr (std::is_same_v<T, HintDeliverMsg>) {
          return HintDeliverView{m.owner, m.key, m.state};
        } else if constexpr (std::is_same_v<T, HintAckMsg>) {
          return HintAckView{m.owner, m.key, m.digest};
        } else if constexpr (std::is_same_v<T, SyncReqMsg>) {
          return SyncReqView{m.nonce};
        } else if constexpr (std::is_same_v<T, SyncRespMsg>) {
          return SyncRespView{m.nonce,         m.rounds,       m.nodes_exchanged,
                              m.keys_compared, m.keys_shipped, m.wire_bytes};
        } else if constexpr (std::is_same_v<T, CoordReadReqMsg>) {
          return CoordReadReqView{m.req, m.key};
        } else if constexpr (std::is_same_v<T, CoordReadRespMsg>) {
          return CoordReadRespView{m.req, m.found, m.state};
        } else if constexpr (std::is_same_v<T, CoordWriteReqMsg>) {
          return CoordWriteReqView{m.req, m.key, m.state};
        } else if constexpr (std::is_same_v<T, CoordWriteRespMsg>) {
          return CoordWriteRespView{m.req};
        } else if constexpr (std::is_same_v<T, JoinReqMsg>) {
          return JoinReqView{m.node};
        } else if constexpr (std::is_same_v<T, TransferDoneMsg>) {
          return TransferDoneView{m.epoch, m.partition, m.owner, m.keys_shipped,
                                  m.wire_bytes};
        } else {
          static_assert(std::is_same_v<T, BatchMsg> ||
                        std::is_same_v<T, EpochAnnounceMsg>);
          DVV_ASSERT_MSG(false, "net: as_view has no batch/epoch-announce form");
          return SyncReqView{};  // unreachable
        }
      },
      msg);
}

/// Strict decode of one OWNED message from `r` — the view parser plus
/// materialize, so both decode forms share one implementation.
[[nodiscard]] inline std::optional<Message> try_decode_message(
    codec::StrictReader& r, std::size_t* tag_out = nullptr) {
  std::optional<MessageView> view = try_decode_view(r, tag_out);
  if (!view.has_value()) return std::nullopt;
  return materialize(*view);
}

/// Strict decode of a full transport payload: one message consuming
/// every byte.  Trailing bytes, truncation, unknown tags and
/// non-canonical encodings all return nullopt.  `tag_out` as above.
[[nodiscard]] inline std::optional<Message> try_decode_from_bytes(
    std::string_view bytes, std::size_t* tag_out = nullptr) {
  codec::StrictReader r(bytes.data(), bytes.size());
  std::optional<Message> msg = try_decode_message(r, tag_out);
  if (!msg.has_value() || !r.done()) return std::nullopt;
  return msg;
}

namespace detail {

template <typename T, typename... Ts>
[[nodiscard]] constexpr std::size_t variant_index_of(const std::variant<Ts...>*) {
  constexpr bool matches[] = {std::is_same_v<T, Ts>...};
  for (std::size_t i = 0; i < sizeof...(Ts); ++i) {
    if (matches[i]) return i;
  }
  return std::variant_npos;
}

}  // namespace detail

/// `T`'s wire tag (its Message variant index), at compile time.
template <typename T>
inline constexpr std::size_t kMessageTagOf =
    detail::variant_index_of<T>(static_cast<const Message*>(nullptr));

/// Exact codec size of a STATICALLY-known alternative — wire_size's
/// arithmetic with the variant dispatch compiled away.  Fan-out
/// senders that just filled a typed slot use this to compute the
/// size_hint they pass along with the borrowed message, so the
/// transport never re-walks the variant (SimTransport asserts the hint
/// against the real encoding, which keeps this table honest).
template <typename T>
[[nodiscard]] inline std::size_t wire_size_of(const T& m) {
  static_assert(kMessageTagOf<T> != std::variant_npos);
  const auto bytes_size = [](const std::string& s) {
    return codec::varint_size(s.size()) + s.size();
  };
  std::size_t n = codec::varint_size(kMessageTagOf<T>);
  if constexpr (std::is_same_v<T, ReplicateMsg>) {
    n += bytes_size(m.key) + bytes_size(m.state);
  } else if constexpr (std::is_same_v<T, HintMsg> ||
                       std::is_same_v<T, HintDeliverMsg>) {
    n += codec::varint_size(m.owner) + bytes_size(m.key) + bytes_size(m.state);
  } else if constexpr (std::is_same_v<T, HintAckMsg>) {
    n += codec::varint_size(m.owner) + bytes_size(m.key) +
         codec::varint_size(m.digest);
  } else if constexpr (std::is_same_v<T, SyncReqMsg>) {
    n += codec::varint_size(m.nonce);
  } else if constexpr (std::is_same_v<T, SyncRespMsg>) {
    n += codec::varint_size(m.nonce) + codec::varint_size(m.rounds) +
         codec::varint_size(m.nodes_exchanged) +
         codec::varint_size(m.keys_compared) +
         codec::varint_size(m.keys_shipped) + codec::varint_size(m.wire_bytes);
  } else if constexpr (std::is_same_v<T, CoordReadReqMsg>) {
    n += codec::varint_size(m.req) + bytes_size(m.key);
  } else if constexpr (std::is_same_v<T, CoordReadRespMsg>) {
    n += codec::varint_size(m.req) + codec::varint_size(m.found ? 1 : 0) +
         bytes_size(m.state);
  } else if constexpr (std::is_same_v<T, CoordWriteReqMsg>) {
    n += codec::varint_size(m.req) + bytes_size(m.key) + bytes_size(m.state);
  } else if constexpr (std::is_same_v<T, CoordWriteRespMsg>) {
    n += codec::varint_size(m.req);
  } else if constexpr (std::is_same_v<T, JoinReqMsg>) {
    n += codec::varint_size(m.node);
  } else if constexpr (std::is_same_v<T, EpochAnnounceMsg>) {
    n += codec::varint_size(m.epoch) + codec::varint_size(m.members.size());
    for (const NodeId id : m.members) n += codec::varint_size(id);
  } else if constexpr (std::is_same_v<T, TransferDoneMsg>) {
    n += codec::varint_size(m.epoch) + codec::varint_size(m.partition) +
         codec::varint_size(m.owner) + codec::varint_size(m.keys_shipped) +
         codec::varint_size(m.wire_bytes);
  } else {
    static_assert(std::is_same_v<T, BatchMsg>);
    n += codec::varint_size(m.frames.size());
    for (const std::string& frame : m.frames) n += bytes_size(frame);
  }
  return n;
}

/// Exact size of `msg`'s codec encoding, computed without building the
/// bytes.  Envelopes are metered with this so the inline transport's
/// zero-copy fast path charges the same wire bytes the byte-faithful
/// SimTransport pays for real (it asserts the two agree).
[[nodiscard]] inline std::size_t wire_size(const Message& msg) {
  return std::visit([](const auto& m) { return wire_size_of(m); }, msg);
}

/// Encodes `msg` into `out` via a persistent scratch writer: once both
/// are warm (capacity >= frame size) this allocates nothing.
inline void encode_into(const Message& msg, std::string& out) {
  static thread_local codec::Writer scratch;  // freed at thread exit
  scratch.clear();
  encode(scratch, msg);
  out.assign(reinterpret_cast<const char*>(scratch.buffer().data()),
             scratch.size());
}

/// Encodes `msg` to the byte string a Transport carries.
[[nodiscard]] inline std::string encode_to_bytes(const Message& msg) {
  codec::Writer w;
  encode(w, msg);
  return std::string(reinterpret_cast<const char*>(w.buffer().data()), w.size());
}

/// Decodes a payload the process framed itself (tests, loopback
/// round-trips): same strict parse, but failure asserts — on bytes of
/// local provenance a malformed frame is a bug, not an input error.
/// Bytes of foreign provenance go through decode_or_reject instead.
[[nodiscard]] inline Message decode_from_bytes(const std::string& bytes) {
  std::optional<Message> msg = try_decode_from_bytes(bytes);
  DVV_ASSERT_MSG(msg.has_value(), "net: malformed self-framed message");
  return *std::move(msg);
}

/// Rejection accounting shared by the untrusted-boundary decoders:
/// bumps net.decode_reject plus the per-type taxonomy counter
/// (net.decode_reject.<type> when a plausible type tag was readable,
/// net.decode_reject.unknown otherwise).
inline void note_decode_reject(std::size_t tag) {
  obs::NetMetrics& m = obs::net_metrics();
  m.decode_reject.inc();
  if (tag < obs::kMessageTypes) {
    m.decode_reject_by_type[tag].inc();
  } else {
    m.decode_reject_unknown.inc();
  }
}

/// The untrusted-boundary entry point: strict decode plus rejection
/// accounting.  On failure bumps the decode_reject taxonomy and returns
/// nullopt — the caller drops the frame; no malformed input can abort.
[[nodiscard]] inline std::optional<Message> decode_or_reject(
    std::string_view bytes) {
  std::size_t tag = SIZE_MAX;
  std::optional<Message> msg = try_decode_from_bytes(bytes, &tag);
  if (!msg.has_value()) note_decode_reject(tag);
  return msg;
}

/// Zero-copy untrusted-boundary decode: views over `bytes` (which must
/// outlive the returned view), same strictness and rejection accounting
/// as decode_or_reject.
[[nodiscard]] inline std::optional<MessageView> decode_view_or_reject(
    std::string_view bytes) {
  std::size_t tag = SIZE_MAX;
  codec::StrictReader r(bytes.data(), bytes.size());
  std::optional<MessageView> view = try_decode_view(r, &tag);
  if (view.has_value() && r.done()) return view;
  note_decode_reject(tag);
  return std::nullopt;
}

/// Strict decode of a full BatchMsg frame into its ordered sub-views
/// (appended to `out`; views alias `bytes`).  Returns false — with `out`
/// restored — on anything that is not a well-formed batch.  No
/// rejection accounting: the caller (SimTransport's coalescer) falls
/// back to delivering the sub-frames individually, where each failure
/// is counted exactly as an unbatched delivery would count it.
[[nodiscard]] inline bool try_decode_batch_views(
    std::string_view bytes, std::vector<MessageView>& out) {
  const std::size_t mark = out.size();
  codec::StrictReader r(bytes.data(), bytes.size());
  std::uint64_t tag = 0;
  std::uint64_t count = 0;
  if (r.varint(tag) && tag == std::variant_size_v<Message> - 1 &&
      r.varint(count) && count > 0 && count <= r.remaining() &&
      parse_batch_frames(r, count, &out) && r.done()) {
    return true;
  }
  out.resize(mark);
  return false;
}

// ---- pooled messages and encode buffers ------------------------------------
//
// The net pools: recycled Message instances (alternative-affine —
// LIFO reuse hands homogeneous traffic an object that already holds
// the right alternative, so field assignment reuses string capacity),
// recycled encode buffers, and a freelist arena for the shared_ptr
// control blocks and SimTransport queue nodes the standard library
// would otherwise heap-allocate per message.
//
// Each thread owns one NetPools, and pooled objects never cross
// threads.  The pools are reference-counted: the thread holds one
// reference until it exits, and every NetAllocator copy holds one —
// each pooled handle's control block and each arena-backed container
// carries one.  So the pools are freed when their thread exits or,
// if a handle or container outlives the thread, when the last one
// goes; a handle is never released into a freed pool.
//
// Pool misses surface as net.alloc.{messages,encode_buffers,envelopes}.

struct NetPools {
  util::FreelistArena arena;
  util::RecyclePool<Message> messages;
  util::RecyclePool<std::string> buffers;
  std::size_t refs = 1;  ///< thread-confined like the pools: a plain count

  NetPools() {
    arena.set_miss_hook([] { obs::net_metrics().alloc_envelopes.inc(); });
    messages.set_miss_hook([] { obs::net_metrics().alloc_messages.inc(); });
    buffers.set_miss_hook([] { obs::net_metrics().alloc_encode_buffers.inc(); });
  }

  void unref() noexcept {
    if (--refs == 0) destroy();
  }

 private:
  // Out of line so that inlined allocator copies and destructors do not
  // show GCC's -Wuse-after-free analysis a delete it cannot prove is
  // the last reference.
  [[gnu::noinline]] void destroy() noexcept { delete this; }
};

/// The calling thread's pools.
[[nodiscard]] inline NetPools& net_pools() {
  struct ThreadRef {
    NetPools* pools = new NetPools;
    ThreadRef() = default;
    ThreadRef(const ThreadRef&) = delete;
    ThreadRef& operator=(const ThreadRef&) = delete;
    ~ThreadRef() { pools->unref(); }  // thread exit
  };
  static thread_local ThreadRef ref;
  return *ref.pools;
}

/// std-allocator over a NetPools arena, for the fixed-size nodes the
/// standard library allocates behind the hot path's back (shared_ptr
/// control blocks, SimTransport queue nodes).  Every copy keeps the
/// pools alive.
template <typename T>
class NetAllocator {
 public:
  using value_type = T;

  explicit NetAllocator(NetPools& pools) noexcept : pools_(&pools) { ++pools_->refs; }
  NetAllocator(const NetAllocator& other) noexcept : pools_(other.pools_) {
    ++pools_->refs;
  }
  template <typename U>
  NetAllocator(const NetAllocator<U>& other) noexcept  // NOLINT(google-explicit-constructor)
      : pools_(&other.pools()) {
    ++pools_->refs;
  }
  NetAllocator& operator=(const NetAllocator& other) noexcept {
    if (this != &other) {
      ++other.pools_->refs;
      pools_->unref();
      pools_ = other.pools_;
    }
    return *this;
  }
  ~NetAllocator() { pools_->unref(); }

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(pools_->arena.allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    pools_->arena.deallocate(p, n * sizeof(T));
  }

  [[nodiscard]] NetPools& pools() const noexcept { return *pools_; }

  template <typename U>
  [[nodiscard]] bool operator==(const NetAllocator<U>& other) const noexcept {
    return pools_ == &other.pools();
  }

 private:
  NetPools* pools_;
};

/// shared_ptr deleter that parks the Message back in the pool it came
/// from, un-destructed, so its strings keep their capacity for the
/// next use.  (The control block's allocator keeps that pool alive.)
struct MessageRecycler {
  NetPools* pools;
  void operator()(const Message* p) const noexcept {
    pools->messages.release(const_cast<Message*>(p));
  }
};

struct BufferRecycler {
  NetPools* pools;
  void operator()(const std::string* p) const noexcept {
    pools->buffers.release(const_cast<std::string*>(p));
  }
};

/// A recycled Message holding alternative T: `fill` assigns its fields
/// in place (string assignment onto a recycled same-alternative object
/// reuses capacity), and the returned handle's control block comes from
/// the arena — zero per-op allocations once the pools are warm.
template <typename T, typename Fill>
[[nodiscard]] std::shared_ptr<const Message> pooled_message(Fill&& fill) {
  NetPools& pools = net_pools();
  Message* slot = pools.messages.acquire();
  if (!std::holds_alternative<T>(*slot)) slot->emplace<T>();
  fill(std::get<T>(*slot));
  return std::shared_ptr<const Message>(slot, MessageRecycler{&pools},
                                        NetAllocator<Message>(pools));
}

/// Wraps an already-built message in a recycled slot (the by-value
/// Transport::send convenience path).
[[nodiscard]] inline std::shared_ptr<const Message> pooled_message(Message&& msg) {
  NetPools& pools = net_pools();
  Message* slot = pools.messages.acquire();
  *slot = std::move(msg);
  return std::shared_ptr<const Message>(slot, MessageRecycler{&pools},
                                        NetAllocator<Message>(pools));
}

/// Fills a caller-kept Message slot with alternative T in place.
/// Alternative-affine like the pooled path: a same-alternative refill
/// assigns fields onto the previous occupant, so string capacity is
/// reused.  Pairs with borrow_message for the zero-overhead send idiom.
template <typename T, typename Fill>
const Message& fill_message(Message& slot, Fill&& fill) {
  if (!std::holds_alternative<T>(slot)) slot.emplace<T>();
  fill(std::get<T>(slot));
  return slot;
}

/// Non-owning handle over a caller-kept message: the aliasing
/// constructor with an empty owner yields a shared_ptr with NO control
/// block, so creating and copying it costs two pointer stores — no
/// allocation, no refcount traffic.  The caller must keep `msg` alive
/// and unmodified until the send completes (synchronous delivery
/// included) and the delivery sink must not retain the envelope's msg
/// beyond the sink call — the same lifetime contract as
/// Envelope::decoded.  Senders that cannot promise that (or whose
/// sinks retain messages) use pooled_message instead.
[[nodiscard]] inline std::shared_ptr<const Message> borrow_message(
    const Message& msg) {
  return {std::shared_ptr<const void>{}, &msg};
}

/// A recycled encode buffer (cleared, capacity retained) with an
/// arena-backed control block.  SimTransport's wire bytes live in
/// these; duplicates share one buffer by sharing the handle.
[[nodiscard]] inline std::shared_ptr<std::string> pooled_buffer() {
  NetPools& pools = net_pools();
  std::string* s = pools.buffers.acquire();
  s->clear();
  return std::shared_ptr<std::string>(s, BufferRecycler{&pools},
                                      NetAllocator<std::string>(pools));
}

}  // namespace dvv::net
