// The hardened wire-decode boundary (net/message.hpp).
//
// PR 7 moved peer-frame decoding from the asserting codec::Reader to
// codec::StrictReader: malformed bytes come back std::nullopt, never an
// abort — these are the first bytes a hostile peer will control once a
// socket fronts the transport.  This suite pins the contract the fuzz
// harnesses (tests/fuzz/) explore probabilistically:
//
//   * every message type round-trips through the strict decode, and the
//     accepted form is canonical (re-encode == input, wire_size == len);
//   * every strict prefix of a valid frame is rejected, as are trailing
//     garbage, unknown tags, non-canonical varints and non-{0,1} bools;
//   * decode_or_reject's rejection taxonomy: net.decode_reject plus the
//     per-type counter when the tag was readable, .unknown otherwise;
//   * SimTransport drops injected garbage at delivery (decode_rejected)
//     without aborting, and still delivers well-formed injected frames.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "net/sim_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace {

using namespace dvv::net;

/// One specimen of every message type, with realistic payloads.
std::vector<Message> specimens() {
  const std::string state = "\x03opaque-state-bytes";
  return {
      ReplicateMsg{"cart", state},
      HintMsg{2, "cart", state},
      HintDeliverMsg{3, "k", state},
      HintAckMsg{2, "cart", 0x1122334455667788ULL},
      SyncReqMsg{42},
      SyncRespMsg{42, 3, 17, 9, 2, 4096},
      CoordReadReqMsg{5, "cart"},
      CoordReadRespMsg{5, true, state},
      CoordWriteReqMsg{6, "cart", state},
      CoordWriteRespMsg{6},
      JoinReqMsg{7},
      EpochAnnounceMsg{3, {0, 1, 2, 7}},
      TransferDoneMsg{3, 0x9ae16a3bULL, 7, 12, 4096},
  };
}

TEST(NetDecode, EveryTypeRoundTripsCanonically) {
  for (const Message& msg : specimens()) {
    const std::string bytes = encode_to_bytes(msg);
    const std::optional<Message> decoded = try_decode_from_bytes(bytes);
    ASSERT_TRUE(decoded.has_value()) << "type index " << msg.index();
    EXPECT_EQ(decoded->index(), msg.index());
    EXPECT_EQ(encode_to_bytes(*decoded), bytes)
        << "accepted frame not canonical, type index " << msg.index();
    EXPECT_EQ(wire_size(*decoded), bytes.size());
  }
}

TEST(NetDecode, EveryStrictPrefixIsRejected) {
  // LEB128 makes valid frames prefix-free: truncating mid-varint leaves
  // a continuation bit dangling, truncating a bytes field breaks its
  // length claim, and a fully-read frame with fields missing fails the
  // field count.  No prefix may decode — a torn TCP read must never
  // alias a shorter valid message.
  for (const Message& msg : specimens()) {
    const std::string bytes = encode_to_bytes(msg);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(try_decode_from_bytes(bytes.substr(0, len)).has_value())
          << "type index " << msg.index() << " accepted prefix of " << len
          << "/" << bytes.size() << " bytes";
    }
  }
}

TEST(NetDecode, RejectsTrailingGarbage) {
  for (const Message& msg : specimens()) {
    const std::string bytes = encode_to_bytes(msg) + '\0';
    EXPECT_FALSE(try_decode_from_bytes(bytes).has_value())
        << "type index " << msg.index() << " accepted a trailing byte";
  }
}

TEST(NetDecode, RejectsUnknownTag) {
  EXPECT_FALSE(try_decode_from_bytes(std::string(1, '\x63')).has_value());
  // 0x0e is the first out-of-range tag (0x0d is BatchMsg now — a bare
  // tag with no count is rejected as a truncated batch, not unknown).
  EXPECT_FALSE(try_decode_from_bytes(std::string(1, '\x0e')).has_value());
  EXPECT_FALSE(try_decode_from_bytes(std::string(1, '\x0d')).has_value());
}

TEST(NetDecode, RejectsMalformedEpochAnnounce) {
  // Tag 11 = EpochAnnounceMsg{epoch, count, members...}.  The member
  // list is the first variable-count field a peer controls: every
  // malformed shape must come back nullopt, never assert.
  const auto reject = [](const std::string& body) {
    EXPECT_FALSE(try_decode_from_bytes('\x0b' + body).has_value()) << body;
  };
  reject(std::string("\x03\x00", 2));              // empty member list
  reject(std::string("\x03\x02\x01\x01", 4));      // duplicate members
  reject(std::string("\x03\x02\x02\x01", 4));      // unsorted members
  reject(std::string("\x03\x09\x00\x01", 4));      // count overclaims bytes
  reject(std::string("\x03\x02\x00", 3));          // truncated member list
  // The canonical form is accepted and round-trips.
  const std::string good('\x0b' + std::string("\x03\x03\x00\x01\x07", 5));
  const std::optional<Message> ok = try_decode_from_bytes(good);
  ASSERT_TRUE(ok.has_value());
  const auto& m = std::get<EpochAnnounceMsg>(*ok);
  EXPECT_EQ(m.epoch, 3u);
  EXPECT_EQ(m.members, (std::vector<NodeId>{0, 1, 7}));
  EXPECT_EQ(encode_to_bytes(*ok), good);
}

TEST(NetDecode, RejectsTruncatedMembershipFrames) {
  // JoinReq (tag 10) with no node; TransferDone (tag 12) cut after the
  // partition field.
  EXPECT_FALSE(try_decode_from_bytes(std::string(1, '\x0a')).has_value());
  EXPECT_FALSE(
      try_decode_from_bytes(std::string("\x0c\x03\x2a", 3)).has_value());
}

TEST(NetDecode, RejectsNonCanonicalVarint) {
  // Tag 4 = SyncReqMsg.  [0x80 0x00] is 0 encoded with a padding byte —
  // a lenient LEB128 reader accepts it, the strict decode must not
  // (two wire forms for one value breaks canonical round-trips).
  EXPECT_FALSE(
      try_decode_from_bytes(std::string("\x04\x80\x00", 3)).has_value());
  // The minimal encoding of the same frame is accepted.
  const std::optional<Message> ok =
      try_decode_from_bytes(std::string("\x04\x00", 2));
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(std::holds_alternative<SyncReqMsg>(*ok));
}

TEST(NetDecode, RejectsNonCanonicalBool) {
  // Tag 7 = CoordReadRespMsg{req, found, state}: found must be 0 or 1.
  EXPECT_TRUE(
      try_decode_from_bytes(std::string("\x07\x05\x01\x00", 4)).has_value());
  EXPECT_FALSE(
      try_decode_from_bytes(std::string("\x07\x05\x02\x00", 4)).has_value());
}

TEST(NetDecode, RejectsHugeLengthClaim) {
  // ReplicateMsg (tag 0) whose key claims ~4 GiB against one actual
  // byte: StrictReader caps length claims by the bytes that exist, so
  // rejection happens before any allocation.
  std::string bytes(1, '\x00');
  bytes += std::string("\xff\xff\xff\xff\x0f", 5);  // varint 0xFFFFFFFF
  bytes += 'x';
  EXPECT_FALSE(try_decode_from_bytes(bytes).has_value());
}

TEST(NetDecode, RejectTaxonomyCounters) {
  dvv::obs::Registry& reg = dvv::obs::registry();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);

#if !defined(DVV_OBS_DISABLED)
  const auto count = [&reg](const std::string& name) {
    return reg.counter_value(name);
  };
  const std::uint64_t base_total = count("net.decode_reject");
  const std::uint64_t base_replicate = count("net.decode_reject.replicate");
  const std::uint64_t base_unknown = count("net.decode_reject.unknown");
#endif

  // Readable tag, malformed body: total + per-type counter.
  const std::string torn = encode_to_bytes(specimens()[0]).substr(0, 3);
  EXPECT_FALSE(decode_or_reject(torn).has_value());
#if !defined(DVV_OBS_DISABLED)
  EXPECT_EQ(count("net.decode_reject"), base_total + 1);
  EXPECT_EQ(count("net.decode_reject.replicate"), base_replicate + 1);
#endif

  // Unreadable / out-of-range tag: total + .unknown.
  EXPECT_FALSE(decode_or_reject(std::string(1, '\x63')).has_value());
  EXPECT_FALSE(decode_or_reject(std::string()).has_value());
#if !defined(DVV_OBS_DISABLED)
  EXPECT_EQ(count("net.decode_reject"), base_total + 3);
  EXPECT_EQ(count("net.decode_reject.unknown"), base_unknown + 2);
#endif

  // A clean decode bumps nothing.
  EXPECT_TRUE(decode_or_reject(encode_to_bytes(specimens()[0])).has_value());
#if !defined(DVV_OBS_DISABLED)
  EXPECT_EQ(count("net.decode_reject"), base_total + 3);
#endif

  reg.set_enabled(was_enabled);
}

TEST(NetDecode, SimTransportDropsInjectedGarbageAtDelivery) {
  SimTransport transport{SimTransportConfig{}};
  std::size_t delivered = 0;
  std::size_t replicate_seen = 0;
  // SimTransport delivers zero-copy views (Envelope::view); the garbage
  // riding the same tick also exercises the batch assembler's fallback
  // to per-frame delivery.
  transport.set_sink([&](const Envelope& envelope) {
    ++delivered;
    if (envelope.view != nullptr &&
        std::holds_alternative<ReplicateView>(*envelope.view)) {
      ++replicate_seen;
    }
  });

  // Garbage, a torn frame, and one well-formed frame, all injected as
  // raw bytes (the future socket's arrival path).
  transport.inject_raw(1, 2, std::string("\x80\x80\x80", 3));
  transport.inject_raw(1, 2, encode_to_bytes(specimens()[0]).substr(0, 2));
  transport.inject_raw(1, 2, encode_to_bytes(specimens()[0]));
  for (int tick = 0; tick < 8; ++tick) (void)transport.pump();

  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(replicate_seen, 1u);
  EXPECT_EQ(transport.stats().sent, 3u);
  EXPECT_EQ(transport.stats().decode_rejected, 2u);
  EXPECT_EQ(transport.stats().delivered, 1u);
}

}  // namespace
