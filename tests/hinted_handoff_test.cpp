// Tests for hinted handoff (Dynamo's sloppy quorum) over the DVV
// mechanism: writes park on fallback servers while owners are down and
// flow home on recovery — with full causality metadata, so delivery is
// a plain sync and can never reorder, duplicate or resurrect anything.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "kv/client.hpp"
#include "kv/cluster.hpp"
#include "kv/mechanism.hpp"
#include "routed_write.hpp"

namespace {

using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::DvvMechanism;
using dvv::kv::Key;
using dvv::kv::ReplicaId;

ClusterConfig config() {
  ClusterConfig cfg;
  cfg.servers = 6;
  cfg.replication = 3;
  cfg.vnodes = 32;
  return cfg;
}

TEST(HintedHandoff, NoDeadOwnersMeansNoHints) {
  Cluster<DvvMechanism> cluster(config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  cluster.put(key, dvv::kv::client_actor(0), {}, "v", dvv::test::handoff(pref[0]));
  EXPECT_EQ(cluster.hinted_count(), 0u);
  for (const auto r : pref) EXPECT_TRUE(cluster.get(key, r).found);
}

TEST(HintedHandoff, DeadOwnerGetsAHintParkedElsewhere) {
  Cluster<DvvMechanism> cluster(config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  cluster.replica(pref[2]).set_alive(false);

  cluster.put(key, dvv::kv::client_actor(0), {}, "v", dvv::test::handoff(pref[0]));
  EXPECT_EQ(cluster.hinted_count(), 1u);
  EXPECT_FALSE(cluster.get(key, pref[2]).found) << "owner is down";
  // The hint does not serve reads anywhere (non-owners don't expose it).
  for (ReplicaId r = 0; r < 6; ++r) {
    if (r == pref[0] || r == pref[1]) continue;
    EXPECT_FALSE(cluster.get(key, r).found) << "replica " << r;
  }
}

TEST(HintedHandoff, DeliveryAfterRecoveryFillsTheOwner) {
  Cluster<DvvMechanism> cluster(config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  cluster.replica(pref[2]).set_alive(false);
  cluster.put(key, dvv::kv::client_actor(0), {}, "v", dvv::test::handoff(pref[0]));

  // While the owner is down, delivery is a no-op.
  EXPECT_EQ(cluster.deliver_hints(), 0u);
  EXPECT_EQ(cluster.hinted_count(), 1u);

  cluster.replica(pref[2]).set_alive(true);
  EXPECT_EQ(cluster.deliver_hints(), 1u);
  EXPECT_EQ(cluster.hinted_count(), 0u);
  const auto got = cluster.get(key, pref[2]);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(got.values[0], "v");
}

TEST(HintedHandoff, LateDeliveryCannotResurrectOverwrittenData) {
  Cluster<DvvMechanism> cluster(config(), {});
  dvv::kv::ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  const Key key = "k";
  const auto pref = cluster.preference_list(key);

  // v1 written while pref[2] is down: hint parked.
  cluster.replica(pref[2]).set_alive(false);
  alice.get(key);
  const auto ctx1 = alice.context_for(key);
  cluster.put(key, alice.id(), ctx1, "v1", dvv::test::handoff(pref[0]));
  ASSERT_EQ(cluster.hinted_count(), 1u);

  // v1 is then overwritten by v2 (owner still down; another hint).
  alice.get(key);
  const auto ctx2 = alice.context_for(key);
  cluster.put(key, alice.id(), ctx2, "v2", dvv::test::handoff(pref[0]));

  // Owner recovers; the (merged) hint arrives late.
  cluster.replica(pref[2]).set_alive(true);
  cluster.deliver_hints();
  const auto got = cluster.get(key, pref[2]);
  ASSERT_TRUE(got.found);
  ASSERT_EQ(got.values.size(), 1u) << "v1 must not survive next to v2";
  EXPECT_EQ(got.values[0], "v2");
}

TEST(HintedHandoff, ConcurrentHintsMergeAsSiblingsAtTheOwner) {
  Cluster<DvvMechanism> cluster(config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  cluster.replica(pref[2]).set_alive(false);

  // Two blind racing writes through different coordinators, both hinted.
  cluster.put(key, dvv::kv::client_actor(0), {}, "x", dvv::test::handoff(pref[0]));
  cluster.put(key, dvv::kv::client_actor(1), {}, "y", dvv::test::handoff(pref[1]));

  cluster.replica(pref[2]).set_alive(true);
  cluster.deliver_hints();
  const auto got = cluster.get(key, pref[2]);
  ASSERT_TRUE(got.found);
  const std::set<std::string> values(got.values.begin(), got.values.end());
  EXPECT_EQ(values, (std::set<std::string>{"x", "y"}))
      << "both racing writes reach the recovered owner as siblings";
}

TEST(HintedHandoff, RepeatedDeliveryIsIdempotent) {
  Cluster<DvvMechanism> cluster(config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  cluster.replica(pref[2]).set_alive(false);
  cluster.put(key, dvv::kv::client_actor(0), {}, "v", dvv::test::handoff(pref[0]));
  cluster.replica(pref[2]).set_alive(true);
  cluster.deliver_hints();
  const auto before = cluster.footprint();
  cluster.deliver_hints();  // nothing parked: no-op
  EXPECT_EQ(cluster.hinted_count(), 0u);
  const auto after = cluster.footprint();
  EXPECT_EQ(before.siblings, after.siblings);
}

// Regression (a crashed server must not push writes): hints parked on a
// fallback that is itself down stay parked — delivery happens only once
// the FALLBACK is back, even if the owner recovered long before.
TEST(HintedHandoff, DeadFallbackDoesNotPushParkedHints) {
  Cluster<DvvMechanism> cluster(config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  const auto order = cluster.ring().ring_order(key);
  const ReplicaId fallback = order[3];

  cluster.replica(pref[2]).set_alive(false);
  cluster.put(key, dvv::kv::client_actor(0), {}, "v", dvv::test::handoff(pref[0]));
  ASSERT_EQ(cluster.replica(fallback).hinted_count(), 1u);

  cluster.replica(fallback).set_alive(false);  // the fallback dies too
  cluster.replica(pref[2]).set_alive(true);    // the owner returns

  EXPECT_EQ(cluster.deliver_hints(), 0u) << "dead holder cannot push";
  EXPECT_EQ(cluster.hinted_count(), 1u);
  EXPECT_FALSE(cluster.get(key, pref[2]).found)
      << "the write must not teleport off a crashed fallback";

  cluster.replica(fallback).set_alive(true);
  EXPECT_EQ(cluster.deliver_hints(), 1u);
  EXPECT_EQ(cluster.hinted_count(), 0u);
  EXPECT_TRUE(cluster.get(key, pref[2]).found);
}

// Satellite semantics pin: parked hints are VISIBLE to anti-entropy.
// When every owner that saw a write crashes and loses it, the write
// survives only inside a fallback's parked hint — an AAE round folds it
// back into the alive owners, while the hint itself stays parked for
// its (long-dead) owner until that owner actually returns.
TEST(HintedHandoff, AaeFoldsParkedHintsIntoAliveOwners) {
  auto scenario = [] {
    ClusterConfig cfg = config();
    // The point is LOSING the owners' copies: pin the no-durability
    // backend even when the suite runs with DVV_STORE_BACKEND=wal.
    cfg.storage.kind = dvv::store::BackendKind::kMem;
    Cluster<DvvMechanism> cluster(cfg, {});
    const Key key = "k";
    const auto pref = cluster.preference_list(key);
    cluster.replica(pref[2]).set_alive(false);  // long-dead owner
    cluster.put(key, dvv::kv::client_actor(0), {}, "v", dvv::test::handoff(pref[0]));
    // Both owners that accepted the write crash with no durable log:
    // the parked hint is now the only surviving copy.
    cluster.crash(pref[0]);
    cluster.crash(pref[1]);
    (void)cluster.recover(pref[0]);
    (void)cluster.recover(pref[1]);
    EXPECT_FALSE(cluster.get(key, pref[0]).found);
    EXPECT_EQ(cluster.hinted_count(), 1u);
    return cluster;
  };

  const Key key = "k";
  // Legacy pass and digest pass must both find the hint-only key and
  // reach the same bytes.
  auto legacy = scenario();
  auto digest = scenario();
  const auto pref = legacy.preference_list(key);
  EXPECT_GT(legacy.anti_entropy(), 0u);
  EXPECT_GT(digest.anti_entropy_digest().stats.keys_shipped, 0u);

  for (auto* cluster : {&legacy, &digest}) {
    for (const ReplicaId r : {pref[0], pref[1]}) {
      const auto got = cluster->get(key, r);
      ASSERT_TRUE(got.found) << "hint must repair alive owner " << r;
      EXPECT_EQ(got.values, std::vector<std::string>{"v"});
    }
    EXPECT_EQ(cluster->hinted_count(), 1u)
        << "hint stays parked until its owner returns";
  }
  dvv::codec::Writer l, d;
  dvv::codec::encode(l, *legacy.replica(pref[0]).find(key));
  dvv::codec::encode(d, *digest.replica(pref[0]).find(key));
  EXPECT_EQ(l.buffer(), d.buffer()) << "passes agree byte for byte";

  // Fixed point: repeating either pass moves nothing.
  EXPECT_EQ(legacy.anti_entropy(), 0u);
  EXPECT_EQ(digest.anti_entropy_digest().stats.keys_shipped, 0u);

  // The owner finally returns: delivery drains the (reconciled) hint.
  legacy.replica(pref[2]).set_alive(true);
  legacy.deliver_hints();
  EXPECT_EQ(legacy.hinted_count(), 0u);
  EXPECT_EQ(legacy.get(key, pref[2]).values, std::vector<std::string>{"v"});
  EXPECT_EQ(legacy.anti_entropy(), 0u) << "delivered merge is already canonical";
}

// Hints survive a full pairwise sync: sync_with treats parked state as
// replica state, so a fallback handing its keys to a peer hands the
// hints along too.
TEST(HintedHandoff, FullSyncCarriesParkedHints) {
  Cluster<DvvMechanism> cluster(config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  const auto order = cluster.ring().ring_order(key);
  cluster.replica(pref[2]).set_alive(false);
  cluster.put(key, dvv::kv::client_actor(0), {}, "v", dvv::test::handoff(pref[0]));
  ASSERT_EQ(cluster.replica(order[3]).hinted_count(), 1u);

  cluster.replica(order[3]).sync_with(cluster.mechanism(),
                                      cluster.replica(order[4]));
  EXPECT_EQ(cluster.replica(order[4]).hinted_count(), 1u)
      << "full sync must not leave hints behind";
}

// Satellite regression: the receipt used to count hint stashes in
// `replicated_to` (conflating a parked fallback copy with a real
// preference-list copy) and silently `break` when no fallback was
// alive.  The durability levels are now separated.
TEST(HintedHandoff, ReceiptSeparatesReplicasFromHints) {
  Cluster<DvvMechanism> cluster(config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  cluster.replica(pref[2]).set_alive(false);

  const auto receipt =
      cluster.put(key, dvv::kv::client_actor(0), {}, "v", dvv::test::handoff(pref[0]));
  EXPECT_EQ(receipt.replicated_to, 1u) << "one alive non-coordinator member";
  EXPECT_EQ(receipt.hinted, 1u) << "one dead member covered by a hint";
  EXPECT_EQ(receipt.unparked, 0u);
  EXPECT_GT(receipt.replication_bytes, 0u);
}

// Satellite regression: when every fallback candidate is dead too, the
// uncovered owners must be REPORTED (`unparked`), not silently skipped
// — the write is below its sloppy-quorum durability and only the
// receipt can tell the caller.
TEST(HintedHandoff, NowhereToParkIsReportedNotSilent) {
  Cluster<DvvMechanism> cluster(config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  const auto order = cluster.ring().ring_order(key);

  // Kill one preference member AND every non-preference fallback.
  cluster.replica(pref[2]).set_alive(false);
  for (std::size_t slot = cluster.ring().replication(); slot < order.size();
       ++slot) {
    cluster.replica(order[slot]).set_alive(false);
  }

  const auto receipt =
      cluster.put(key, dvv::kv::client_actor(0), {}, "v", dvv::test::handoff(pref[0]));
  EXPECT_EQ(receipt.replicated_to, 1u);
  EXPECT_EQ(receipt.hinted, 0u) << "no alive fallback to park on";
  EXPECT_EQ(receipt.unparked, 1u) << "the uncovered owner must be counted";
  EXPECT_EQ(cluster.hinted_count(), 0u);

  // Two dead owners, zero fallbacks: both are reported.
  cluster.replica(pref[1]).set_alive(false);
  const auto receipt2 =
      cluster.put(key, dvv::kv::client_actor(0), {}, "w", dvv::test::handoff(pref[0]));
  EXPECT_EQ(receipt2.replicated_to, 0u);
  EXPECT_EQ(receipt2.unparked, 2u);
}

TEST(HintedHandoff, FallbackIsOutsideThePreferenceList) {
  Cluster<DvvMechanism> cluster(config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  const auto order = cluster.ring().ring_order(key);
  ASSERT_EQ(order.size(), 6u);
  // First three of ring order are the preference list.
  EXPECT_EQ(std::vector<ReplicaId>(order.begin(), order.begin() + 3), pref);

  cluster.replica(pref[1]).set_alive(false);
  cluster.put(key, dvv::kv::client_actor(0), {}, "v", dvv::test::handoff(pref[0]));
  // The hint must be parked on order[3] (the first fallback).
  EXPECT_EQ(cluster.replica(order[3]).hinted_count(), 1u);
}

}  // namespace
