// Integration tests for the replicated store: Replica + Cluster +
// ClientSession over the DVV mechanism (and cross-mechanism smoke
// coverage via typed tests).  Exercises routing, replication fan-out,
// divergence + anti-entropy convergence, read-your-writes sessions and
// sibling lifecycle end to end.
#include "kv/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "kv/client.hpp"
#include "kv/mechanism.hpp"
#include "routed_write.hpp"

namespace {

using dvv::kv::ClientSession;
using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::DvvMechanism;
using dvv::kv::DvvSetMechanism;
using dvv::kv::HistoryMechanism;
using dvv::kv::Key;
using dvv::kv::ReplicaId;
using dvv::kv::ServerVvMechanism;

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.servers = 5;
  cfg.replication = 3;
  cfg.vnodes = 32;
  return cfg;
}

TEST(Cluster, GetOnMissingKeyNotFound) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  const auto r = cluster.get("nope", 0);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.values.empty());
}

TEST(Cluster, PutThenGetFromEveryPreferenceReplica) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);

  alice.put("k", "hello");
  for (const ReplicaId r : cluster.preference_list("k")) {
    const auto got = cluster.get("k", r);
    ASSERT_TRUE(got.found) << "replica " << r;
    ASSERT_EQ(got.values.size(), 1u);
    EXPECT_EQ(got.values[0], "hello");
  }
}

TEST(Cluster, PutDoesNotLandOutsidePreferenceList) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  alice.put("k", "v");
  const auto pref = cluster.preference_list("k");
  for (ReplicaId r = 0; r < 5; ++r) {
    const bool in_pref = std::find(pref.begin(), pref.end(), r) != pref.end();
    EXPECT_EQ(cluster.get("k", r).found, in_pref) << "replica " << r;
  }
}

TEST(Cluster, ReadModifyWriteReplacesValue) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  alice.put("k", "v1");
  alice.rmw("k", [](const std::vector<std::string>& vs) {
    EXPECT_EQ(vs.size(), 1u);
    return vs[0] + "+v2";
  });
  const auto got = cluster.get("k", cluster.default_coordinator("k").value());
  ASSERT_EQ(got.values.size(), 1u);
  EXPECT_EQ(got.values[0], "v1+v2");
}

TEST(Cluster, RacingBlindWritesCreateSiblings) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  ClientSession<DvvMechanism> bob(dvv::kv::client_actor(1), cluster);

  alice.put("k", "from-alice");
  bob.put("k", "from-bob");  // bob never read: blind write

  const auto got = cluster.get("k", cluster.default_coordinator("k").value());
  ASSERT_EQ(got.values.size(), 2u);
  const std::set<std::string> vals(got.values.begin(), got.values.end());
  EXPECT_TRUE(vals.contains("from-alice"));
  EXPECT_TRUE(vals.contains("from-bob"));
}

TEST(Cluster, ReadingResolvesSiblingsOnNextWrite) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  ClientSession<DvvMechanism> bob(dvv::kv::client_actor(1), cluster);

  alice.put("k", "a");
  bob.put("k", "b");
  // Carol reads both siblings, merges, writes back.
  ClientSession<DvvMechanism> carol(dvv::kv::client_actor(2), cluster);
  carol.rmw("k", [](const std::vector<std::string>& vs) {
    EXPECT_EQ(vs.size(), 2u);
    return std::string("merged");
  });
  const auto got = cluster.get("k", cluster.default_coordinator("k").value());
  ASSERT_EQ(got.values.size(), 1u);
  EXPECT_EQ(got.values[0], "merged");
}

TEST(Cluster, PartialReplicationDivergesThenAntiEntropyConverges) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);

  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  // Write lands only on the coordinator (empty replicate_to).
  alice.put(key, "only-here", dvv::test::routed(pref[0], {}));
  EXPECT_TRUE(cluster.get(key, pref[0]).found);
  EXPECT_FALSE(cluster.get(key, pref[1]).found);

  cluster.anti_entropy();
  for (const ReplicaId r : pref) {
    const auto got = cluster.get(key, r);
    ASSERT_TRUE(got.found);
    EXPECT_EQ(got.values[0], "only-here");
  }
}

TEST(Cluster, AntiEntropyConvergesDivergentSiblings) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  ClientSession<DvvMechanism> bob(dvv::kv::client_actor(1), cluster);

  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  // Two writes land on two different replicas only: divergence.
  alice.put(key, "at-0", dvv::test::routed(pref[0], {}));
  bob.put(key, "at-1", dvv::test::routed(pref[1], {}));

  cluster.anti_entropy();
  for (const ReplicaId r : pref) {
    const auto got = cluster.get(key, r);
    ASSERT_TRUE(got.found);
    EXPECT_EQ(got.values.size(), 2u) << "both siblings everywhere";
  }
  // Idempotent: a second round changes nothing.
  const auto before = cluster.footprint();
  cluster.anti_entropy();
  const auto after = cluster.footprint();
  EXPECT_EQ(before.siblings, after.siblings);
  EXPECT_EQ(before.metadata_bytes, after.metadata_bytes);
}

TEST(Cluster, QuorumReadMergesDivergentReplicas) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  ClientSession<DvvMechanism> bob(dvv::kv::client_actor(1), cluster);

  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  alice.put(key, "at-0", dvv::test::routed(pref[0], {}));
  bob.put(key, "at-1", dvv::test::routed(pref[1], {}));

  // A single-replica read sees one value; a quorum read sees both.
  EXPECT_EQ(cluster.get(key, pref[0]).values.size(), 1u);
  const auto merged = cluster.get_quorum(key, 2);
  ASSERT_TRUE(merged.found);
  EXPECT_EQ(merged.values.size(), 2u);
}

TEST(Cluster, DeadCoordinatorFailsOver) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  cluster.replica(pref[0]).set_alive(false);
  EXPECT_EQ(cluster.default_coordinator(key), pref[1]);

  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  alice.put(key, "survives");
  EXPECT_TRUE(cluster.get(key, pref[1]).found);
  EXPECT_FALSE(cluster.get(key, pref[0]).found) << "dead replica missed it";

  // Recovery + anti-entropy repairs the dead replica.
  cluster.replica(pref[0]).set_alive(true);
  cluster.anti_entropy();
  EXPECT_TRUE(cluster.get(key, pref[0]).found);
}

// Regression: a fully-down preference list is an ERROR REPLY, not a
// process abort — default_coordinator reports nullopt and get/put/
// get_quorum surface `unavailable`.
TEST(Cluster, WholePreferenceListDownIsUnavailableNotFatal) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  const Key key = "k";
  alice.put(key, "before-the-outage");

  const auto pref = cluster.preference_list(key);
  for (const ReplicaId r : pref) cluster.replica(r).set_alive(false);

  EXPECT_EQ(cluster.default_coordinator(key), std::nullopt);

  const auto got = alice.get(key);
  EXPECT_TRUE(got.unavailable);
  EXPECT_FALSE(got.found);

  const auto receipt = alice.put(key, "during-the-outage");
  EXPECT_TRUE(receipt.unavailable);
  EXPECT_EQ(receipt.replicated_to, 0u);

  const auto quorum = cluster.get_quorum(key, 2);
  EXPECT_TRUE(quorum.unavailable);

  // An explicitly-routed GET to a dead replica is unavailable too, and
  // must not clobber the session's remembered context (which would turn
  // the next put into a blind write).
  const auto routed = alice.get(key, pref[0]);
  EXPECT_TRUE(routed.unavailable);

  // Back up: the rejected write never happened, the old value is intact.
  for (const ReplicaId r : pref) cluster.replica(r).set_alive(true);
  EXPECT_EQ(alice.get(key).values, std::vector<std::string>{"before-the-outage"});
  EXPECT_FALSE(alice.put(key, "after").unavailable);
}

// Regression: an R-quorum read that could not actually reach R alive
// replicas used to report plain success (only asked == 0 was flagged).
// It must say how many replicas answered and mark itself degraded.
TEST(Cluster, QuorumReadBelowQuorumReportsDegraded) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  const Key key = "k";
  alice.put(key, "v");
  const auto pref = cluster.preference_list(key);

  // Full quorum: R replies, not degraded.
  const auto full = cluster.get_quorum(key, 3);
  EXPECT_TRUE(full.found);
  EXPECT_FALSE(full.degraded);
  EXPECT_FALSE(full.unavailable);
  EXPECT_EQ(full.replies, 3u);

  // Two of three preference members down: a quorum-3 read gets one
  // reply — it still returns data but must admit the quorum failed.
  cluster.replica(pref[1]).set_alive(false);
  cluster.replica(pref[2]).set_alive(false);
  const auto degraded = cluster.get_quorum(key, 3);
  EXPECT_TRUE(degraded.found);
  EXPECT_TRUE(degraded.degraded) << "1 < 3 replies must be flagged";
  EXPECT_FALSE(degraded.unavailable);
  EXPECT_EQ(degraded.replies, 1u);

  // All down: unavailable AND degraded, zero replies.
  cluster.replica(pref[0]).set_alive(false);
  const auto dead = cluster.get_quorum(key, 3);
  EXPECT_TRUE(dead.unavailable);
  EXPECT_TRUE(dead.degraded);
  EXPECT_EQ(dead.replies, 0u);
  EXPECT_FALSE(dead.found);
}

// Regression: the plain put() receipt used to report only how many
// fan-out messages went out — a put whose preference-list targets were
// partly dead looked exactly like a fully-replicated one.  It must
// report the intended width and flag the shortfall (parallel to the
// get_quorum replies/degraded fix).
TEST(Cluster, PlainPutBelowFullFanoutReportsDegraded) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  const Key key = "k";
  const auto pref = cluster.preference_list(key);

  // Everybody alive: full fan-out, not degraded, every target acked.
  const auto full = alice.put(key, "v1");
  EXPECT_EQ(full.targets, 2u);
  EXPECT_EQ(full.replicated_to, 2u);
  EXPECT_FALSE(full.degraded);
  EXPECT_FALSE(full.unavailable);
  EXPECT_GE(full.acks(), 1u);
  EXPECT_EQ(full.acked_by.front(), full.coordinator)
      << "the coordinator's local apply is the first ack";

  // One preference member dead: the write went below its intended
  // replication and the receipt must say so, not masquerade as full.
  cluster.replica(pref[1]).set_alive(false);
  const auto partial = alice.put(key, "v2");
  EXPECT_EQ(partial.targets, 2u);
  EXPECT_EQ(partial.replicated_to, 1u);
  EXPECT_TRUE(partial.degraded) << "1 of 2 intended copies must be flagged";
  EXPECT_FALSE(partial.unavailable);

  // Two dead: only the coordinator holds the write.
  cluster.replica(pref[2]).set_alive(false);
  const auto lone = alice.put(key, "v3");
  EXPECT_EQ(lone.targets, 2u);
  EXPECT_EQ(lone.replicated_to, 0u);
  EXPECT_TRUE(lone.degraded);
  EXPECT_FALSE(lone.unavailable) << "degraded is not unavailable";
}

TEST(Cluster, FootprintAggregatesAcrossReplicas) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  alice.put("a", "1");
  alice.put("b", "2");
  const auto fp = cluster.footprint();
  // Each key is stored on replication=3 replicas.
  EXPECT_EQ(fp.keys, 6u);
  EXPECT_EQ(fp.siblings, 6u);
  EXPECT_GT(fp.metadata_bytes, 0u);
  EXPECT_GT(fp.total_bytes, fp.metadata_bytes);
}

TEST(Cluster, SessionContextIsPerKey) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  alice.put("k1", "a");
  alice.put("k2", "b");
  EXPECT_TRUE(alice.context_for("k1").empty()) << "no GET yet, no context";
  alice.get("k1");
  EXPECT_FALSE(alice.context_for("k1").empty());
  EXPECT_TRUE(alice.context_for("k2").empty());
  alice.forget("k1");
  EXPECT_TRUE(alice.context_for("k1").empty());
}

// The same end-to-end flow must work for every mechanism; typed tests
// keep the matrix in one place.
template <typename M>
class ClusterMechanismTest : public ::testing::Test {};

using Mechanisms = ::testing::Types<DvvMechanism, DvvSetMechanism,
                                    dvv::kv::ClientVvMechanism, ServerVvMechanism,
                                    HistoryMechanism>;
TYPED_TEST_SUITE(ClusterMechanismTest, Mechanisms);

TYPED_TEST(ClusterMechanismTest, PutGetRmwLifecycle) {
  Cluster<TypeParam> cluster(small_config(), {});
  ClientSession<TypeParam> alice(dvv::kv::client_actor(0), cluster);

  alice.put("k", "v1");
  auto got = alice.get("k");
  ASSERT_TRUE(got.found);
  ASSERT_EQ(got.values.size(), 1u);
  EXPECT_EQ(got.values[0], "v1");

  alice.put("k", "v2");  // context from the get: overwrite
  got = alice.get("k");
  ASSERT_EQ(got.values.size(), 1u);
  EXPECT_EQ(got.values[0], "v2");
}

TYPED_TEST(ClusterMechanismTest, AntiEntropyConvergesAllReplicas) {
  Cluster<TypeParam> cluster(small_config(), {});
  ClientSession<TypeParam> alice(dvv::kv::client_actor(0), cluster);
  const auto pref = cluster.preference_list("k");
  alice.put("k", "v", dvv::test::routed(pref[0], {}));
  cluster.anti_entropy();
  for (const ReplicaId r : pref) {
    EXPECT_TRUE(cluster.get("k", r).found);
  }
}

TEST(Cluster, RmwOnUnavailableReadDoesNotWrite) {
  // Regression: rmw used to proceed to PUT f({}) with the stale
  // remembered context when its GET came back unavailable — a blind
  // overwrite conditioned on a read that never happened.
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> session(dvv::kv::client_actor(0), cluster);
  const Key key = "cart";
  session.put(key, "v1");
  session.get(key);

  for (const ReplicaId r : cluster.preference_list(key)) {
    cluster.replica(r).set_alive(false);
  }
  bool modifier_ran = false;
  const auto receipt = session.rmw(key, [&](const std::vector<std::string>&) {
    modifier_ran = true;
    return std::string("clobber");
  });
  EXPECT_TRUE(receipt.unavailable);
  EXPECT_EQ(receipt.outcome, dvv::kv::CoordOutcome::kUnavailable);
  EXPECT_FALSE(modifier_ran) << "an unavailable read must not feed f({})";

  for (const ReplicaId r : cluster.preference_list(key)) {
    cluster.replica(r).set_alive(true);
  }
  const auto after = session.get(key);
  ASSERT_TRUE(after.found);
  EXPECT_EQ(after.values, std::vector<std::string>{"v1"})
      << "nothing may have been written during the outage";
  // The remembered context survived too: the next rmw overwrites
  // normally instead of forking a sibling.
  session.rmw(key, [](const std::vector<std::string>&) {
    return std::string("v2");
  });
  EXPECT_EQ(session.get(key).values, std::vector<std::string>{"v2"});
}

TYPED_TEST(ClusterMechanismTest, RacingWritesKeptByAllSoundMechanisms) {
  // Every mechanism keeps the conflict visible at the coordinating
  // server itself (even server-VV "detects" it; it only mis-tags it).
  Cluster<TypeParam> cluster(small_config(), {});
  ClientSession<TypeParam> a(dvv::kv::client_actor(0), cluster);
  ClientSession<TypeParam> b(dvv::kv::client_actor(1), cluster);
  a.put("k", "x");
  b.put("k", "y");
  const auto got = cluster.get("k", cluster.default_coordinator("k").value());
  EXPECT_EQ(got.values.size(), 2u);
}

}  // namespace
