// Elastic ring membership (src/membership + kv/cluster integration).
//
// Covers the subsystem bottom-up: MembershipTable epoch minting,
// RebalanceEngine task lifecycle (kPending -> kTransferring -> kOwned,
// supersede semantics), the partitioner's PINNED vnode->owner golden
// assignments (a silent placement change would shuffle every key in
// every deployment — this test makes that a loud diff), and the cluster
// integration: join/leave/remove with Merkle-walk rebalancing,
// dual-apply during the transfer window, hint re-targeting across
// ownership changes, stale-epoch forwarding, and the rejoin
// clock-incarnation bump.
#include "membership/membership.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "kv/cluster.hpp"
#include "kv/mechanism.hpp"
#include "kv/ring.hpp"
#include "obs/obs.hpp"
#include "routed_write.hpp"

namespace {

using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::DvvMechanism;
using dvv::kv::Key;
using dvv::kv::ReplicaId;
using dvv::kv::Ring;
using dvv::membership::MembershipTable;
using dvv::membership::PartitionTransfer;
using dvv::membership::RebalanceEngine;
using dvv::membership::TransferState;
using dvv::membership::TransferStats;

/// Restores the global metrics switch on scope exit so a failing
/// assertion cannot leak an enabled registry into later tests.
struct MetricsGuard {
  bool was_enabled = dvv::obs::registry().enabled();
  explicit MetricsGuard(bool on) { dvv::obs::set_metrics_enabled(on); }
  ~MetricsGuard() { dvv::obs::set_metrics_enabled(was_enabled); }
};

// ---- MembershipTable ------------------------------------------------------

TEST(MembershipTable, EpochsAreDenseAndRemembered) {
  MembershipTable table({0, 1, 2}, /*replication=*/2, /*vnodes=*/16);
  EXPECT_EQ(table.epoch(), 0u);
  EXPECT_EQ(table.members(), (std::vector<ReplicaId>{0, 1, 2}));
  EXPECT_TRUE(table.is_member(1));
  EXPECT_FALSE(table.is_member(3));

  const auto& joined = table.join(3);
  EXPECT_EQ(joined.epoch, 1u);
  EXPECT_EQ(table.epoch(), 1u);
  EXPECT_EQ(table.members(), (std::vector<ReplicaId>{0, 1, 2, 3}));

  const auto& left = table.leave(0);
  EXPECT_EQ(left.epoch, 2u);
  EXPECT_EQ(table.members(), (std::vector<ReplicaId>{1, 2, 3}));

  // The table never forgets: every minted epoch stays addressable, and
  // each snapshot still routes over its own member list.
  EXPECT_EQ(table.at(0).ring.members(), (std::vector<ReplicaId>{0, 1, 2}));
  EXPECT_EQ(table.at(1).ring.members(), (std::vector<ReplicaId>{0, 1, 2, 3}));
  EXPECT_EQ(table.at(2).ring.members(), (std::vector<ReplicaId>{1, 2, 3}));
}

TEST(MembershipTable, WasMemberTracksDepartedIdsOnly) {
  MembershipTable table({0, 1, 2}, 2, 16);
  EXPECT_FALSE(table.was_member(0));  // current member, not "was"
  EXPECT_FALSE(table.was_member(7));  // never seen
  table.leave(0);
  EXPECT_TRUE(table.was_member(0));   // departed: rejoin must bump
  table.join(0);
  EXPECT_FALSE(table.was_member(0));  // back in: current again
}

// ---- RebalanceEngine ------------------------------------------------------

TEST(RebalanceEngine, TaskFlipsOnlyAfterEverySourceWalked) {
  RebalanceEngine engine;
  PartitionTransfer task;
  task.partition = 7;
  task.owner = 4;
  task.pending_sources = {0, 1};
  engine.plan(/*target_epoch=*/1, {task});
  ASSERT_TRUE(engine.active());
  EXPECT_EQ(engine.target_epoch(), 1u);
  EXPECT_EQ(engine.pending_work().size(), 2u);

  TransferStats cost;
  cost.keys_shipped = 3;
  cost.wire_bytes = 100;
  EXPECT_FALSE(engine.note_walked(7, 4, 0, cost));
  EXPECT_EQ(engine.transfers()[0].state, TransferState::kTransferring);
  EXPECT_TRUE(engine.take_flippable().empty()) << "one source still owed";

  EXPECT_TRUE(engine.note_walked(7, 4, 1, cost));
  EXPECT_EQ(engine.transfers()[0].state, TransferState::kOwned);
  EXPECT_EQ(engine.take_flippable(), (std::vector<std::uint64_t>{7}));
  EXPECT_TRUE(engine.take_flippable().empty()) << "flips are taken once";

  ASSERT_TRUE(engine.complete());
  EXPECT_EQ(engine.stats().totals.keys_shipped, 6u);
  EXPECT_EQ(engine.stats().totals.wire_bytes, 200u);
  EXPECT_EQ(engine.stats().transfers_completed, 1u);
  engine.finish();
  EXPECT_FALSE(engine.active());
}

TEST(RebalanceEngine, NewPlanSupersedesProgress) {
  RebalanceEngine engine;
  PartitionTransfer task;
  task.partition = 3;
  task.owner = 2;
  task.pending_sources = {0};
  engine.plan(1, {task});
  EXPECT_TRUE(engine.note_walked(3, 2, 0, {}));

  // A membership change mid-rebalance re-plans from scratch: the owed
  // walks are the NEW plan's, and old flip progress is discarded.
  PartitionTransfer again;
  again.partition = 3;
  again.owner = 2;
  again.pending_sources = {0, 1};
  engine.plan(2, {again});
  EXPECT_TRUE(engine.active());
  EXPECT_EQ(engine.target_epoch(), 2u);
  EXPECT_EQ(engine.pending_work().size(), 2u);
  EXPECT_FALSE(engine.complete());
}

// ---- partitioner golden pins ---------------------------------------------
//
// The exact vnode->owner assignments for fixed member lists.  These are
// load-bearing: every deployed ring routes by them, and a "harmless"
// change to the hash, the vnode naming scheme, or the tie-break order
// would silently reshuffle every key in every running cluster.  Values
// were recorded from the implementation; a diff here means the
// placement function changed and MUST be treated as a breaking change.

TEST(RingGolden, PinnedAssignmentsForSeedMemberList) {
  const Ring ring({0, 1, 2, 3, 4}, 3, 32);
  const std::vector<std::vector<ReplicaId>> expected = {
      {4, 1, 2}, {3, 1, 4}, {0, 2, 1}, {2, 3, 4},
      {4, 0, 2}, {1, 3, 4}, {2, 3, 1}, {2, 1, 3},
  };
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(ring.preference_list("key-" + std::to_string(k)), expected[k])
        << "key-" << k;
  }
}

TEST(RingGolden, PinnedAssignmentsAfterJoinAndSparseList) {
  const Ring joined({0, 1, 2, 3, 4, 5}, 3, 32);
  const std::vector<std::vector<ReplicaId>> expected_joined = {
      {4, 1, 5}, {5, 3, 1}, {0, 2, 5}, {2, 3, 4},
      {5, 4, 0}, {5, 1, 3}, {2, 5, 3}, {2, 1, 5},
  };
  for (std::size_t k = 0; k < expected_joined.size(); ++k) {
    EXPECT_EQ(joined.preference_list("key-" + std::to_string(k)),
              expected_joined[k])
        << "key-" << k;
  }

  // Churn leaves the member list sparse; placement must not assume
  // contiguous ids.
  const Ring sparse({1, 3, 4, 6}, 2, 32);
  const std::vector<std::vector<ReplicaId>> expected_sparse = {
      {4, 1}, {3, 1}, {6, 1}, {6, 3}, {4, 6}, {1, 3},
  };
  for (std::size_t k = 0; k < expected_sparse.size(); ++k) {
    EXPECT_EQ(sparse.preference_list("key-" + std::to_string(k)),
              expected_sparse[k])
        << "key-" << k;
  }

  EXPECT_EQ(Ring::hash("key-0"), 809430462356971387ULL);
  EXPECT_EQ(Ring::hash("vnode:3:7"), 9171782124975792365ULL);
}

TEST(RingGolden, JoinMovesOnlyRangesClaimedByTheJoiner) {
  // Minimal movement: a member's vnode points depend only on its own
  // id, so adding node 5 can only DISPLACE owners in favor of 5 — a
  // key's new owner set is a subset of (old owners + the joiner).
  const Ring before({0, 1, 2, 3, 4}, 3, 32);
  const Ring after({0, 1, 2, 3, 4, 5}, 3, 32);
  std::size_t moved = 0;
  for (int k = 0; k < 500; ++k) {
    const auto key = "key-" + std::to_string(k);
    const auto old_pref = before.preference_list(key);
    const std::set<ReplicaId> old_set(old_pref.begin(), old_pref.end());
    for (const ReplicaId owner : after.preference_list(key)) {
      if (owner == 5) {
        ++moved;
        continue;
      }
      EXPECT_TRUE(old_set.contains(owner))
          << key << " gained owner " << owner << " unrelated to the join";
    }
  }
  EXPECT_GT(moved, 0u) << "the joiner claimed nothing";
}

// ---- cluster integration --------------------------------------------------

ClusterConfig elastic_config(std::size_t servers, std::size_t capacity,
                             std::size_t replication = 3) {
  ClusterConfig cfg;
  cfg.servers = servers;
  cfg.capacity = capacity;
  cfg.replication = replication;
  cfg.vnodes = 32;
  return cfg;
}

/// Seeds `n` keys through each key's slot-0 coordinator; returns the
/// written values.
std::map<Key, std::string> seed_keys(Cluster<DvvMechanism>& cluster,
                                     std::size_t n) {
  std::map<Key, std::string> written;
  for (std::size_t k = 0; k < n; ++k) {
    const Key key = "mem-" + std::to_string(k);
    const std::string value = "v" + std::to_string(k);
    const auto pref = cluster.preference_list(key);
    cluster.put(key, dvv::kv::client_actor(0), {}, value,
                dvv::test::routed(pref[0], pref));
    written.emplace(key, value);
  }
  return written;
}

/// Every key readable, with the expected value, from EVERY current
/// preference member — the post-rebalance full-replication check.
void expect_fully_replicated(Cluster<DvvMechanism>& cluster,
                             const std::map<Key, std::string>& written) {
  for (const auto& [key, value] : written) {
    for (const ReplicaId r : cluster.preference_list(key)) {
      const auto got = cluster.get(key, r);
      ASSERT_TRUE(got.found) << key << " missing at replica " << r;
      ASSERT_EQ(got.values.size(), 1u) << key;
      EXPECT_EQ(got.values[0], value) << key << " at replica " << r;
    }
  }
}

TEST(MembershipCluster, JoinRebalancesAndRoutesToTheNewOwner) {
  Cluster<DvvMechanism> cluster(elastic_config(4, 6), {});
  EXPECT_EQ(cluster.ring_epoch(), 0u);
  EXPECT_EQ(cluster.members(), (std::vector<ReplicaId>{0, 1, 2, 3}));
  const auto written = seed_keys(cluster, 64);

  cluster.join_node(4);
  EXPECT_EQ(cluster.ring_epoch(), 1u);
  EXPECT_TRUE(cluster.rebalancing()) << "data must move before routing flips";
  EXPECT_EQ(cluster.members(), (std::vector<ReplicaId>{0, 1, 2, 3, 4}));

  const auto stats = cluster.complete_rebalance();
  EXPECT_FALSE(cluster.rebalancing());
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_GT(stats.totals.keys_shipped, 0u) << "the joiner claimed key ranges";

  // The new member now serves reads for the ranges it claimed.
  bool node4_owns_something = false;
  for (const auto& [key, value] : written) {
    const auto pref = cluster.preference_list(key);
    node4_owns_something |=
        std::find(pref.begin(), pref.end(), ReplicaId{4}) != pref.end();
  }
  EXPECT_TRUE(node4_owns_something);
  expect_fully_replicated(cluster, written);

  // Nothing stranded: steady-state anti-entropy finds a fixed point.
  EXPECT_EQ(cluster.anti_entropy_digest().stats.keys_shipped, 0u);
}

TEST(MembershipCluster, WritesDualApplyDuringTheTransferWindow) {
  Cluster<DvvMechanism> cluster(elastic_config(4, 6), {});
  seed_keys(cluster, 32);
  cluster.join_node(4);
  ASSERT_TRUE(cluster.rebalancing());

  // Find a key the joiner will own; a write accepted mid-transfer must
  // land on the new owner too (or the flip could lose it).
  std::optional<Key> claimed;
  for (std::size_t k = 0; k < 256 && !claimed.has_value(); ++k) {
    const Key key = "dual-" + std::to_string(k);
    const auto targets = cluster.replication_targets(key);
    if (std::find(targets.begin(), targets.end(), ReplicaId{4}) !=
        targets.end()) {
      claimed = key;
    }
  }
  ASSERT_TRUE(claimed.has_value());
  const auto pref = cluster.preference_list(*claimed);
  EXPECT_EQ(std::find(pref.begin(), pref.end(), ReplicaId{4}), pref.end())
      << "routing must not flip before the walks complete";

  cluster.put(*claimed, dvv::kv::client_actor(1), {}, "mid-transfer",
              dvv::test::routed(pref[0], cluster.replication_targets(*claimed)));
  const auto at_new_owner = cluster.get(*claimed, 4);
  ASSERT_TRUE(at_new_owner.found) << "dual-apply missed the claiming owner";
  EXPECT_EQ(at_new_owner.values[0], "mid-transfer");

  (void)cluster.complete_rebalance();
  EXPECT_EQ(cluster.anti_entropy_digest().stats.keys_shipped, 0u);
}

TEST(MembershipCluster, GracefulLeaveDrainsTheLeaverBeforeTheFlip) {
  Cluster<DvvMechanism> cluster(elastic_config(5, 5), {});
  const auto written = seed_keys(cluster, 64);

  cluster.leave_node(0);
  const auto stats = cluster.complete_rebalance();
  EXPECT_EQ(cluster.members(), (std::vector<ReplicaId>{1, 2, 3, 4}));
  EXPECT_GT(stats.totals.keys_shipped, 0u)
      << "the leaver's ranges must drain to the remaining owners";

  for (const auto& [key, value] : written) {
    const auto pref = cluster.preference_list(key);
    EXPECT_EQ(std::find(pref.begin(), pref.end(), ReplicaId{0}), pref.end());
  }
  expect_fully_replicated(cluster, written);
  EXPECT_EQ(cluster.anti_entropy_digest().stats.keys_shipped, 0u);
}

TEST(MembershipCluster, CrashRemovalRebuildsReplicationFromSurvivors) {
  Cluster<DvvMechanism> cluster(elastic_config(5, 5), {});
  const auto written = seed_keys(cluster, 64);

  // Node 2 is gone for good: dead, unreachable, unwalkable.  The
  // remaining owners rebuild each partition's replication from each
  // other — every key must end fully replicated WITHOUT node 2.
  cluster.replica(2).set_alive(false);
  cluster.remove_node(2);
  (void)cluster.complete_rebalance();

  EXPECT_EQ(cluster.members(), (std::vector<ReplicaId>{0, 1, 3, 4}));
  expect_fully_replicated(cluster, written);
  EXPECT_EQ(cluster.anti_entropy_digest().stats.keys_shipped, 0u);
}

TEST(MembershipCluster, RejoinBumpsTheClockIncarnation) {
  const MetricsGuard metrics(true);
  Cluster<DvvMechanism> cluster(elastic_config(5, 5), {});
  seed_keys(cluster, 16);

  const std::uint64_t before = cluster.replica(2).incarnation();
#if !defined(DVV_OBS_DISABLED)
  const std::uint64_t rejoins_before =
      dvv::obs::membership_metrics().rejoin_incarnations.value();
#endif

  cluster.leave_node(2);
  (void)cluster.complete_rebalance();
  EXPECT_EQ(cluster.replica(2).incarnation(), before)
      << "a graceful leave alone must not burn an incarnation";

  // Rejoining with history: pre-departure dots must never be reused,
  // so the id passes through the incarnation bump on the way back in.
  cluster.join_node(2);
  (void)cluster.complete_rebalance();
  EXPECT_EQ(cluster.replica(2).incarnation(), before + 1);
#if !defined(DVV_OBS_DISABLED)
  EXPECT_EQ(dvv::obs::membership_metrics().rejoin_incarnations.value(),
            rejoins_before + 1);
#endif

  // A FRESH id (never a member) joins without a bump.
  Cluster<DvvMechanism> fresh(elastic_config(4, 5), {});
  const std::uint64_t fresh_before = fresh.replica(4).incarnation();
  fresh.join_node(4);
  EXPECT_EQ(fresh.replica(4).incarnation(), fresh_before);
}

TEST(MembershipCluster, StaleOwnerHintIsRedirectedNotMisdelivered) {
  const MetricsGuard metrics(true);
  Cluster<DvvMechanism> cluster(elastic_config(5, 5), {});

  // Find a key with a non-coordinator preference member to play the
  // dying owner.
  const Key key = "hint-victim";
  const auto pref = cluster.preference_list(key);
  ASSERT_EQ(pref.size(), 3u);
  const ReplicaId victim = pref[2];

  cluster.replica(victim).set_alive(false);
  const auto receipt = cluster.put(key, dvv::kv::client_actor(0), {}, "parked-write",
                                   dvv::test::handoff(pref[0]));
  ASSERT_EQ(receipt.hinted, 1u) << "the dead owner's copy must park";
  ASSERT_EQ(cluster.hinted_count(), 1u);

  // Ownership moves while the hint is parked: the victim is
  // crash-removed, so it is no longer in ANY preference list.
  cluster.remove_node(victim);
  (void)cluster.complete_rebalance();
  const auto new_pref = cluster.preference_list(key);
  ASSERT_EQ(std::find(new_pref.begin(), new_pref.end(), victim),
            new_pref.end());

  // Delivery must REDIRECT to a current owner — not push the write to
  // the departed replica, where steady-state AAE would never repair it.
#if !defined(DVV_OBS_DISABLED)
  const std::uint64_t retargeted_before =
      dvv::obs::membership_metrics().hints_retargeted.value();
#endif
  const std::size_t delivered = cluster.deliver_hints();
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(cluster.hinted_count(), 0u);
#if !defined(DVV_OBS_DISABLED)
  EXPECT_EQ(dvv::obs::membership_metrics().hints_retargeted.value(),
            retargeted_before + 1);
#endif

  EXPECT_FALSE(cluster.get(key, victim).found)
      << "the write was misdelivered to the departed replica";
  bool on_a_current_owner = false;
  for (const ReplicaId r : new_pref) {
    const auto got = cluster.get(key, r);
    if (got.found && got.values[0] == "parked-write") on_a_current_owner = true;
  }
  EXPECT_TRUE(on_a_current_owner);

  // And the redirected copy is indistinguishable from a direct one:
  // a digest pass spreads it to the rest of the preference list and
  // reaches a fixed point.
  (void)cluster.anti_entropy_digest();
  EXPECT_EQ(cluster.anti_entropy_digest().stats.keys_shipped, 0u);
  expect_fully_replicated(cluster, {{key, "parked-write"}});
}

TEST(MembershipCluster, StaleEpochRequestIsForwardedAndCounted) {
  const MetricsGuard metrics(true);
  ClusterConfig cfg = elastic_config(4, 6);
  cfg.transport.kind = dvv::net::TransportKind::kSim;
  cfg.transport.sim.auto_settle = true;
  Cluster<DvvMechanism> cluster(cfg, {});
  seed_keys(cluster, 16);

  // Provisioned node 5 misses the join announcement behind a cut link,
  // so its epoch knowledge stays at 0 while the ring moves to 1.
  cluster.partition({{0, 1, 2, 3, 4}, {5}}, "announce-loss");
  cluster.join_node(4);
  (void)cluster.complete_rebalance();
  cluster.heal();
  ASSERT_EQ(cluster.ring_epoch(), 1u);
  ASSERT_EQ(cluster.known_epoch(5), 0u);

  // A request arriving at the lagging node forwards to a current owner
  // and is counted as a stale-epoch forward.
  const Key key = "mem-0";
#if !defined(DVV_OBS_DISABLED)
  const std::uint64_t stale_before =
      dvv::obs::membership_metrics().stale_epoch_forwarded.value();
#endif
  const auto routed = cluster.route_request(key, 5);
  ASSERT_TRUE(routed.has_value());
  const auto pref = cluster.preference_list(key);
  EXPECT_NE(std::find(pref.begin(), pref.end(), *routed), pref.end());
#if !defined(DVV_OBS_DISABLED)
  EXPECT_EQ(dvv::obs::membership_metrics().stale_epoch_forwarded.value(),
            stale_before + 1);
#endif

  // A current-epoch owner coordinates in place: no forward, no count.
  const auto direct = cluster.route_request(key, pref[0]);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(*direct, pref[0]);
#if !defined(DVV_OBS_DISABLED)
  EXPECT_EQ(dvv::obs::membership_metrics().stale_epoch_forwarded.value(),
            stale_before + 1);
#endif
}

TEST(MembershipCluster, EmptyClusterTransitionsFlipImmediately) {
  // No data, no transfers: the epoch mints, the plan is vacuously
  // complete, and routing flips in the same call.
  Cluster<DvvMechanism> cluster(elastic_config(3, 4), {});
  cluster.join_node(3);
  EXPECT_FALSE(cluster.rebalancing());
  EXPECT_EQ(cluster.ring_epoch(), 1u);
  EXPECT_EQ(cluster.members(), (std::vector<ReplicaId>{0, 1, 2, 3}));
  seed_keys(cluster, 8);
  EXPECT_EQ(cluster.anti_entropy_digest().stats.keys_shipped, 0u);
}

}  // namespace
