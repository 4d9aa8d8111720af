// Tests for the consistent-hashing ring: preference-list shape,
// determinism, balance, and the replication-degree bound it hands the
// causality layer.
#include "kv/ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace {

using dvv::kv::Ring;

TEST(Ring, PreferenceListHasExactlyRDistinctServers) {
  const Ring ring(8, 3);
  for (int k = 0; k < 200; ++k) {
    const auto pref = ring.preference_list("key-" + std::to_string(k));
    ASSERT_EQ(pref.size(), 3u);
    const std::set<dvv::kv::ReplicaId> uniq(pref.begin(), pref.end());
    EXPECT_EQ(uniq.size(), 3u);
    for (const auto r : pref) EXPECT_LT(r, 8u);
  }
}

TEST(Ring, DeterministicAcrossInstances) {
  const Ring a(5, 3), b(5, 3);
  for (int k = 0; k < 100; ++k) {
    const auto key = "key-" + std::to_string(k);
    EXPECT_EQ(a.preference_list(key), b.preference_list(key));
  }
}

TEST(Ring, SingleServerDegenerateCase) {
  const Ring ring(1, 1);
  EXPECT_EQ(ring.preference_list("anything"),
            std::vector<dvv::kv::ReplicaId>{0});
}

TEST(Ring, ReplicationEqualsServersCoversAll) {
  const Ring ring(4, 4);
  const auto pref = ring.preference_list("k");
  const std::set<dvv::kv::ReplicaId> uniq(pref.begin(), pref.end());
  EXPECT_EQ(uniq.size(), 4u);
}

TEST(Ring, CoordinatorLoadIsRoughlyBalanced) {
  const Ring ring(8, 3, 128);
  std::vector<int> coordinator_count(8, 0);
  constexpr int kKeys = 20'000;
  for (int k = 0; k < kKeys; ++k) {
    ++coordinator_count[ring.preference_list("key-" + std::to_string(k))[0]];
  }
  // Perfect balance would be 2500 per server; allow a generous band
  // (vnode hashing gives ~±20% at 128 vnodes).
  for (const int c : coordinator_count) {
    EXPECT_GT(c, kKeys / 8 / 2);
    EXPECT_LT(c, kKeys / 8 * 2);
  }
}

TEST(Ring, DifferentKeysSpreadAcrossServers) {
  const Ring ring(8, 3);
  std::set<dvv::kv::ReplicaId> coordinators;
  for (int k = 0; k < 100; ++k) {
    coordinators.insert(ring.preference_list("key-" + std::to_string(k))[0]);
  }
  EXPECT_EQ(coordinators.size(), 8u) << "100 keys should hit every server";
}

TEST(Ring, HashIsStableAndSpreads) {
  EXPECT_EQ(Ring::hash("abc"), Ring::hash("abc"));
  EXPECT_NE(Ring::hash("abc"), Ring::hash("abd"));
  // Sequential keys should not collide in the top bits (avalanche).
  std::set<std::uint64_t> tops;
  for (int i = 0; i < 1000; ++i) {
    tops.insert(Ring::hash("key-" + std::to_string(i)) >> 48);
  }
  EXPECT_GT(tops.size(), 900u);
}

// preference_list reads a per-vnode table built at construction; the
// full walk (ring_order) is the reference.  Probes every vnode boundary
// (one before, at, one after each point — the lower_bound edges and the
// wrap past the last vnode) and a spread of seeded keys.
void expect_table_matches_walk(const Ring& ring,
                               const std::vector<dvv::kv::ReplicaId>& members) {
  const auto prefix = [&](std::vector<dvv::kv::ReplicaId> order) {
    order.resize(ring.replication());
    return order;
  };
  for (const dvv::kv::ReplicaId m : members) {
    for (std::size_t v = 0; v < ring.vnodes_per_server(); ++v) {
      const std::uint64_t p = Ring::hash("vnode:" + std::to_string(m) + ":" +
                                         std::to_string(v));
      for (const std::uint64_t at : {p - 1, p, p + 1}) {
        ASSERT_EQ(ring.preference_list_at(at), prefix(ring.ring_order_at(at)))
            << "member " << m << " vnode " << v << " point " << at;
      }
      ASSERT_EQ(ring.preference_list_at(p)[0], m) << "vnode " << v;
    }
  }
  // Past the last vnode the ring wraps to the first.
  EXPECT_EQ(ring.preference_list_at(~std::uint64_t{0}), ring.preference_list_at(0));
  dvv::util::Rng rng(7);
  for (int k = 0; k < 10'000; ++k) {
    const std::string key = "key-" + std::to_string(rng.next());
    ASSERT_EQ(ring.preference_list(key), prefix(ring.ring_order(key))) << key;
  }
}

TEST(Ring, PreferenceTableMatchesTheWalk) {
  const Ring ring(8, 3);
  expect_table_matches_walk(ring, ring.members());
}

TEST(Ring, PreferenceTableMatchesTheWalkOnASparseMemberList) {
  // The member list a cluster routes over after joins and leaves.
  const std::vector<dvv::kv::ReplicaId> members{1, 2, 5, 9, 10, 14};
  const Ring ring(members, 3, 16);
  expect_table_matches_walk(ring, members);
}

TEST(Ring, AccessorsReportConfiguration) {
  const Ring ring(6, 2, 32);
  EXPECT_EQ(ring.servers(), 6u);
  EXPECT_EQ(ring.replication(), 2u);
}

}  // namespace
