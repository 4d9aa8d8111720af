// Direct unit tests for Replica<M> (the cluster tests exercise it only
// through routing): local get/put, merge_key, key enumeration,
// footprint accounting, liveness, and hint bookkeeping.
#include "kv/replica.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "kv/mechanism.hpp"
#include "store/mem_backend.hpp"
#include "sync/key_observer.hpp"

namespace {

using dvv::kv::DvvMechanism;
using dvv::kv::Replica;

const DvvMechanism kMech{};
const auto kClient = dvv::kv::client_actor(0);

TEST(Replica, StartsEmptyAndAlive) {
  Replica<DvvMechanism> rep(3);
  EXPECT_EQ(rep.id(), 3u);
  EXPECT_TRUE(rep.alive());
  EXPECT_EQ(rep.key_count(), 0u);
  EXPECT_TRUE(rep.keys().empty());
  EXPECT_EQ(rep.find("k"), nullptr);
  EXPECT_FALSE(rep.get(kMech, "k").found);
}

TEST(Replica, PutThenGetLocally) {
  Replica<DvvMechanism> rep(0);
  rep.put(kMech, "k", /*coordinator=*/0, kClient, {}, "v");
  const auto got = rep.get(kMech, "k");
  ASSERT_TRUE(got.found);
  ASSERT_EQ(got.values.size(), 1u);
  EXPECT_EQ(got.values[0], "v");
  EXPECT_FALSE(got.context.empty());
  EXPECT_EQ(rep.key_count(), 1u);
}

TEST(Replica, KeysAreSortedAndComplete) {
  Replica<DvvMechanism> rep(0);
  for (const char* k : {"zebra", "apple", "mango"}) {
    rep.put(kMech, k, 0, kClient, {}, "v");
  }
  const auto keys = rep.keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "apple");
  EXPECT_EQ(keys[1], "mango");
  EXPECT_EQ(keys[2], "zebra");
}

TEST(Replica, MergeKeyAdoptsRemoteState) {
  Replica<DvvMechanism> a(0), b(1);
  a.put(kMech, "k", 0, kClient, {}, "v");
  b.merge_key(kMech, "k", *a.find("k"));
  const auto got = b.get(kMech, "k");
  ASSERT_TRUE(got.found);
  EXPECT_EQ(got.values[0], "v");
}

TEST(Replica, SyncWithIsBidirectional) {
  Replica<DvvMechanism> a(0), b(1);
  a.put(kMech, "only-a", 0, kClient, {}, "va");
  b.put(kMech, "only-b", 1, kClient, {}, "vb");
  a.sync_with(kMech, b);
  EXPECT_TRUE(a.get(kMech, "only-b").found);
  EXPECT_TRUE(b.get(kMech, "only-a").found);
  EXPECT_EQ(a.key_count(), 2u);
  EXPECT_EQ(b.key_count(), 2u);
}

TEST(Replica, FootprintCountsEverything) {
  Replica<DvvMechanism> rep(0);
  rep.put(kMech, "k1", 0, kClient, {}, "v1");
  rep.put(kMech, "k2", 0, kClient, {}, "v2");
  rep.put(kMech, "k2", 0, kClient, {}, "sibling");  // blind: second sibling
  const auto fp = rep.footprint(kMech);
  EXPECT_EQ(fp.keys, 2u);
  EXPECT_EQ(fp.siblings, 3u);
  EXPECT_GT(fp.clock_entries, 0u);
  EXPECT_GT(fp.total_bytes, fp.metadata_bytes);
}

TEST(Replica, FootprintMergeAggregates) {
  Replica<DvvMechanism> a(0), b(1);
  a.put(kMech, "x", 0, kClient, {}, "v");
  b.put(kMech, "y", 1, kClient, {}, "v");
  auto fa = a.footprint(kMech);
  const auto fb = b.footprint(kMech);
  fa.merge(fb);
  EXPECT_EQ(fa.keys, 2u);
  EXPECT_EQ(fa.siblings, 2u);
}

TEST(Replica, HintStashAndDeliver) {
  Replica<DvvMechanism> fallback(4), owner(1);
  Replica<DvvMechanism> source(0);
  source.put(kMech, "k", 0, kClient, {}, "parked");

  owner.set_alive(false);
  fallback.stash_hint(kMech, owner.id(), "k", *source.find("k"));
  EXPECT_EQ(fallback.hinted_count(), 1u);
  EXPECT_EQ(fallback.find("k"), nullptr) << "hints never serve reads";

  auto lookup = [&](dvv::kv::ReplicaId) -> Replica<DvvMechanism>& { return owner; };
  EXPECT_EQ(fallback.deliver_hints(kMech, lookup), 0u) << "owner still down";
  owner.set_alive(true);
  EXPECT_EQ(fallback.deliver_hints(kMech, lookup), 1u);
  EXPECT_EQ(fallback.hinted_count(), 0u);
  EXPECT_TRUE(owner.get(kMech, "k").found);
}

TEST(Replica, StashedHintsMerge) {
  Replica<DvvMechanism> fallback(4), owner(1), s0(0), s2(2);
  s0.put(kMech, "k", 0, kClient, {}, "x");
  s2.put(kMech, "k", 2, kClient, {}, "y");
  fallback.stash_hint(kMech, 1, "k", *s0.find("k"));
  fallback.stash_hint(kMech, 1, "k", *s2.find("k"));
  EXPECT_EQ(fallback.hinted_count(), 1u) << "same (owner,key): merged hint";

  auto lookup = [&](dvv::kv::ReplicaId) -> Replica<DvvMechanism>& { return owner; };
  fallback.deliver_hints(kMech, lookup);
  const auto got = owner.get(kMech, "k");
  EXPECT_EQ(got.values.size(), 2u) << "both concurrent parked writes arrive";
}

// ---- the anti-entropy dirty bit -----------------------------------------

/// Counts on_key_touched calls per key.
struct CountingObserver final : dvv::sync::KeyObserver {
  std::map<std::string, int> touches;
  int total = 0;
  void on_key_touched(dvv::core::ActorId /*replica*/, const std::string& key) override {
    ++touches[key];
    ++total;
  }
};

TEST(ReplicaDirtyBit, RepeatedWritesReportOnceUntilRefresh) {
  CountingObserver obs;
  Replica<DvvMechanism> rep(0);
  rep.set_observer(&obs);
  for (int i = 0; i < 1000; ++i) rep.put(kMech, "k", 0, kClient, {}, "v");
  EXPECT_EQ(obs.total, 1);

  // The refresh's find clears the bit: the next write reports again,
  // once.
  ASSERT_NE(rep.find_for_refresh("k"), nullptr);
  rep.put(kMech, "k", 0, kClient, {}, "v");
  rep.put(kMech, "k", 0, kClient, {}, "v");
  EXPECT_EQ(obs.total, 2);
  EXPECT_EQ(obs.touches["k"], 2);
}

TEST(ReplicaDirtyBit, UnchangedMergeReportsAndPersistsNothing) {
  auto backend = std::make_unique<dvv::store::MemBackend>();
  const dvv::store::MemBackend& mem = *backend;
  CountingObserver obs;
  Replica<DvvMechanism> source(1), rep(0, std::move(backend));
  source.put(kMech, "k", 1, kClient, {}, "v");
  rep.set_observer(&obs);
  rep.merge_key(kMech, "k", *source.find("k"));
  EXPECT_EQ(obs.total, 1);
  ASSERT_NE(rep.find_for_refresh("k"), nullptr);  // bit clear again

  // Same bytes again: no report even with the bit clear, no record.
  const std::size_t appends = mem.appends();
  rep.merge_key(kMech, "k", *source.find("k"));
  EXPECT_EQ(obs.total, 1);
  EXPECT_EQ(mem.appends(), appends);
}

TEST(ReplicaDirtyBit, CrashReportsEveryHeldKey) {
  CountingObserver obs;
  Replica<DvvMechanism> rep(0);
  rep.set_observer(&obs);
  for (const char* k : {"a", "b", "c"}) rep.put(kMech, k, 0, kClient, {}, "v");
  ASSERT_NE(rep.find_for_refresh("a"), nullptr);  // "a" clean, "b"/"c" dirty
  obs.touches.clear();
  obs.total = 0;

  rep.crash();
  EXPECT_EQ(obs.total, 3) << "trees must forget every key, dirty bit or not";
  for (const char* k : {"a", "b", "c"}) EXPECT_EQ(obs.touches[k], 1) << k;
}

}  // namespace
