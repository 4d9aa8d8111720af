// Unit tests for the per-request quorum coordination engine
// (src/kv/coordinator.hpp): request-id slot/generation recycling,
// partial-quorum completion, tick deadlines, and — the heart of it —
// reply hygiene: duplicate replies count once, late replies cannot
// touch finished state, and stale replies cannot corrupt a reused
// request slot.
#include "kv/coordinator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "kv/client.hpp"
#include "kv/cluster.hpp"
#include "kv/mechanism.hpp"
#include "net/sim_transport.hpp"
#include "net/transport.hpp"
#include "routed_write.hpp"

namespace {

using dvv::kv::ClientSession;
using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::CoordOutcome;
using dvv::kv::DvvMechanism;
using dvv::kv::Key;
using dvv::kv::ReplicaId;
using dvv::kv::RequestTable;

ClusterConfig inline_config() {
  ClusterConfig cfg;
  cfg.servers = 5;
  cfg.replication = 3;
  cfg.vnodes = 32;
  cfg.transport.kind = dvv::net::TransportKind::kInline;
  cfg.transport.sim = dvv::net::SimTransportConfig{};
  return cfg;
}

ClusterConfig sim_config(double drop = 0.0, double dup = 0.0,
                         std::size_t reorder = 0) {
  ClusterConfig cfg = inline_config();
  cfg.transport.kind = dvv::net::TransportKind::kSim;
  cfg.transport.sim.seed = 42;
  cfg.transport.sim.drop_probability = drop;
  cfg.transport.sim.duplicate_probability = dup;
  cfg.transport.sim.reorder_window = reorder;
  cfg.transport.sim.auto_settle = false;  // real in-flight windows
  return cfg;
}

// ---- RequestTable: slot + generation recycling ------------------------------

TEST(RequestTable, SlotsRecycleUnderFreshGenerations) {
  RequestTable table;
  const std::uint64_t a = table.acquire();
  EXPECT_TRUE(table.is_current(a));
  EXPECT_FALSE(table.is_stale(a));
  EXPECT_EQ(table.open_count(), 1u);

  table.retire(a);
  EXPECT_FALSE(table.is_current(a));
  EXPECT_TRUE(table.is_stale(a)) << "a retired id is dead forever";
  EXPECT_EQ(table.open_count(), 0u);

  const std::uint64_t b = table.acquire();
  EXPECT_EQ(RequestTable::slot_of(a), RequestTable::slot_of(b))
      << "the slot recycles";
  EXPECT_NE(a, b) << "the id never does";
  EXPECT_GT(RequestTable::generation_of(b), RequestTable::generation_of(a));
  EXPECT_TRUE(table.is_current(b));
  EXPECT_FALSE(table.is_current(a)) << "the old tenant cannot resolve";
}

TEST(RequestTable, ManyConcurrentRequestsGetDistinctSlots) {
  RequestTable table;
  std::set<std::size_t> slots;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(table.acquire());
  for (const std::uint64_t id : ids) slots.insert(RequestTable::slot_of(id));
  EXPECT_EQ(slots.size(), 100u);
  for (const std::uint64_t id : ids) table.retire(id);
  EXPECT_EQ(table.open_count(), 0u);
}

// ---- quorum completion ------------------------------------------------------

TEST(Coordinator, QuorumReadCompletesWithExactResponderSet) {
  Cluster<DvvMechanism> cluster(inline_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  alice.put("k", "v");
  const auto pref = cluster.preference_list("k");

  dvv::kv::ReadOptions opts;
  opts.coordinator = pref[0];
  const std::uint64_t id = cluster.begin_read("k", 2, opts);
  ASSERT_TRUE(cluster.request_terminal(id)) << "inline replies are immediate";
  const auto harvest = cluster.take_read_result(id);
  EXPECT_EQ(harvest.outcome, CoordOutcome::kQuorum);
  EXPECT_EQ(harvest.responders, (std::vector<ReplicaId>{pref[0], pref[1]}))
      << "the receipt reports exactly which replicas answered, in order";
  EXPECT_EQ(harvest.asked, 2u);
  EXPECT_TRUE(harvest.result.found);
  EXPECT_FALSE(harvest.result.degraded);
}

TEST(Coordinator, WriteQuorumCountsDistinctAcks) {
  Cluster<DvvMechanism> cluster(sim_config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  dvv::kv::WriteOptions opts;
  opts.write_quorum = 2;
  opts.coordinator = pref[0];
  opts.replicate_to = pref;
  const std::uint64_t id =
      cluster.begin_write(key, dvv::kv::client_actor(0), {}, "v", opts);
  EXPECT_FALSE(cluster.request_terminal(id))
      << "W=2 needs one remote ack; everything is still queued";
  cluster.pump_all();  // fan-out lands, acks ride back
  ASSERT_TRUE(cluster.request_terminal(id));
  const auto receipt = cluster.take_write_receipt(id);
  EXPECT_EQ(receipt.outcome, CoordOutcome::kQuorum);
  EXPECT_GE(receipt.acks(), 2u);
  EXPECT_EQ(receipt.acked_by.front(), pref[0])
      << "the coordinator's local apply is always the first ack";
  EXPECT_EQ(receipt.replicated_to, 2u);
  EXPECT_FALSE(receipt.degraded);
}

// Satellite regression: duplicate replies — the transport's dup fault
// redelivers scatter messages AND replies — must count ONCE toward the
// quorum, and the engine must report the drops.
TEST(Coordinator, CoordDupReplyCountsOnce) {
  Cluster<DvvMechanism> cluster(sim_config(0.0, 1.0, 0), {});  // dup everything
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  alice.put("k", "v");
  cluster.pump_all();

  const auto pref = cluster.preference_list("k");
  dvv::kv::ReadOptions ropts;
  ropts.coordinator = pref[0];
  const std::uint64_t id = cluster.begin_read("k", 3, ropts);
  cluster.pump_all();
  ASSERT_TRUE(cluster.request_terminal(id));
  const auto harvest = cluster.take_read_result(id);
  EXPECT_EQ(harvest.outcome, CoordOutcome::kQuorum);
  EXPECT_EQ(harvest.result.replies, 3u) << "three distinct responders, not six";
  const std::set<ReplicaId> distinct(harvest.responders.begin(),
                                     harvest.responders.end());
  EXPECT_EQ(distinct.size(), harvest.responders.size())
      << "no responder may be counted twice";
  EXPECT_GT(cluster.coord_stats().duplicate_replies_dropped, 0u)
      << "the duplicated deliveries must have reached the engine and died";

  // Writes: every CoordWriteReq is duplicated, so every target merges
  // twice and acks twice — the quorum still counts each replica once.
  dvv::kv::WriteOptions opts;
  opts.write_quorum = 3;
  opts.coordinator = pref[0];
  opts.replicate_to = pref;
  const std::uint64_t wid =
      cluster.begin_write("k", dvv::kv::client_actor(0), {}, "w", opts);
  cluster.pump_all();
  ASSERT_TRUE(cluster.request_terminal(wid));
  const auto receipt = cluster.take_write_receipt(wid);
  EXPECT_EQ(receipt.outcome, CoordOutcome::kQuorum);
  const std::set<ReplicaId> acked(receipt.acked_by.begin(),
                                  receipt.acked_by.end());
  EXPECT_EQ(acked.size(), receipt.acked_by.size());
  EXPECT_EQ(receipt.acks(), 3u);
}

// ---- deadlines and late replies --------------------------------------------

TEST(Coordinator, DeadlineExpiresPendingRequestAsDegradedTimeout) {
  Cluster<DvvMechanism> cluster(sim_config(1.0, 0.0, 0), {});  // drop everything
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  alice.put("k", "v");  // coordinator holds it; fan-out drops are fine
  const auto pref = cluster.preference_list("k");

  // (The put above already timed out once: its fan-out acks all
  // dropped, so the synchronous shim finalized it at return.)
  const std::size_t timeouts_before = cluster.coord_stats().timeouts;
  dvv::kv::ReadOptions opts;
  opts.deadline_ticks = 2;
  opts.coordinator = pref[0];
  const std::uint64_t id = cluster.begin_read("k", 3, opts);
  EXPECT_FALSE(cluster.request_terminal(id));
  cluster.pump();  // tick 1
  EXPECT_FALSE(cluster.request_terminal(id));
  cluster.pump();  // tick 2: deadline
  ASSERT_TRUE(cluster.request_terminal(id));
  const auto harvest = cluster.take_read_result(id);
  EXPECT_EQ(harvest.outcome, CoordOutcome::kTimeout);
  EXPECT_EQ(harvest.result.replies, 1u) << "only the local read answered";
  EXPECT_TRUE(harvest.result.degraded);
  EXPECT_TRUE(harvest.result.found) << "partial data still comes back";
  EXPECT_EQ(cluster.coord_stats().timeouts, timeouts_before + 1);
}

// Satellite regression: a reply arriving AFTER its request completed
// (or timed out) is dropped without touching the finished state, and a
// reply aimed at a harvested-and-REUSED request slot is recognized by
// generation and cannot corrupt the slot's new tenant.
TEST(Coordinator, LateReplyCannotCorruptFinishedOrReusedSlot) {
  // Huge reorder window: scatter replies crawl while deadlines fire.
  Cluster<DvvMechanism> cluster(sim_config(0.0, 0.0, 12), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  alice.put("a", "va");
  alice.put("b", "vb");
  cluster.pump_all();

  const auto pref_a = cluster.preference_list("a");
  dvv::kv::ReadOptions fast;
  fast.deadline_ticks = 1;
  fast.coordinator = pref_a[0];
  const std::uint64_t first = cluster.begin_read("a", 3, fast);
  cluster.pump();  // deadline: completes as timeout, replies still in flight
  ASSERT_TRUE(cluster.request_terminal(first));
  const auto timed_out = cluster.take_read_result(first);
  EXPECT_EQ(timed_out.outcome, CoordOutcome::kTimeout);

  // The slot recycles to a new request for a DIFFERENT key.
  const auto pref_b = cluster.preference_list("b");
  dvv::kv::ReadOptions patient;
  patient.deadline_ticks = 64;
  patient.coordinator = pref_b[0];
  const std::uint64_t second = cluster.begin_read("b", 3, patient);
  EXPECT_EQ(RequestTable::slot_of(first), RequestTable::slot_of(second))
      << "the test must actually exercise slot reuse";
  ASSERT_NE(first, second);

  // Drain: the FIRST request's crawling replies now land on a retired
  // id whose slot belongs to `second` — generation hygiene drops them.
  cluster.pump_all();
  EXPECT_GT(cluster.coord_stats().stale_replies_dropped, 0u)
      << "the old request's stragglers must be recognized as stale";
  ASSERT_TRUE(cluster.request_terminal(second));
  const auto harvest = cluster.take_read_result(second);
  EXPECT_EQ(harvest.outcome, CoordOutcome::kQuorum);
  EXPECT_EQ(harvest.result.replies, 3u);
  ASSERT_TRUE(harvest.result.found);
  ASSERT_EQ(harvest.result.values.size(), 1u);
  EXPECT_EQ(harvest.result.values[0], "vb")
      << "a stale reply for key `a` must never leak into key `b`'s read";
  for (const ReplicaId r : harvest.responders) {
    EXPECT_TRUE(std::find(pref_b.begin(), pref_b.end(), r) != pref_b.end());
  }
}

// ---- unavailable and read repair -------------------------------------------

TEST(Coordinator, WholePreferenceListDownCompletesUnavailable) {
  Cluster<DvvMechanism> cluster(inline_config(), {});
  const auto pref = cluster.preference_list("k");
  for (const ReplicaId r : pref) cluster.replica(r).set_alive(false);
  const std::uint64_t id = cluster.begin_read("k", 2);
  ASSERT_TRUE(cluster.request_terminal(id));
  const auto harvest = cluster.take_read_result(id);
  EXPECT_EQ(harvest.outcome, CoordOutcome::kUnavailable);
  EXPECT_TRUE(harvest.result.unavailable);
  EXPECT_EQ(harvest.result.replies, 0u);
}

// The synchronous put() shim's rules, on a transport that queues every
// send and drains only when settled: a W=1 put returns on its local
// apply WITHOUT settling (the dvvd write: on a shard thread a settle
// would wait on the thread itself), every other put settles before it
// returns, and a put with no coordinator to resolve is unavailable
// without starting an engine request.
TEST(Coordinator, PutSettlesUnlessW1AndStartsNothingWhenUnavailable) {
  ClusterConfig cfg = sim_config();
  cfg.transport.sim.auto_settle = true;
  Cluster<DvvMechanism> cluster(cfg, {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);

  dvv::kv::WriteOptions w1;
  w1.write_quorum = 1;
  const auto fast = cluster.put(key, dvv::kv::client_actor(0), {}, "v1", w1);
  EXPECT_EQ(fast.outcome, CoordOutcome::kQuorum);
  EXPECT_EQ(fast.acked_by, (std::vector<ReplicaId>{pref[0]}));
  EXPECT_EQ(fast.replicated_to, pref.size() - 1);
  EXPECT_GT(cluster.transport().in_flight(), 0u)
      << "a W=1 put must leave its fan-out in flight";
  cluster.pump_all();

  const auto settled = cluster.put(key, dvv::kv::client_actor(0), {}, "v2");
  EXPECT_EQ(settled.outcome, CoordOutcome::kQuorum);
  EXPECT_EQ(settled.acks(), pref.size());
  EXPECT_EQ(cluster.transport().in_flight(), 0u)
      << "a default put returns with the transport settled";

  for (const ReplicaId r : pref) cluster.replica(r).set_alive(false);
  const std::size_t started = cluster.coord_stats().writes_started;
  const auto down = cluster.put(key, dvv::kv::client_actor(0), {}, "v3");
  EXPECT_TRUE(down.unavailable);
  EXPECT_EQ(down.outcome, CoordOutcome::kUnavailable);
  EXPECT_EQ(cluster.coord_stats().writes_started, started)
      << "an unresolvable put must not start an engine request";

  // The asynchronous form still hands back a harvestable request.
  const std::uint64_t id =
      cluster.begin_write(key, dvv::kv::client_actor(0), {}, "v4");
  ASSERT_TRUE(cluster.request_terminal(id));
  const auto receipt = cluster.take_write_receipt(id);
  EXPECT_TRUE(receipt.unavailable);
  EXPECT_EQ(receipt.outcome, CoordOutcome::kUnavailable);
}

TEST(Coordinator, ReadRepairScattersMergedStateToDivergentResponders) {
  Cluster<DvvMechanism> cluster(inline_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  ClientSession<DvvMechanism> bob(dvv::kv::client_actor(1), cluster);
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  // Divergence: two sibling writes on two different replicas only.
  alice.put(key, "at-0", dvv::test::routed(pref[0], {}));
  bob.put(key, "at-1", dvv::test::routed(pref[1], {}));

  dvv::kv::ReadOptions opts;
  opts.read_repair = true;
  opts.coordinator = pref[0];
  const std::uint64_t id = cluster.begin_read(key, 3, opts);
  ASSERT_TRUE(cluster.request_terminal(id));
  const auto harvest = cluster.take_read_result(id);
  EXPECT_EQ(harvest.result.values.size(), 2u) << "the merge sees both siblings";

  // Every responder now holds the merged two-sibling state.
  for (const ReplicaId r : harvest.responders) {
    EXPECT_EQ(cluster.get(key, r).values.size(), 2u) << "replica " << r;
  }
}

TEST(Coordinator, PlainGetQuorumDoesNotWriteBack) {
  Cluster<DvvMechanism> cluster(inline_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  ClientSession<DvvMechanism> bob(dvv::kv::client_actor(1), cluster);
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  alice.put(key, "at-0", dvv::test::routed(pref[0], {}));
  bob.put(key, "at-1", dvv::test::routed(pref[1], {}));

  const auto merged = cluster.get_quorum(key, 3);
  EXPECT_EQ(merged.values.size(), 2u);
  EXPECT_EQ(cluster.get(key, pref[0]).values.size(), 1u)
      << "no write-back without read_repair";
  EXPECT_EQ(cluster.get(key, pref[1]).values.size(), 1u);
}

}  // namespace
