// Unit tests for the message-passing layer (src/net): typed message
// codec roundtrips, InlineTransport's synchronous-in-order contract,
// SimTransport's seeded fault injection (drop / duplicate / reorder /
// partition), and the cluster-level flows that ride on it — queued
// replication windows, ack-guarded hint delivery, partitioned sync
// sessions — and ThreadedTransport's hosted-mode wake contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "kv/client.hpp"
#include "kv/cluster.hpp"
#include "kv/mechanism.hpp"
#include "net/message.hpp"
#include "net/sim_transport.hpp"
#include "net/threaded_transport.hpp"
#include "net/transport.hpp"
#include "routed_write.hpp"

namespace {

using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::DvvMechanism;
using dvv::kv::Key;
using dvv::kv::ReplicaId;
using dvv::net::Envelope;
using dvv::net::InlineTransport;
using dvv::net::Message;
using dvv::net::SimTransport;
using dvv::net::SimTransportConfig;
using dvv::net::ThreadedTransport;
using dvv::net::ThreadedTransportConfig;

// ---- message codec ---------------------------------------------------------

TEST(NetMessage, EveryTypeRoundTrips) {
  const std::vector<Message> messages = {
      dvv::net::ReplicateMsg{"key-1", std::string("\x01\x02\x00stateful", 11)},
      dvv::net::HintMsg{7, "key-2", "parked"},
      dvv::net::HintDeliverMsg{3, "key-3", "homeward"},
      dvv::net::HintAckMsg{3, "key-3", 0xdeadbeefULL},
      dvv::net::SyncReqMsg{42},
      dvv::net::SyncRespMsg{42, 3, 14, 9, 2, 1234},
  };
  for (const Message& msg : messages) {
    const std::string bytes = dvv::net::encode_to_bytes(msg);
    const Message back = dvv::net::decode_from_bytes(bytes);
    ASSERT_EQ(back.index(), msg.index());
    const std::string again = dvv::net::encode_to_bytes(back);
    EXPECT_EQ(again, bytes) << "decode/encode must be the identity";
  }
}

TEST(NetMessage, EncodingIsMetered) {
  // The wire size is the codec framing, not sizeof: a bigger payload
  // means proportionally more bytes.
  const auto small = dvv::net::encode_to_bytes(dvv::net::ReplicateMsg{"k", "v"});
  const auto large = dvv::net::encode_to_bytes(
      dvv::net::ReplicateMsg{"k", std::string(1000, 'v')});
  EXPECT_EQ(large.size(), small.size() + 999 + 1);  // +1: longer length varint
}

// ---- InlineTransport -------------------------------------------------------

Message probe(const std::string& tag) {
  return dvv::net::SyncReqMsg{std::hash<std::string>{}(tag)};
}

std::uint64_t nonce_of(const Envelope& e) {
  return std::get<dvv::net::SyncReqMsg>(*e.msg).nonce;
}

TEST(InlineTransport, DeliversSynchronouslyInSendOrder) {
  InlineTransport transport;
  std::vector<std::uint64_t> seen;
  transport.set_sink([&](const Envelope& e) { seen.push_back(nonce_of(e)); });
  transport.send(0, 1, dvv::net::SyncReqMsg{1});
  EXPECT_EQ(seen.size(), 1u) << "delivery happens inside send()";
  transport.send(1, 2, dvv::net::SyncReqMsg{2});
  transport.send(0, 2, dvv::net::SyncReqMsg{3});
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(transport.idle());
  EXPECT_EQ(transport.pump(), 0u);
  EXPECT_EQ(transport.stats().sent, 3u);
  EXPECT_EQ(transport.stats().delivered, 3u);
  // Metered wire bytes = the exact codec encoding (tag + nonce varint).
  EXPECT_EQ(transport.stats().wire_bytes,
            3 * dvv::net::encode_to_bytes(dvv::net::SyncReqMsg{1}).size());
}

TEST(InlineTransport, PartitionRefusesCrossGroupSends) {
  InlineTransport transport;
  std::size_t delivered = 0;
  transport.set_sink([&](const Envelope&) { ++delivered; });
  transport.partition({{0, 1}, {2, 3}}, "split");
  EXPECT_TRUE(transport.partitioned());
  EXPECT_EQ(transport.partition_label(), "split");

  transport.send(0, 1, probe("same side"));
  EXPECT_EQ(delivered, 1u);
  transport.send(0, 2, probe("cross"));
  EXPECT_EQ(delivered, 1u) << "cross-partition send is refused";
  EXPECT_EQ(transport.stats().partition_dropped, 1u);

  transport.heal();
  transport.send(0, 2, probe("after heal"));
  EXPECT_EQ(delivered, 2u);
}

TEST(InlineTransport, UnnamedNodesFormTheRemainderGroup) {
  InlineTransport transport;
  std::size_t delivered = 0;
  transport.set_sink([&](const Envelope&) { ++delivered; });
  transport.partition({{0}});  // isolate node 0 from everyone else
  transport.send(1, 2, probe("both in the remainder"));
  EXPECT_EQ(delivered, 1u);
  transport.send(0, 1, probe("isolated"));
  EXPECT_EQ(delivered, 1u);
}

// ---- SimTransport ----------------------------------------------------------

TEST(SimTransport, NothingDeliversBeforePump) {
  SimTransportConfig config;
  config.auto_settle = false;
  SimTransport transport(config);
  std::vector<std::uint64_t> seen;
  transport.set_sink([&](const Envelope& e) { seen.push_back(e.seq); });
  transport.send(0, 1, probe("x"));
  transport.send(0, 2, probe("y"));
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(transport.in_flight(), 2u);
  EXPECT_EQ(transport.pump(), 2u);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1})) << "FIFO without faults";
  EXPECT_TRUE(transport.idle());
}

TEST(SimTransport, AutoSettleDrainsOnSettle) {
  SimTransportConfig config;  // auto_settle defaults on
  SimTransport transport(config);
  std::size_t delivered = 0;
  transport.set_sink([&](const Envelope&) { ++delivered; });
  transport.send(0, 1, probe("x"));
  EXPECT_EQ(delivered, 0u);
  transport.settle();
  EXPECT_EQ(delivered, 1u);
  EXPECT_TRUE(transport.idle());
}

TEST(SimTransport, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    SimTransportConfig config;
    config.seed = seed;
    config.drop_probability = 0.2;
    config.duplicate_probability = 0.2;
    config.reorder_window = 4;
    config.auto_settle = false;
    // This test records one seq per sink call: keep per-envelope
    // delivery (batching coalesces same-link runs into one envelope).
    config.batch_delivery = false;
    SimTransport transport(config);
    std::vector<std::uint64_t> order;
    transport.set_sink([&](const Envelope& e) { order.push_back(e.seq); });
    for (int i = 0; i < 100; ++i) transport.send(0, 1, probe("m" + std::to_string(i)));
    transport.drain();
    return order;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

TEST(SimTransport, DropsAndDuplicatesAreCountedAndBounded) {
  SimTransportConfig config;
  config.seed = 3;
  config.drop_probability = 0.3;
  config.duplicate_probability = 0.3;
  config.auto_settle = false;
  // The sink-call count is compared against stats().delivered below,
  // which meters per message: keep per-envelope delivery.
  config.batch_delivery = false;
  SimTransport transport(config);
  std::size_t delivered = 0;
  transport.set_sink([&](const Envelope&) { ++delivered; });
  const std::size_t n = 1000;
  for (std::size_t i = 0; i < n; ++i) transport.send(0, 1, probe("m"));
  transport.drain();
  const auto& stats = transport.stats();
  EXPECT_EQ(stats.sent, n);
  EXPECT_GT(stats.dropped, n / 5);
  EXPECT_LT(stats.dropped, n / 2);
  // Only a surviving (non-dropped) send can leave a duplicate behind:
  // expect about 0.7 * 0.3 * n of them.
  EXPECT_GT(stats.duplicated, n / 10);
  EXPECT_EQ(delivered, stats.delivered);
  // Every surviving copy (original or duplicate of a non-dropped send)
  // is delivered exactly once.
  EXPECT_GE(delivered, n - stats.dropped);
  EXPECT_LE(delivered, n - stats.dropped + stats.duplicated);
}

TEST(SimTransport, ReorderWindowReordersDeliveries) {
  SimTransportConfig config;
  config.seed = 5;
  config.reorder_window = 5;
  config.auto_settle = false;
  // One recorded seq per delivered message, so per-envelope delivery.
  config.batch_delivery = false;
  SimTransport transport(config);
  std::vector<std::uint64_t> order;
  transport.set_sink([&](const Envelope& e) { order.push_back(e.seq); });
  for (int i = 0; i < 50; ++i) transport.send(0, 1, probe("m"));
  transport.drain();
  ASSERT_EQ(order.size(), 50u);
  bool out_of_order = false;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order) << "a 5-tick window must actually reorder";
}

TEST(SimTransport, PartitionKillsInFlightMessages) {
  SimTransportConfig config;
  config.auto_settle = false;
  SimTransport transport(config);
  std::size_t delivered = 0;
  transport.set_sink([&](const Envelope&) { ++delivered; });

  transport.send(0, 1, probe("in flight across the cut"));
  transport.partition({{0}, {1}});
  transport.drain();
  EXPECT_EQ(delivered, 0u) << "the cut forms while the message flies";
  EXPECT_EQ(transport.stats().partition_dropped, 1u);

  // Healing is not retroactive: the lost message stays lost.
  transport.heal();
  transport.drain();
  EXPECT_EQ(delivered, 0u);

  transport.send(0, 1, probe("after heal"));
  transport.drain();
  EXPECT_EQ(delivered, 1u);
}

// ---- cluster flows over the transport --------------------------------------

ClusterConfig sim_cluster_config(std::uint64_t seed = 11,
                                 bool auto_settle = false) {
  ClusterConfig cfg;
  cfg.servers = 6;
  cfg.replication = 3;
  cfg.vnodes = 32;
  cfg.transport.kind = dvv::net::TransportKind::kSim;
  cfg.transport.sim = SimTransportConfig{};
  cfg.transport.sim.seed = seed;
  cfg.transport.sim.auto_settle = auto_settle;
  return cfg;
}

TEST(ClusterTransport, ReplicationWindowIsRealQueuedState) {
  Cluster<DvvMechanism> cluster(sim_cluster_config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  cluster.put(key, dvv::kv::client_actor(0), {}, "v",
              dvv::test::routed(pref[0], cluster.preference_list(key)));

  EXPECT_TRUE(cluster.get(key, pref[0]).found) << "coordinator applied locally";
  EXPECT_FALSE(cluster.get(key, pref[1]).found) << "fan-out still in flight";
  EXPECT_EQ(cluster.transport().in_flight(), 2u);

  cluster.pump_all();
  EXPECT_TRUE(cluster.get(key, pref[1]).found);
  EXPECT_TRUE(cluster.get(key, pref[2]).found);
}

TEST(ClusterTransport, InFlightCopyDiesWithItsTarget) {
  Cluster<DvvMechanism> cluster(sim_cluster_config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  cluster.put(key, dvv::kv::client_actor(0), {}, "v",
              dvv::test::routed(pref[0], cluster.preference_list(key)));
  // The target pauses while the message is in flight: a dead process
  // receives nothing.
  cluster.replica(pref[1]).set_alive(false);
  cluster.pump_all();
  EXPECT_EQ(cluster.delivery_drops().replicate, 1u);
  cluster.replica(pref[1]).set_alive(true);
  EXPECT_FALSE(cluster.get(key, pref[1]).found)
      << "the copy must not teleport into a dead replica";
}

TEST(ClusterTransport, HintStaysParkedUntilDeliveryIsAcked) {
  Cluster<DvvMechanism> cluster(sim_cluster_config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  const auto order = cluster.ring().ring_order(key);
  cluster.replica(pref[2]).set_alive(false);
  cluster.put(key, dvv::kv::client_actor(0), {}, "v", dvv::test::handoff(pref[0]));
  cluster.pump_all();  // the HintMsg reaches the fallback
  ASSERT_EQ(cluster.hinted_count(), 1u);

  cluster.replica(pref[2]).set_alive(true);
  // The partition cuts holder from owner: the HintDeliverMsg is lost in
  // flight, so the hint must stay parked (no ack, no drop).
  EXPECT_EQ(cluster.deliver_hints(), 0u);
  cluster.partition({{order[3]}}, "holder isolated");
  cluster.pump_all();
  EXPECT_EQ(cluster.hinted_count(), 1u) << "unacked delivery keeps the hint";
  EXPECT_FALSE(cluster.get(key, pref[2]).found);

  // Heal and retry: delivery completes, the ack retires the hint.
  cluster.heal();
  (void)cluster.deliver_hints();
  cluster.pump_all();
  EXPECT_EQ(cluster.hinted_count(), 0u);
  EXPECT_TRUE(cluster.get(key, pref[2]).found);
}

TEST(ClusterTransport, PartitionedSyncRequestMeansNoSession) {
  Cluster<DvvMechanism> cluster(sim_cluster_config(11, true), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  // Divergence: the write lands on the coordinator only.
  cluster.put(key, dvv::kv::client_actor(0), {}, "v", dvv::test::routed(pref[0], {}));
  ASSERT_FALSE(cluster.get(key, pref[1]).found);

  cluster.partition({{pref[0]}, {pref[1]}});
  const auto cut = cluster.anti_entropy_digest_pair(pref[0], pref[1]);
  EXPECT_EQ(cut.keys_shipped, 0u) << "the request died on the cut link";
  EXPECT_FALSE(cluster.get(key, pref[1]).found);

  cluster.heal();
  const auto healed = cluster.anti_entropy_digest_pair(pref[0], pref[1]);
  EXPECT_GT(healed.keys_shipped, 0u);
  EXPECT_TRUE(cluster.get(key, pref[1]).found);
}

// Regression: the read-repair fold used to gather from and scatter to
// every alive preference owner in shared memory, leaking state across
// an active partition the transport was dutifully enforcing for the
// messages.  A repair initiated on one side must be blind to the other.
TEST(ClusterTransport, RepairCannotCrossAnActivePartition) {
  Cluster<DvvMechanism> cluster(sim_cluster_config(23, true), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  // Divergence on pref[2] only: it alone holds the write.
  cluster.put(key, dvv::kv::client_actor(0), {}, "island",
              dvv::test::routed(pref[2], {}));
  ASSERT_TRUE(cluster.get(key, pref[2]).found);
  ASSERT_FALSE(cluster.get(key, pref[0]).found);

  // Cut pref[2] off, then sync the two same-side owners: the repair
  // must not read the islanded replica's state (nothing to ship — both
  // reachable owners agree the key is missing) nor write to it.
  cluster.partition({{pref[2]}}, "island");
  const auto stats = cluster.anti_entropy_digest_pair(pref[0], pref[1]);
  EXPECT_EQ(stats.keys_shipped, 0u)
      << "the islanded write must be invisible to the same-side pair";
  EXPECT_FALSE(cluster.get(key, pref[0]).found)
      << "repair must not smuggle state across the cut";
  EXPECT_FALSE(cluster.get(key, pref[1]).found);

  // The full digest pass under the cut repairs only within sides...
  cluster.anti_entropy_digest();
  EXPECT_FALSE(cluster.get(key, pref[0]).found);
  EXPECT_TRUE(cluster.get(key, pref[2]).found) << "the island keeps its write";

  // ...and heal() lets the next pass reconcile everyone.
  cluster.heal();
  cluster.anti_entropy_digest();
  for (const ReplicaId r : pref) {
    EXPECT_TRUE(cluster.get(key, r).found) << "replica " << r;
  }
}

// Regression: receipts must not count targets the coordinator cannot
// reach — a cross-partition fan-out or hint park is refused at send,
// and the receipt has to say so instead of reporting phantom copies.
TEST(ClusterTransport, ReceiptsDoNotCountUnreachableTargets) {
  Cluster<DvvMechanism> cluster(sim_cluster_config(29, true), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  const auto order = cluster.ring().ring_order(key);

  // Fan-out: one preference member across the cut.
  cluster.partition({{pref[1]}}, "cut replica");
  const auto put_receipt =
      cluster.put(key, dvv::kv::client_actor(0), {}, "v",
                  dvv::test::routed(pref[0], pref));
  EXPECT_EQ(put_receipt.replicated_to, 1u)
      << "only the reachable member counts";

  // Handoff: the owner is dead and every fallback is unreachable.
  cluster.heal();
  cluster.replica(pref[2]).set_alive(false);
  std::vector<dvv::net::NodeId> fallbacks(order.begin() + 3, order.end());
  cluster.partition({{pref[0], pref[1], pref[2]}}, "fallbacks cut off");
  const auto handoff_receipt =
      cluster.put(key, dvv::kv::client_actor(0), {}, "w", dvv::test::handoff(pref[0]));
  EXPECT_EQ(handoff_receipt.hinted, 0u) << "no reachable fallback to park on";
  EXPECT_EQ(handoff_receipt.unparked, 1u) << "the uncovered owner is reported";
  EXPECT_EQ(cluster.hinted_count(), 0u);
}

TEST(ClusterTransport, DuplicatedDeliveriesAreIdempotent) {
  auto cfg = sim_cluster_config(17, true);
  cfg.transport.sim.duplicate_probability = 1.0;  // every message twice
  Cluster<DvvMechanism> cluster(cfg, {});
  dvv::kv::ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  const Key key = "k";
  alice.put(key, "v1");
  alice.rmw(key, [](const auto&) { return std::string("v2"); });
  EXPECT_GT(cluster.transport().stats().duplicated, 0u);
  for (const ReplicaId r : cluster.preference_list(key)) {
    const auto got = cluster.get(key, r);
    ASSERT_TRUE(got.found);
    EXPECT_EQ(got.values, std::vector<std::string>{"v2"}) << "replica " << r;
  }
  // Nothing left to repair: duplicate deliveries did not fork state.
  EXPECT_EQ(cluster.anti_entropy(), 0u);
}

// ---- ThreadedTransport, hosted mode ----------------------------------------

/// Two hosted shards whose wake hooks count instead of writing an
/// eventfd; the test thread plays the host and pumps by hand.
struct CountingHost {
  CountingHost() : transport(ThreadedTransportConfig{2}) {
    for (std::size_t s = 0; s < 2; ++s) {
      transport.set_wake_hook(s, [this, s] { wakes[s].fetch_add(1); });
    }
  }
  ThreadedTransport transport;
  std::atomic<int> wakes[2] = {0, 0};
};

TEST(ThreadedTransportHosted, WakesOncePerEmptyToNonEmptyEdge) {
  CountingHost host;
  int delivered = 0;
  host.transport.set_sink([&](const Envelope&) { ++delivered; });
  // Nodes 0, 2, 4 all live in shard 0.
  for (int i = 0; i < 5; ++i) host.transport.send(1, 2 * i % 6, probe("n"));
  EXPECT_EQ(host.wakes[0].load(), 1) << "one wake for the whole run";
  EXPECT_EQ(host.wakes[1].load(), 0);
  EXPECT_EQ(host.transport.pump_shard(0), 5u);
  EXPECT_EQ(delivered, 5);

  host.transport.send(1, 0, probe("n"));
  EXPECT_EQ(host.wakes[0].load(), 2) << "the drained inbox wakes again";
  host.transport.post(0, [] {});
  EXPECT_EQ(host.wakes[0].load(), 2);
  EXPECT_EQ(host.transport.pump_shard(0), 2u);
  EXPECT_TRUE(host.transport.idle());
  EXPECT_EQ(host.transport.stats().sent, 6u);
  EXPECT_EQ(host.transport.stats().wire_bytes,
            6 * dvv::net::encode_to_bytes(probe("n")).size());
}

TEST(ThreadedTransportHosted, EntryEnqueuedDuringAPumpStillWakes) {
  CountingHost host;
  std::vector<dvv::net::NodeId> seen;
  host.transport.set_sink([&](const Envelope& e) {
    seen.push_back(e.to);
    // A delivery that sends onward into its own shard, mid-pump.
    if (e.to == 0) host.transport.send(0, 2, probe("onward"));
  });
  host.transport.send(1, 0, probe("first"));
  ASSERT_EQ(host.wakes[0].load(), 1);
  EXPECT_EQ(host.transport.pump_shard(0), 1u) << "a pump runs only its swap";
  EXPECT_EQ(host.wakes[0].load(), 2) << "the onward entry found the inbox empty";
  EXPECT_EQ(host.transport.in_flight(), 1u);
  // The same holds for a posted closure that posts again.
  host.transport.post(1, [&host] { host.transport.post(1, [] {}); });
  ASSERT_EQ(host.wakes[1].load(), 1);
  EXPECT_EQ(host.transport.pump_shard(1), 1u);
  EXPECT_EQ(host.wakes[1].load(), 2);
  EXPECT_EQ(host.transport.pump_shard(0), 1u);
  EXPECT_EQ(host.transport.pump_shard(1), 1u);
  EXPECT_TRUE(host.transport.idle());
  EXPECT_EQ(seen, (std::vector<dvv::net::NodeId>{0, 2}));
}

TEST(ThreadedTransportHosted, MultiProducerStressReachesQuiescence) {
  // Host threads follow the contract: consume the wake, then pump.  A
  // lost wake would strand entries, so idle() would never read true.
  // Closures rather than messages: the wake path is the same.
  constexpr std::size_t kShards = 2;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 4000;
  ThreadedTransport transport(ThreadedTransportConfig{kShards});
  struct WakeFlag {
    std::mutex mutex;
    std::condition_variable cv;
    bool raised = false;
  };
  WakeFlag flags[kShards];
  for (std::size_t s = 0; s < kShards; ++s) {
    transport.set_wake_hook(s, [&flag = flags[s]] {
      const std::lock_guard<std::mutex> lock(flag.mutex);
      flag.raised = true;
      flag.cv.notify_one();
    });
  }
  std::atomic<bool> halt{false};
  std::vector<std::thread> hosts;
  for (std::size_t s = 0; s < kShards; ++s) {
    hosts.emplace_back([&, s] {
      WakeFlag& flag = flags[s];
      while (true) {
        {
          std::unique_lock<std::mutex> lock(flag.mutex);
          flag.cv.wait(lock, [&] { return flag.raised || halt.load(); });
          if (!flag.raised) return;  // halted with no wake pending
          flag.raised = false;       // drain BEFORE the pump
        }
        (void)transport.pump_shard(s);
      }
    });
  }
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&transport, &ran, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::size_t shard = static_cast<std::size_t>(p + i) % kShards;
        const bool cascade = i % 2 == 0;
        transport.post(shard, [&transport, &ran, shard, cascade] {
          ran.fetch_add(1);
          // Enqueued from a host thread mid-pump, into the other shard.
          if (cascade) transport.post(1 - shard, [&ran] { ran.fetch_add(1); });
        });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!transport.idle() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool reached = transport.idle();
  if (reached) transport.quiesce();
  halt.store(true);
  for (WakeFlag& flag : flags) {
    const std::lock_guard<std::mutex> lock(flag.mutex);
    flag.cv.notify_one();
  }
  for (std::thread& t : hosts) t.join();
  ASSERT_TRUE(reached) << "entries stranded: " << transport.in_flight();
  EXPECT_EQ(ran.load(), kProducers * kPerProducer * 3 / 2);
}

}  // namespace
