// Chaos property suite for the quorum-coordination engine
// (src/kv/coordinator.hpp) — the late/duplicate/stale reply-safety
// claims under real network weather, with CONCURRENT client operations.
//
// Claim 1 (exact mechanisms): run a seeded workload where many
// coordinated reads (R=3) and writes (W=3, short deadlines) are in
// flight AT ONCE over a manually-pumped SimTransport with message drop
// + duplication + reorder + partition/heal storms.  Requests time out
// mid-flight, their replies land late on retired ids, slots are reused
// by later requests — and none of it may corrupt a byte: once the
// network quiesces, the digest anti-entropy fixed point is
// BYTE-IDENTICAL to an unfaulted inline twin that ran the same writes
// synchronously.  (Client decisions are network-independent: every
// key's slot-0 replica coordinates every write and serves the context
// read, so every byte of divergence is attributable to the faults —
// and to any coordination-engine bug this test exists to catch.)  The
// VV baselines get the exemptions their own kernels force: server-VV
// is delivery-order-unsound outright, and client-VV can resurrect a
// context-discarded sibling from a stale fold (false concurrency) —
// for it the test pins the weaker sound property, no lost updates.
//
// Claim 2: the async trace replay (workload/replay.hpp, kTick ops +
// begin_read/begin_write) keeps the causal-history oracle's lockstep
// guarantee — fault decisions are drawn at send time in send order,
// payload-independent — so DVV/DVVSet stay EXACT under concurrent-op
// chaos while the Fig. 1b server-VV scheme loses updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "codec/clock_codec.hpp"
#include "kv/cluster.hpp"
#include "kv/coordinator.hpp"
#include "kv/mechanism.hpp"
#include "net/sim_transport.hpp"
#include "net/transport.hpp"
#include "oracle/audit.hpp"
#include "util/rng.hpp"
#include "workload/replay.hpp"
#include "workload/trace.hpp"
#include "routed_write.hpp"

namespace {

using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::Key;
using dvv::kv::ReplicaId;
using dvv::net::SimTransport;
using dvv::util::Rng;

constexpr std::size_t kServers = 6;
constexpr std::size_t kKeys = 24;
constexpr std::size_t kClients = 5;
constexpr std::size_t kOps = 500;

ClusterConfig chaos_config(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.servers = kServers;
  cfg.replication = 3;
  cfg.vnodes = 32;
  cfg.transport.kind = dvv::net::TransportKind::kSim;
  cfg.transport.sim = dvv::net::SimTransportConfig{};
  cfg.transport.sim.seed = seed ^ 0xc0042ULL;
  cfg.transport.sim.drop_probability = 0.10;
  cfg.transport.sim.duplicate_probability = 0.15;
  cfg.transport.sim.reorder_window = 4;
  cfg.transport.sim.auto_settle = false;  // real in-flight windows
  return cfg;
}

ClusterConfig twin_config() {
  ClusterConfig cfg;
  cfg.servers = kServers;
  cfg.replication = 3;
  cfg.vnodes = 32;
  cfg.transport.kind = dvv::net::TransportKind::kInline;
  cfg.transport.sim = dvv::net::SimTransportConfig{};
  return cfg;
}

/// The chaotic half: concurrent begin_read/begin_write requests with
/// short deadlines racing partitions, drops, dups and reorder.  Open
/// requests pile up, time out, and get harvested out of order; their
/// stragglers hit retired and reused slots.  Write contexts come from
/// the slot-0 coordinator's LOCAL state, so the write set is identical
/// to the twin's by construction.
template <typename M>
void run_concurrent(Cluster<M>& cluster, std::uint64_t seed) {
  Rng rng(seed);
  Rng net_rng(seed ^ 0x9e37ULL);
  std::vector<std::pair<std::uint64_t, bool>> in_flight;  // id, is_read

  // Harvesting discards the receipts on purpose: it frees the slots
  // for reuse, which is precisely what the stale-reply hygiene must
  // survive.
  const auto drain_completed = [&] {
    for (const std::uint64_t id : cluster.take_completed_requests()) {
      const auto it =
          std::find_if(in_flight.begin(), in_flight.end(),
                       [&](const auto& p) { return p.first == id; });
      ASSERT_NE(it, in_flight.end());
      if (it->second) {
        (void)cluster.take_read_result(id);
      } else {
        (void)cluster.take_write_receipt(id);
      }
      in_flight.erase(it);
    }
  };

  for (std::size_t op = 0; op < kOps; ++op) {
    const bool do_partition = net_rng.chance(0.04);
    const bool do_heal = net_rng.chance(0.10);
    const bool do_pump = net_rng.chance(0.60);
    const auto groups = dvv::net::random_split<ReplicaId>(net_rng, kServers);

    if (do_partition && !cluster.transport().partitioned()) {
      cluster.partition(groups, "chaos");
    } else if (do_heal && cluster.transport().partitioned()) {
      cluster.heal();
    }
    if (do_pump) {
      cluster.pump();
      drain_completed();
    }

    const Key key = "key-" + std::to_string(rng.index(kKeys));
    const ReplicaId coordinator = cluster.preference_list(key)[0];
    const std::size_t client = rng.index(kClients);
    const bool rmw = rng.chance(0.7);
    typename M::Context ctx{};
    if (rmw) {
      // Context from the coordinator's LOCAL state: no transport fault
      // can touch it, so the twin computes the identical context.
      ctx = cluster.get(key, coordinator).context;
    }
    dvv::kv::WriteOptions wopts;
    wopts.write_quorum = 3;
    wopts.deadline_ticks = 3;  // short: timeouts are common, on purpose
    wopts.coordinator = coordinator;
    wopts.replicate_to = cluster.preference_list(key);
    in_flight.emplace_back(
        cluster.begin_write(key, dvv::kv::client_actor(client), ctx,
                            "w" + std::to_string(op), wopts),
        false);

    if (rng.chance(0.5)) {
      // A concurrent quorum read whose replies race everything above.
      dvv::kv::ReadOptions ropts;
      ropts.deadline_ticks = 2 + rng.index(4);
      ropts.coordinator = coordinator;
      in_flight.emplace_back(cluster.begin_read(key, 3, ropts), true);
    }
    drain_completed();
  }

  // Quiesce the request plane: finalize whatever is still pending and
  // harvest everything (frees every slot; stragglers in the queues will
  // land on retired generations during the final drain).
  for (const auto& [id, is_read] : in_flight) {
    (void)cluster.finalize_request(id);
  }
  drain_completed();
  ASSERT_TRUE(in_flight.empty());
}

/// The unfaulted half: the same writes, synchronous, inline.
template <typename M>
void run_twin(Cluster<M>& cluster, std::uint64_t seed) {
  Rng rng(seed);
  Rng net_rng(seed ^ 0x9e37ULL);  // consumed identically, acted on never
  for (std::size_t op = 0; op < kOps; ++op) {
    (void)net_rng.chance(0.04);
    (void)net_rng.chance(0.10);
    (void)net_rng.chance(0.60);
    (void)dvv::net::random_split<ReplicaId>(net_rng, kServers);

    const Key key = "key-" + std::to_string(rng.index(kKeys));
    const ReplicaId coordinator = cluster.preference_list(key)[0];
    const std::size_t client = rng.index(kClients);
    const bool rmw = rng.chance(0.7);
    typename M::Context ctx{};
    if (rmw) ctx = cluster.get(key, coordinator).context;
    cluster.put(key, dvv::kv::client_actor(client), ctx, "w" + std::to_string(op),
                dvv::test::routed(coordinator, cluster.preference_list(key)));
    if (rng.chance(0.5)) {
      (void)rng.index(4);  // the faulted run's read deadline draw
    }
  }
}

/// Quiesce the network and drive repair to its fixed point.
template <typename M>
void quiesce(Cluster<M>& cluster) {
  auto* sim = dynamic_cast<SimTransport*>(&cluster.transport());
  if (sim != nullptr) sim->set_fault_rates(0.0, 0.0, 0);
  cluster.heal();
  cluster.pump_all();
  cluster.anti_entropy_digest();
}

/// Per-(replica, key) sibling VALUE sets (the soundness comparison for
/// mechanisms whose byte encodings are delivery-order artifacts).
template <typename M>
std::map<std::pair<ReplicaId, Key>, std::set<std::string>> full_values(
    Cluster<M>& cluster) {
  std::map<std::pair<ReplicaId, Key>, std::set<std::string>> out;
  for (ReplicaId r = 0; r < cluster.servers(); ++r) {
    for (const Key& key : cluster.replica(r).keys()) {
      auto values = cluster.mechanism().values_of(*cluster.replica(r).find(key));
      out[{r, key}] = std::set<std::string>(values.begin(), values.end());
    }
  }
  return out;
}

template <typename M>
std::map<std::pair<ReplicaId, Key>, std::string> full_state(Cluster<M>& cluster) {
  std::map<std::pair<ReplicaId, Key>, std::string> out;
  for (ReplicaId r = 0; r < cluster.servers(); ++r) {
    for (const Key& key : cluster.replica(r).keys()) {
      dvv::codec::Writer w;
      dvv::codec::encode(w, *cluster.replica(r).find(key));
      const auto* p = reinterpret_cast<const char*>(w.buffer().data());
      out.emplace(std::make_pair(r, key), std::string(p, w.size()));
    }
  }
  return out;
}

template <typename M>
class CoordinatorChaosTest : public ::testing::Test {};

using AllMechanisms =
    ::testing::Types<dvv::kv::DvvMechanism, dvv::kv::DvvSetMechanism,
                     dvv::kv::ServerVvMechanism, dvv::kv::ClientVvMechanism,
                     dvv::kv::VveMechanism, dvv::kv::HistoryMechanism>;
TYPED_TEST_SUITE(CoordinatorChaosTest, AllMechanisms);

TYPED_TEST(CoordinatorChaosTest,
           ConcurrentOpsUnderChaosConvergeToUnfaultedTwinFixedPoint) {
  for (const std::uint64_t seed : {7ULL, 123ULL, 20120716ULL}) {
    Cluster<TypeParam> faulted(chaos_config(seed), {});
    Cluster<TypeParam> twin(twin_config(), {});
    run_concurrent(faulted, seed);
    run_twin(twin, seed);

    // The chaos — including the COORDINATION chaos — must have actually
    // happened: messages died and duplicated, requests timed out, and
    // replies landed late or on reused slots.
    const auto& net = faulted.transport().stats();
    ASSERT_GT(net.dropped, 0u) << "seed " << seed;
    ASSERT_GT(net.duplicated, 0u);
    const auto& coord = faulted.coord_stats();
    ASSERT_GT(coord.timeouts, 0u) << "no request ever timed out — too tame";
    ASSERT_GT(coord.late_replies_dropped + coord.stale_replies_dropped, 0u)
        << "no reply ever arrived after completion — too tame";
    ASSERT_GT(coord.duplicate_replies_dropped, 0u);

    quiesce(faulted);
    quiesce(twin);

    // Exact mechanisms: byte-identical fixed points — every late reply,
    // duplicate ack and reused slot left NO trace the clocks could not
    // repair.  Two exemptions, both DELIVERY-order artifacts of the
    // baselines themselves, not of the engine:
    //   * server-VV falsely orders racing clients, so which sibling
    //     survives depends on delivery order (see transport_chaos_test);
    //   * client-VV discards a sibling at write time using the JOINED
    //     read context, but its pairwise VV sync cannot re-prove a
    //     dominance no single surviving clock carries — so folding a
    //     stale replica state back in can RESURRECT the discarded
    //     sibling (false concurrency, the E8 failure shape).  This
    //     workload's reordered, partially-failed fan-outs make such
    //     stale folds routine.
    constexpr bool kByteExactUnderChaos =
        !std::is_same_v<TypeParam, dvv::kv::ServerVvMechanism> &&
        !std::is_same_v<TypeParam, dvv::kv::ClientVvMechanism>;
    if constexpr (kByteExactUnderChaos) {
      ASSERT_EQ(full_state(faulted), full_state(twin))
          << "concurrent coordination chaos corrupted state (seed " << seed
          << ")";
    }
    if constexpr (std::is_same_v<TypeParam, dvv::kv::ClientVvMechanism>) {
      // Still SOUND: resurrection adds false siblings, it never loses
      // an update — every value the twin retains, the faulted run must
      // retain too.
      const auto faulted_values = full_values(faulted);
      const auto twin_values = full_values(twin);
      for (const auto& [where, values] : twin_values) {
        const auto it = faulted_values.find(where);
        ASSERT_NE(it, faulted_values.end());
        for (const auto& v : values) {
          EXPECT_TRUE(it->second.contains(v))
              << "client-VV lost update " << v << " (seed " << seed << ")";
        }
      }
    }

    // Internal convergence for every mechanism, and a true fixed point.
    const auto snapshot = full_state(faulted);
    for (const auto& [where, bytes] : snapshot) {
      const auto& [replica, key] = where;
      for (const ReplicaId peer : faulted.preference_list(key)) {
        const auto it = snapshot.find(std::make_pair(peer, key));
        if (it == snapshot.end()) continue;
        EXPECT_EQ(bytes, it->second)
            << "key " << key << " differs between " << replica << " and "
            << peer << " (seed " << seed << ")";
      }
    }
    EXPECT_EQ(faulted.anti_entropy_digest().stats.keys_shipped, 0u);
    EXPECT_EQ(faulted.anti_entropy(), 0u);
    EXPECT_EQ(faulted.requests_in_flight(), 0u)
        << "every request slot must be retired by quiesce";
  }
}

// ---- async trace replay: ticks, determinism, and the oracle ----------------

dvv::workload::WorkloadSpec async_spec(std::uint64_t seed) {
  dvv::workload::WorkloadSpec spec;
  spec.keys = 8;
  spec.zipf_skew = 0.99;
  spec.clients = 12;
  spec.operations = 600;
  spec.read_before_write = 0.7;
  spec.replicate_probability = 0.8;
  spec.anti_entropy_every = 50;
  spec.partition_probability = 0.05;
  spec.heal_probability = 0.15;
  spec.servers = kServers;
  spec.async_quorum = true;
  spec.read_quorum = 2;
  spec.write_quorum = 2;
  spec.tick_probability = 0.7;
  spec.deadline_ticks = 6;
  spec.seed = seed;
  return spec;
}

TEST(AsyncReplay, TraceCarriesTickEvents) {
  const auto trace = dvv::workload::generate_trace(async_spec(5), 3);
  EXPECT_TRUE(trace.async_quorum);
  EXPECT_EQ(trace.read_quorum, 2u);
  std::size_t ticks = 0;
  for (const auto& op : trace.ops) {
    if (op.kind == dvv::workload::TraceOp::Kind::kTick) ++ticks;
  }
  EXPECT_GT(ticks, 0u) << "async traces must interleave network time";

  dvv::workload::WorkloadSpec sync = async_spec(5);
  sync.async_quorum = false;
  const auto sync_trace = dvv::workload::generate_trace(sync, 3);
  for (const auto& op : sync_trace.ops) {
    EXPECT_NE(op.kind, dvv::workload::TraceOp::Kind::kTick)
        << "synchronous traces carry no ticks";
  }
}

TEST(AsyncReplay, DeterministicAndKeepsOpsInFlight) {
  const auto spec = async_spec(11);
  const auto trace = dvv::workload::generate_trace(spec, 3);
  ClusterConfig cfg = chaos_config(11);

  Cluster<dvv::kv::DvvMechanism> a(cfg, {});
  Cluster<dvv::kv::DvvMechanism> b(cfg, {});
  const auto stats_a = dvv::workload::replay(a, trace);
  const auto stats_b = dvv::workload::replay(b, trace);

  EXPECT_GT(stats_a.ticks, 0u);
  EXPECT_GT(stats_a.max_in_flight, 1u)
      << "concurrent client ops must actually overlap";
  EXPECT_EQ(stats_a.final_total_bytes, stats_b.final_total_bytes);
  EXPECT_EQ(stats_a.op_timeouts, stats_b.op_timeouts);
  EXPECT_EQ(stats_a.get_total_bytes.mean(), stats_b.get_total_bytes.mean());
}

TEST(AsyncReplay, OracleStaysLockstepDvvExactServerVvLosesUpdates) {
  std::uint64_t server_vv_anomalies = 0;
  for (const std::uint64_t seed : {3ULL, 11ULL, 77ULL}) {
    const auto spec = async_spec(seed);
    const ClusterConfig cfg = chaos_config(seed);

    const auto dvv_run =
        dvv::oracle::mirrored_run(spec, cfg, dvv::kv::DvvMechanism{});
    EXPECT_TRUE(dvv_run.report.exact())
        << "DVV must track causality exactly under concurrent-op chaos "
        << "(seed " << seed << "): lost " << dvv_run.report.lost_updates()
        << ", false " << dvv_run.report.false_siblings();
    EXPECT_GT(dvv_run.subject_stats.max_in_flight, 1u);

    const auto dvvset_run =
        dvv::oracle::mirrored_run(spec, cfg, dvv::kv::DvvSetMechanism{});
    EXPECT_TRUE(dvvset_run.report.exact()) << "seed " << seed;

    const auto vv_run =
        dvv::oracle::mirrored_run(spec, cfg, dvv::kv::ServerVvMechanism{});
    server_vv_anomalies += vv_run.report.lost_updates();
  }
  EXPECT_GT(server_vv_anomalies, 0u)
      << "the Fig. 1b scheme must lose racing updates under async chaos";
}

}  // namespace
