// Failure-injection property suite: servers crash (fail-stop, durable
// state) and recover mid-workload while clients keep reading and
// writing around them.  The claims under test:
//
//   * DVV and DVVSet remain EXACT vs the causal-history oracle through
//     arbitrary crash/recovery interleavings — sound causality does not
//     depend on node liveness;
//   * after failures stop, anti-entropy converges every key's
//     preference replicas to identical states (eventual convergence);
//   * recovered replicas never resurrect overwritten data through
//     anti-entropy (their stale versions are provably dominated).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "kv/mechanism.hpp"
#include "oracle/audit.hpp"
#include "store/backend.hpp"
#include "store/wal_backend.hpp"
#include "workload/replay.hpp"
#include "workload/trace.hpp"
#include "routed_write.hpp"

namespace {

using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::DvvMechanism;
using dvv::kv::DvvSetMechanism;
using dvv::oracle::mirrored_run;
using dvv::workload::WorkloadSpec;

ClusterConfig config() {
  ClusterConfig cfg;
  cfg.servers = 6;
  cfg.replication = 3;
  cfg.vnodes = 16;
  return cfg;
}

WorkloadSpec crashy(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.keys = 8;
  spec.zipf_skew = 0.99;
  spec.clients = 12;
  spec.operations = 500;
  spec.read_before_write = 0.7;
  spec.replicate_probability = 0.7;
  spec.anti_entropy_every = 40;
  spec.fail_probability = 0.05;
  spec.recover_probability = 0.10;
  spec.servers = config().servers;
  spec.seed = seed;
  return spec;
}

class FailureSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailureSeedSweep, TraceActuallyContainsFailures) {
  const auto trace = dvv::workload::generate_trace(crashy(GetParam()),
                                                   config().replication);
  std::size_t fails = 0, recovers = 0;
  for (const auto& op : trace.ops) {
    fails += op.kind == dvv::workload::TraceOp::Kind::kFail;
    recovers += op.kind == dvv::workload::TraceOp::Kind::kRecover;
  }
  EXPECT_GT(fails, 0u) << "spec must actually inject crashes";
  EXPECT_LE(recovers, fails);
}

TEST_P(FailureSeedSweep, DvvStaysExactThroughCrashes) {
  const auto run = mirrored_run(crashy(GetParam()), config(), DvvMechanism{});
  EXPECT_TRUE(run.report.exact())
      << "lost=" << run.report.lost_updates()
      << " false=" << run.report.false_siblings();
  EXPECT_GT(run.subject_stats.failures, 0u);
}

TEST_P(FailureSeedSweep, DvvSetStaysExactThroughCrashes) {
  const auto run = mirrored_run(crashy(GetParam()), config(), DvvSetMechanism{});
  EXPECT_TRUE(run.report.exact())
      << "lost=" << run.report.lost_updates()
      << " false=" << run.report.false_siblings();
}

TEST_P(FailureSeedSweep, RecoveryPlusAntiEntropyConverges) {
  const auto spec = crashy(GetParam());
  const auto trace = dvv::workload::generate_trace(spec, config().replication);
  Cluster<DvvMechanism> cluster(config(), {});
  dvv::workload::replay(cluster, trace);

  // Bring everyone back and run one full repair round.
  for (std::size_t s = 0; s < config().servers; ++s) {
    cluster.replica(s).set_alive(true);
  }
  cluster.anti_entropy();

  // Every key: all preference replicas hold identical value sets.
  const auto& mech = cluster.mechanism();
  for (std::size_t s = 0; s < config().servers; ++s) {
    for (const auto& key : cluster.replica(s).keys()) {
      std::multiset<std::string> reference;
      bool first = true;
      for (const auto r : cluster.preference_list(key)) {
        std::multiset<std::string> values;
        if (const auto* stored = cluster.replica(r).find(key)) {
          for (auto& v : mech.values_of(*stored)) values.insert(v);
        }
        if (first) {
          reference = values;
          first = false;
        } else {
          ASSERT_EQ(values, reference) << "key " << key << " replica " << r;
        }
      }
    }
  }
}

TEST_P(FailureSeedSweep, DvvStaysExactWithHintedHandoff) {
  // The sloppy quorum changes WHERE writes land during outages (hints
  // on fallback servers, delivered on recovery) — it must not change
  // causality one bit.
  auto spec = crashy(GetParam());
  spec.hinted_handoff = true;
  const auto run = mirrored_run(spec, config(), DvvMechanism{});
  EXPECT_TRUE(run.report.exact())
      << "lost=" << run.report.lost_updates()
      << " false=" << run.report.false_siblings();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureSeedSweep,
                         ::testing::Values(11, 23, 37, 59, 71, 97));

// ---- true-crash matrix (src/store) ----------------------------------------
//
// The crash/durability matrix for both backends: what survives a real
// crash() — volatile state dropped — and how recover-then-AAE repairs
// the rest from the peers.

ClusterConfig wal_cluster(std::size_t flush_every) {
  ClusterConfig cfg = config();
  cfg.storage.kind = dvv::store::BackendKind::kWal;
  cfg.storage.wal.flush_every = flush_every;
  return cfg;
}

TEST(CrashMatrix, MemBackendCrashIsTotalLossUntilAaeRepairs) {
  ClusterConfig mem_cfg = config();
  mem_cfg.storage.kind = dvv::store::BackendKind::kMem;  // pin: loss intended
  Cluster<DvvMechanism> cluster(mem_cfg, {});
  dvv::kv::ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  const dvv::kv::Key key = "k";
  const auto pref = cluster.preference_list(key);
  alice.get(key);
  alice.put(key, "replicated");

  cluster.crash(pref[1]);
  (void)cluster.recover(pref[1]);
  EXPECT_FALSE(cluster.get(key, pref[1]).found)
      << "no log: recovery restores nothing";

  cluster.anti_entropy();
  const auto got = cluster.get(key, pref[1]);
  ASSERT_TRUE(got.found) << "peers repair the wiped replica";
  EXPECT_EQ(got.values, std::vector<std::string>{"replicated"});
}

TEST(CrashMatrix, WalWriteThroughCrashLosesNothing) {
  Cluster<DvvMechanism> cluster(wal_cluster(/*flush_every=*/1), {});
  dvv::kv::ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  const auto pref = cluster.preference_list("k");
  alice.get("k");
  alice.put("k", "v1");

  cluster.crash(pref[0]);
  const auto stats = cluster.recover(pref[0]);
  EXPECT_EQ(stats.records_lost_unflushed, 0u);
  const auto got = cluster.get("k", pref[0]);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(got.values, std::vector<std::string>{"v1"});
  EXPECT_EQ(cluster.anti_entropy(), 0u) << "nothing to repair";
}

TEST(CrashMatrix, WalCrashBeforeFlushLosesTailThenAaeRestoresIt) {
  // Group commit: the un-flushed tail dies with the crash; the peers
  // that saw the replicated write put it back through anti-entropy.
  Cluster<DvvMechanism> cluster(wal_cluster(/*flush_every=*/0), {});
  dvv::kv::ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  const dvv::kv::Key key = "k";
  const auto pref = cluster.preference_list(key);

  alice.get(key);
  alice.put(key, "durable");
  for (const auto r : pref) cluster.replica(r).backend().flush();
  alice.get(key);
  alice.put(key, "in-the-tail");  // appended after the last fsync

  cluster.crash(pref[0]);
  const auto stats = cluster.recover(pref[0]);
  EXPECT_GT(stats.records_lost_unflushed, 0u);
  const auto got = cluster.get(key, pref[0]);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(got.values, std::vector<std::string>{"durable"})
      << "the tail write must be gone after replay";

  cluster.anti_entropy();
  const auto repaired = cluster.get(key, pref[0]);
  ASSERT_TRUE(repaired.found);
  EXPECT_EQ(repaired.values, std::vector<std::string>{"in-the-tail"})
      << "peers restore the lost tail write";
}

TEST(CrashMatrix, WalCrashMidSegmentTornWriteIsDroppedByCrc) {
  Cluster<DvvMechanism> cluster(wal_cluster(/*flush_every=*/0), {});
  dvv::kv::ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  const dvv::kv::Key key = "k";
  const auto pref = cluster.preference_list(key);

  alice.get(key);
  alice.put(key, "durable");
  for (const auto r : pref) cluster.replica(r).backend().flush();
  alice.get(key);
  alice.put(key, "torn-away");

  cluster.crash(pref[0], /*torn_tail_bytes=*/6);  // partial frame survives
  const auto stats = cluster.recover(pref[0]);
  EXPECT_EQ(stats.torn_records_dropped, 1u) << "CRC must reject the torn frame";
  const auto got = cluster.get(key, pref[0]);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(got.values, std::vector<std::string>{"durable"});

  cluster.anti_entropy();
  EXPECT_EQ(cluster.get(key, pref[0]).values,
            std::vector<std::string>{"torn-away"});
}

TEST(CrashMatrix, RecoverThenAaeConvergesUnderChaoticCrashFaults) {
  // The full pipeline under the workload driver: kFail/kRecover realized
  // as true crashes against a write-through WAL, then repair.
  auto spec = crashy(11);
  spec.crash_faults = true;
  spec.hinted_handoff = true;
  const auto trace = dvv::workload::generate_trace(spec, config().replication);
  Cluster<DvvMechanism> cluster(wal_cluster(/*flush_every=*/1), {});
  dvv::workload::replay(cluster, trace);

  for (std::size_t s = 0; s < config().servers; ++s) {
    if (!cluster.replica(s).alive()) (void)cluster.recover(s);
  }
  cluster.deliver_hints();
  cluster.anti_entropy();

  const auto& mech = cluster.mechanism();
  for (std::size_t s = 0; s < config().servers; ++s) {
    for (const auto& key : cluster.replica(s).keys()) {
      std::multiset<std::string> reference;
      bool first = true;
      for (const auto r : cluster.preference_list(key)) {
        std::multiset<std::string> values;
        if (const auto* stored = cluster.replica(r).find(key)) {
          for (auto& v : mech.values_of(*stored)) values.insert(v);
        }
        if (first) {
          reference = values;
          first = false;
        } else {
          ASSERT_EQ(values, reference) << "key " << key << " replica " << r;
        }
      }
    }
  }
}

// Regression for crash-time dot reuse: a replica recovering from a
// LOSSY log has rolled its clocks back, so minting dots from the
// recovered counters would reissue event ids its peers already hold for
// different values — the peer would then "recognize" the new write and
// silently drop it.  Lossy recovery must bump the replica's clock
// incarnation (kv/types.hpp) so the reborn coordinator can never
// collide with its pre-crash self.
TEST(CrashMatrix, LossyRecoveryNeverReusesDots) {
  Cluster<DvvMechanism> cluster(wal_cluster(/*flush_every=*/0), {});
  const dvv::kv::Key key = "k";
  const auto pref = cluster.preference_list(key);

  // Blind write v1 through pref[0]: dot (pref[0], 1) lands on pref[1]
  // too, but pref[0]'s own log never sees a flush.
  cluster.put(key, dvv::kv::client_actor(0), {}, "v1",
              dvv::test::routed(pref[0], {pref[1]}));
  cluster.crash(pref[0]);
  (void)cluster.recover(pref[0]);
  EXPECT_EQ(cluster.replica(pref[0]).incarnation(), 1u) << "lossy rebirth";

  // Blind write v2 through the reborn pref[0].  Without the incarnation
  // bump this would be dot (pref[0], 1) again == v1's id at pref[1].
  cluster.put(key, dvv::kv::client_actor(1), {}, "v2",
              dvv::test::routed(pref[0], {pref[1]}));

  cluster.anti_entropy();
  for (const auto r : {pref[0], pref[1]}) {
    const auto got = cluster.get(key, r);
    ASSERT_TRUE(got.found);
    const std::set<std::string> values(got.values.begin(), got.values.end());
    EXPECT_EQ(values, (std::set<std::string>{"v1", "v2"}))
        << "blind racing writes must both survive at " << r;
  }
}

TEST(CrashMatrix, DvvStaysExactThroughWalCrashFaults) {
  // The oracle audit with REAL crashes: write-through WAL makes a crash
  // recoverable, so DVV must stay exact through arbitrary crash/recover
  // interleavings — the paper's recovery-by-sync safety claim, now
  // against a durability model instead of a pause.
  for (const std::uint64_t seed : {11ULL, 59ULL}) {
    auto spec = crashy(seed);
    spec.crash_faults = true;
    ClusterConfig cfg = wal_cluster(/*flush_every=*/1);
    const auto run = mirrored_run(spec, cfg, DvvMechanism{});
    EXPECT_TRUE(run.report.exact())
        << "lost=" << run.report.lost_updates()
        << " false=" << run.report.false_siblings() << " seed=" << seed;
    EXPECT_GT(run.subject_stats.failures, 0u);
  }
}

// A recovered replica holding month-old state must not push stale
// versions back into the cluster: its versions' dots are inside the
// live versions' causal pasts, so anti-entropy discards them.
TEST(FailureRecovery, StaleReplicaCannotResurrectOverwrittenData) {
  Cluster<DvvMechanism> cluster(config(), {});
  dvv::kv::ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  const dvv::kv::Key key = "k";
  const auto pref = cluster.preference_list(key);

  alice.get(key);
  alice.put(key, "v1");  // everywhere

  cluster.replica(pref[2]).set_alive(false);  // crash with v1 on disk
  for (int i = 2; i <= 5; ++i) {
    alice.get(key);
    alice.put(key, "v" + std::to_string(i));  // v1..v4 overwritten
  }
  cluster.replica(pref[2]).set_alive(true);  // back, still holding v1

  cluster.anti_entropy();
  for (const auto r : pref) {
    const auto got = cluster.get(key, r);
    ASSERT_TRUE(got.found);
    ASSERT_EQ(got.values.size(), 1u) << "no resurrected sibling on " << r;
    EXPECT_EQ(got.values[0], "v5");
  }
}

// Symmetric hazard: writes accepted by the SURVIVORS while a replica is
// down must win over the stale copy without the survivors ever having
// seen the crash.
TEST(FailureRecovery, WritesDuringOutageSurviveRepair) {
  Cluster<DvvMechanism> cluster(config(), {});
  dvv::kv::ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  dvv::kv::ClientSession<DvvMechanism> bob(dvv::kv::client_actor(1), cluster);
  const dvv::kv::Key key = "k";
  const auto pref = cluster.preference_list(key);

  alice.get(key);
  alice.put(key, "base");
  cluster.replica(pref[0]).set_alive(false);  // the usual coordinator dies

  // Bob writes through the fail-over coordinator; Alice writes blind.
  bob.get(key);
  bob.put(key, "bob-during-outage");
  alice.forget(key);
  alice.put(key, "alice-blind");

  cluster.replica(pref[0]).set_alive(true);
  cluster.anti_entropy();

  for (const auto r : pref) {
    const auto got = cluster.get(key, r);
    ASSERT_TRUE(got.found);
    const std::set<std::string> values(got.values.begin(), got.values.end());
    EXPECT_TRUE(values.contains("bob-during-outage"));
    EXPECT_TRUE(values.contains("alice-blind"));
    EXPECT_FALSE(values.contains("base")) << "dominated version must be gone";
  }
}

}  // namespace
