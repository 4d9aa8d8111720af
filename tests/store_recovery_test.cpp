// The crash-faithfulness property (the point of the storage tentpole):
// for EVERY causality mechanism, a replica that truly crashes (volatile
// state dropped) and recovers by write-ahead-log replay, then runs
// anti-entropy, reaches a digest fixed point BYTE-IDENTICAL to a twin
// cluster that never crashed.
//
// Method: two clusters replay one seeded chaotic workload (the cluster
// makes no random choices, so the interleavings are identical).  The
// twin's failures are pauses (set_alive(false): memory intact — the
// seed's old no-op "crash"); the subject's failures are real crashes
// against a write-through WAL.  Write-through replay restores exactly
// the pre-crash bytes, so every replica's every key — and every parked
// hint — must match the twin at the end, before AND after repair.
//
// A second suite drops write-through for group commit + torn writes:
// recovery then genuinely loses the un-flushed tail, so the subject is
// NOT byte-identical to the twin mid-flight — but recover + hint
// delivery + anti-entropy must still drive every preference list to an
// internally byte-identical fixed point.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "codec/clock_codec.hpp"
#include "kv/client.hpp"
#include "kv/cluster.hpp"
#include "kv/mechanism.hpp"
#include "store/backend.hpp"
#include "util/rng.hpp"
#include "routed_write.hpp"

namespace {

using dvv::kv::ClientSession;
using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::Key;
using dvv::kv::ReplicaId;
using dvv::util::Rng;

constexpr std::size_t kKeys = 32;
constexpr std::size_t kClients = 6;
constexpr std::size_t kOps = 300;

ClusterConfig mem_config() {
  ClusterConfig cfg;
  cfg.servers = 5;
  cfg.replication = 3;
  cfg.vnodes = 32;
  cfg.storage.kind = dvv::store::BackendKind::kMem;
  return cfg;
}

ClusterConfig wal_config(std::size_t flush_every) {
  ClusterConfig cfg = mem_config();
  cfg.storage.kind = dvv::store::BackendKind::kWal;
  cfg.storage.wal.flush_every = flush_every;
  return cfg;
}

/// One deterministic chaotic workload.  `crash_faults` selects how the
/// seeded failure schedule is realized: pauses (twin) or true crashes
/// with WAL recovery (subject).  Every random draw happens in both
/// modes, so the interleavings stay identical.
template <typename M>
void run_workload(Cluster<M>& cluster, std::uint64_t seed, bool crash_faults,
                  std::size_t torn_bytes = 0) {
  Rng rng(seed);
  std::vector<ClientSession<M>> sessions;
  sessions.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    sessions.emplace_back(dvv::kv::client_actor(c), cluster);
  }

  const std::size_t servers = cluster.servers();
  auto alive_count = [&] {
    std::size_t n = 0;
    for (ReplicaId r = 0; r < servers; ++r) n += cluster.replica(r).alive();
    return n;
  };

  for (std::size_t op = 0; op < kOps; ++op) {
    if (rng.chance(0.06)) {
      const auto r = static_cast<ReplicaId>(rng.index(servers));
      if (cluster.replica(r).alive()) {
        if (alive_count() > 3) {
          if (crash_faults) {
            cluster.crash(r, torn_bytes);
          } else {
            cluster.replica(r).set_alive(false);
          }
        }
      } else {
        if (crash_faults) {
          (void)cluster.recover(r);
        } else {
          cluster.replica(r).set_alive(true);
        }
      }
    }
    if (rng.chance(0.05)) cluster.deliver_hints();

    auto& session = sessions[rng.index(kClients)];
    const Key key = "key-" + std::to_string(rng.index(kKeys));
    const auto pref = cluster.preference_list(key);
    std::vector<ReplicaId> alive_pref;
    for (const ReplicaId r : pref) {
      if (cluster.replica(r).alive()) alive_pref.push_back(r);
    }
    if (alive_pref.empty()) continue;

    const double kind = rng.uniform01();
    if (kind < 0.3) {
      (void)session.get(key, alive_pref[rng.index(alive_pref.size())]);
    } else if (kind < 0.55) {
      session.put(key, "h" + std::to_string(op),
                  dvv::test::handoff(alive_pref[rng.index(alive_pref.size())]));
    } else {
      const ReplicaId coord = alive_pref[rng.index(alive_pref.size())];
      std::vector<ReplicaId> replicate_to;
      for (const ReplicaId r : alive_pref) {
        if (r != coord && rng.chance(0.5)) replicate_to.push_back(r);
      }
      session.put(key, "v" + std::to_string(op),
                  dvv::test::routed(coord, replicate_to));
    }
  }

  // Everyone comes back; parked hints flow home.
  for (ReplicaId r = 0; r < servers; ++r) {
    if (cluster.replica(r).alive()) continue;
    if (crash_faults) {
      (void)cluster.recover(r);
    } else {
      cluster.replica(r).set_alive(true);
    }
  }
  cluster.deliver_hints();
}

/// Full byte-level snapshot: every replica's every key AND every parked
/// hint, codec-encoded.
template <typename M>
std::map<std::string, std::string> full_state(Cluster<M>& cluster) {
  std::map<std::string, std::string> out;
  for (ReplicaId r = 0; r < cluster.servers(); ++r) {
    for (const Key& key : cluster.replica(r).keys()) {
      dvv::codec::Writer w;
      dvv::codec::encode(w, *cluster.replica(r).find(key));
      const auto* p = reinterpret_cast<const char*>(w.buffer().data());
      out.emplace("r" + std::to_string(r) + "/" + key, std::string(p, w.size()));
    }
    cluster.replica(r).for_each_hint(
        [&](ReplicaId owner, const Key& key, const auto& stored) {
          dvv::codec::Writer w;
          dvv::codec::encode(w, stored);
          const auto* p = reinterpret_cast<const char*>(w.buffer().data());
          out.emplace("r" + std::to_string(r) + "/hint" +
                          std::to_string(owner) + "/" + key,
                      std::string(p, w.size()));
        });
  }
  return out;
}

template <typename M>
class StoreRecoveryTest : public ::testing::Test {};

using AllMechanisms =
    ::testing::Types<dvv::kv::DvvMechanism, dvv::kv::DvvSetMechanism,
                     dvv::kv::ServerVvMechanism, dvv::kv::ClientVvMechanism,
                     dvv::kv::VveMechanism, dvv::kv::HistoryMechanism>;
TYPED_TEST_SUITE(StoreRecoveryTest, AllMechanisms);

TYPED_TEST(StoreRecoveryTest, WalRecoveryMatchesNeverCrashedTwinByteForByte) {
  for (const std::uint64_t seed : {3ULL, 71ULL, 20120716ULL}) {
    Cluster<TypeParam> twin(mem_config(), {});      // pauses, memory intact
    Cluster<TypeParam> subject(wal_config(1), {});  // real crashes, write-through
    run_workload(twin, seed, /*crash_faults=*/false);
    run_workload(subject, seed, /*crash_faults=*/true);

    // Write-through replay is lossless: identical before any repair.
    ASSERT_EQ(full_state(twin), full_state(subject))
        << "WAL replay must restore pre-crash bytes (seed " << seed << ")";

    // And the digest fixed points coincide, key for key, byte for byte.
    twin.anti_entropy_digest();
    subject.anti_entropy_digest();
    EXPECT_EQ(full_state(twin), full_state(subject))
        << "post-AAE fixed points diverge (seed " << seed << ")";
    EXPECT_EQ(subject.anti_entropy_digest().stats.keys_shipped, 0u)
        << "not a fixed point (seed " << seed << ")";

    // Merkle roots agree for every key's partition on every replica.
    for (ReplicaId r = 0; r < subject.servers(); ++r) {
      for (const Key& key : subject.replica(r).keys()) {
        EXPECT_EQ(twin.merkle_tree_for(r, key).root(),
                  subject.merkle_tree_for(r, key).root())
            << "digest trees diverge at replica " << r << " (seed " << seed
            << ")";
      }
    }
  }
}

TYPED_TEST(StoreRecoveryTest, GroupCommitTornCrashesStillConvergeInternally) {
  for (const std::uint64_t seed : {5ULL, 97ULL}) {
    Cluster<TypeParam> cluster(wal_config(/*flush_every=*/16), {});
    run_workload(cluster, seed, /*crash_faults=*/true, /*torn_bytes=*/7);

    cluster.anti_entropy_digest();

    // Whatever the un-flushed tails lost, repair must end with every
    // preference replica of every key holding byte-identical state.
    for (ReplicaId r = 0; r < cluster.servers(); ++r) {
      for (const Key& key : cluster.replica(r).keys()) {
        dvv::codec::Writer mine;
        dvv::codec::encode(mine, *cluster.replica(r).find(key));
        for (const ReplicaId peer : cluster.preference_list(key)) {
          const auto* stored = cluster.replica(peer).find(key);
          if (peer == r || stored == nullptr) continue;
          dvv::codec::Writer theirs;
          dvv::codec::encode(theirs, *stored);
          EXPECT_EQ(mine.buffer(), theirs.buffer())
              << "key " << key << " differs between " << r << " and " << peer
              << " (seed " << seed << ")";
        }
      }
    }
    EXPECT_EQ(cluster.anti_entropy(), 0u) << "legacy pass agrees it is done";
  }
}

}  // namespace
