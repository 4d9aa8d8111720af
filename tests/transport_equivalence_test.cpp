// InlineTransport equivalence proof: for every causality mechanism,
// driving the cluster through the message-routed public API (put
// fan-out, hinted handoff, ack-guarded hint delivery — all enqueued as
// typed net messages on the inline transport) produces state
// BYTE-IDENTICAL to the pre-refactor direct-call semantics, which this
// test re-implements against the raw Replica methods exactly as
// Cluster::put (plain and hinted-handoff) / deliver_hints used to:
// coordinator apply, then merge_key on each alive target in order;
// stash_hint on ring-order fallbacks; Replica::deliver_hints into alive
// owners.
//
// Both drivers run the same seeded chaotic script (pauses, partial
// replication, sloppy-quorum writes, hint deliveries); state is
// compared byte for byte after the workload AND after the digest
// anti-entropy fixed point — the acceptance bar for extracting the
// transport without changing semantics.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "codec/clock_codec.hpp"
#include "kv/cluster.hpp"
#include "kv/mechanism.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"
#include "routed_write.hpp"

namespace {

using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::Key;
using dvv::kv::ReplicaId;
using dvv::util::Rng;

ClusterConfig inline_config() {
  ClusterConfig cfg;
  cfg.servers = 6;
  cfg.replication = 3;
  cfg.vnodes = 32;
  // Pin the inline transport even when the suite runs under
  // DVV_TRANSPORT=chaos: this test is ABOUT inline equivalence.
  cfg.transport.kind = dvv::net::TransportKind::kInline;
  cfg.transport.sim = dvv::net::SimTransportConfig{};
  return cfg;
}

constexpr std::size_t kKeys = 32;
constexpr std::size_t kClients = 6;
constexpr std::size_t kOps = 400;

/// One resolved script step, so both drivers make identical choices.
struct Step {
  enum class Kind { kPause, kUnpause, kDeliver, kPut, kHandoffPut, kQuorumGet } kind;
  ReplicaId server = 0;
  Key key;
  ReplicaId coordinator = 0;
  std::uint64_t client = 0;
  std::string value;
  std::vector<ReplicaId> replicate_to;
  std::size_t quorum = 0;  ///< kQuorumGet: R
};

/// What a quorum read observed — compared field by field (context as
/// its codec encoding) between the two drivers.
struct QuorumObservation {
  bool found = false;
  bool unavailable = false;
  bool degraded = false;
  std::size_t replies = 0;
  std::vector<std::string> values;
  std::string context_bytes;

  bool operator==(const QuorumObservation&) const = default;
};

/// The receipt fields the pre-refactor direct-call semantics pin down:
/// the routed receipts must report exactly these counts.
struct ReceiptObservation {
  ReplicaId coordinator = 0;
  std::size_t targets = 0;
  std::size_t replicated_to = 0;
  std::size_t hinted = 0;
  std::size_t unparked = 0;
  bool degraded = false;
  std::size_t acks = 0;  ///< inline: coordinator + every fan-out target

  bool operator==(const ReceiptObservation&) const = default;
};

template <typename Context>
std::string encode_context(const Context& ctx) {
  dvv::codec::Writer w;
  dvv::codec::encode(w, ctx);
  return std::string(reinterpret_cast<const char*>(w.buffer().data()), w.size());
}

/// Expands a seed into a concrete step list against a given topology.
/// Choices depend only on (seed, aliveness), and aliveness evolves
/// identically under both drivers, so the scripts match.
template <typename M>
std::vector<Step> make_script(Cluster<M>& cluster, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Step> script;
  const std::size_t servers = cluster.servers();
  std::vector<bool> alive(servers, true);
  auto alive_count = [&] {
    std::size_t n = 0;
    for (bool a : alive) n += a;
    return n;
  };

  for (std::size_t op = 0; op < kOps; ++op) {
    if (rng.chance(0.06)) {
      const auto r = static_cast<ReplicaId>(rng.index(servers));
      if (alive[r]) {
        if (alive_count() > 3) {
          alive[r] = false;
          script.push_back({Step::Kind::kPause, r, {}, 0, 0, {}, {}});
        }
      } else {
        alive[r] = true;
        script.push_back({Step::Kind::kUnpause, r, {}, 0, 0, {}, {}});
      }
    }
    if (rng.chance(0.05)) {
      script.push_back({Step::Kind::kDeliver, 0, {}, 0, 0, {}, {}, 0});
    }
    if (rng.chance(0.25)) {
      Step get;
      get.kind = Step::Kind::kQuorumGet;
      get.key = "key-" + std::to_string(rng.index(kKeys));
      get.quorum = 1 + rng.index(3);
      script.push_back(std::move(get));
    }

    Step put;
    put.key = "key-" + std::to_string(rng.index(kKeys));
    const auto pref = cluster.preference_list(put.key);
    std::vector<ReplicaId> alive_pref;
    for (const ReplicaId r : pref) {
      if (alive[r]) alive_pref.push_back(r);
    }
    if (alive_pref.empty()) continue;
    put.coordinator = alive_pref[rng.index(alive_pref.size())];
    put.client = rng.index(kClients);
    put.value = "v" + std::to_string(op);
    if (rng.chance(0.4)) {
      put.kind = Step::Kind::kHandoffPut;
    } else {
      put.kind = Step::Kind::kPut;
      for (const ReplicaId r : alive_pref) {
        if (r != put.coordinator && rng.chance(0.5)) {
          put.replicate_to.push_back(r);
        }
      }
    }
    script.push_back(std::move(put));
  }
  return script;
}

/// Pre-refactor direct-call semantics, verbatim from the old Cluster
/// methods: no transport involved anywhere.  Quorum reads replay the
/// old get_quorum loop against raw replicas; puts record the receipt
/// the old semantics imply, so the routed run's receipts can be pinned
/// against them.
template <typename M>
void run_direct(Cluster<M>& cluster, const std::vector<Step>& script,
                std::vector<QuorumObservation>* gets,
                std::vector<ReceiptObservation>* receipts) {
  const M& mech = cluster.mechanism();
  for (const Step& step : script) {
    switch (step.kind) {
      case Step::Kind::kPause:
        cluster.replica(step.server).set_alive(false);
        break;
      case Step::Kind::kUnpause:
        cluster.replica(step.server).set_alive(true);
        break;
      case Step::Kind::kDeliver:
        // Old Cluster::deliver_hints: every alive holder pushes into
        // alive owners directly, erasing as it goes.
        for (ReplicaId r = 0; r < cluster.servers(); ++r) {
          if (!cluster.replica(r).alive()) continue;
          cluster.replica(r).deliver_hints(
              mech, [&](ReplicaId owner) -> dvv::kv::Replica<M>& {
                return cluster.replica(owner);
              });
        }
        break;
      case Step::Kind::kQuorumGet: {
        // The pre-engine Cluster::get_quorum body, on raw replicas.
        typename M::Stored merged;
        QuorumObservation obs;
        for (const ReplicaId r : cluster.preference_list(step.key)) {
          if (obs.replies == step.quorum) break;
          if (!cluster.replica(r).alive()) continue;
          ++obs.replies;
          if (const auto* s = cluster.replica(r).find(step.key)) {
            mech.sync(merged, *s);
            obs.found = true;
          }
        }
        obs.unavailable = obs.replies == 0;
        obs.degraded = obs.replies < step.quorum;
        if (obs.found) {
          obs.values = mech.values_of(merged);
          obs.context_bytes = encode_context(mech.context_of(merged));
        }
        gets->push_back(std::move(obs));
        break;
      }
      case Step::Kind::kPut: {
        // Old Cluster::put: coordinator applies, targets merge in order.
        auto& coord = cluster.replica(step.coordinator);
        coord.put(mech, step.key, step.coordinator,
                  dvv::kv::client_actor(step.client), {}, step.value);
        const auto* fresh = coord.find(step.key);
        ASSERT_NE(fresh, nullptr);
        ReceiptObservation expect;
        expect.coordinator = step.coordinator;
        for (const ReplicaId r : step.replicate_to) {
          if (r == step.coordinator) continue;
          ++expect.targets;
          if (!cluster.replica(r).alive()) continue;
          cluster.replica(r).merge_key(mech, step.key, *fresh);
          ++expect.replicated_to;
        }
        expect.degraded = expect.replicated_to < expect.targets;
        expect.acks = 1 + expect.replicated_to;  // inline: every merge acks
        receipts->push_back(expect);
        break;
      }
      case Step::Kind::kHandoffPut: {
        // Old hinted-handoff Cluster::put: alive members merge, dead
        // members' writes park on distinct ring-order fallbacks.
        const auto pref = cluster.preference_list(step.key);
        std::vector<ReplicaId> alive_targets;
        std::vector<ReplicaId> dead_owners;
        for (const ReplicaId r : pref) {
          (cluster.replica(r).alive() ? alive_targets : dead_owners).push_back(r);
        }
        auto& coord = cluster.replica(step.coordinator);
        coord.put(mech, step.key, step.coordinator,
                  dvv::kv::client_actor(step.client), {}, step.value);
        const auto* fresh = coord.find(step.key);
        ASSERT_NE(fresh, nullptr);
        ReceiptObservation expect;
        expect.coordinator = step.coordinator;
        for (const ReplicaId r : pref) {
          if (r != step.coordinator) ++expect.targets;
        }
        for (const ReplicaId r : alive_targets) {
          if (r == step.coordinator) continue;
          cluster.replica(r).merge_key(mech, step.key, *fresh);
          ++expect.replicated_to;
        }
        const auto order = cluster.ring().ring_order(step.key);
        std::size_t next_fallback = cluster.ring().replication();
        for (const ReplicaId owner : dead_owners) {
          while (next_fallback < order.size() &&
                 !cluster.replica(order[next_fallback]).alive()) {
            ++next_fallback;
          }
          if (next_fallback >= order.size()) {
            ++expect.unparked;
            continue;
          }
          cluster.replica(order[next_fallback])
              .stash_hint(mech, owner, step.key, *fresh);
          ++expect.hinted;
          ++next_fallback;
        }
        expect.degraded = expect.replicated_to + expect.hinted < expect.targets;
        expect.acks = 1 + expect.replicated_to;
        receipts->push_back(expect);
        break;
      }
    }
  }
}

/// The same script through the message-routed public API, observing the
/// shim results and receipts.
template <typename M>
void run_routed(Cluster<M>& cluster, const std::vector<Step>& script,
                std::vector<QuorumObservation>* gets,
                std::vector<ReceiptObservation>* receipts) {
  const auto observe = [&](const typename Cluster<M>::PutReceipt& receipt) {
    ReceiptObservation obs;
    obs.coordinator = receipt.coordinator;
    obs.targets = receipt.targets;
    obs.replicated_to = receipt.replicated_to;
    obs.hinted = receipt.hinted;
    obs.unparked = receipt.unparked;
    obs.degraded = receipt.degraded;
    obs.acks = receipt.acks();
    receipts->push_back(obs);
  };
  for (const Step& step : script) {
    switch (step.kind) {
      case Step::Kind::kPause:
        cluster.replica(step.server).set_alive(false);
        break;
      case Step::Kind::kUnpause:
        cluster.replica(step.server).set_alive(true);
        break;
      case Step::Kind::kDeliver:
        cluster.deliver_hints();
        break;
      case Step::Kind::kQuorumGet: {
        const auto result = cluster.get_quorum(step.key, step.quorum);
        QuorumObservation obs;
        obs.found = result.found;
        obs.unavailable = result.unavailable;
        obs.degraded = result.degraded;
        obs.replies = result.replies;
        obs.values = result.values;
        if (result.found) obs.context_bytes = encode_context(result.context);
        gets->push_back(std::move(obs));
        break;
      }
      case Step::Kind::kPut:
        observe(cluster.put(step.key, dvv::kv::client_actor(step.client), {},
                            step.value,
                            dvv::test::routed(step.coordinator, step.replicate_to)));
        break;
      case Step::Kind::kHandoffPut:
        observe(cluster.put(step.key, dvv::kv::client_actor(step.client), {},
                            step.value, dvv::test::handoff(step.coordinator)));
        break;
    }
  }
}

/// Every replica's every key AND every parked hint, codec-encoded.
template <typename M>
std::map<std::string, std::string> full_state(Cluster<M>& cluster) {
  std::map<std::string, std::string> out;
  for (ReplicaId r = 0; r < cluster.servers(); ++r) {
    for (const Key& key : cluster.replica(r).keys()) {
      dvv::codec::Writer w;
      dvv::codec::encode(w, *cluster.replica(r).find(key));
      const auto* p = reinterpret_cast<const char*>(w.buffer().data());
      out.emplace("data/" + std::to_string(r) + "/" + key,
                  std::string(p, w.size()));
    }
    cluster.replica(r).for_each_hint(
        [&](ReplicaId owner, const Key& key, const auto& state) {
          dvv::codec::Writer w;
          dvv::codec::encode(w, state);
          const auto* p = reinterpret_cast<const char*>(w.buffer().data());
          out.emplace("hint/" + std::to_string(r) + "/" +
                          std::to_string(owner) + "/" + key,
                      std::string(p, w.size()));
        });
  }
  return out;
}

template <typename M>
class TransportEquivalenceTest : public ::testing::Test {};

using AllMechanisms =
    ::testing::Types<dvv::kv::DvvMechanism, dvv::kv::DvvSetMechanism,
                     dvv::kv::ServerVvMechanism, dvv::kv::ClientVvMechanism,
                     dvv::kv::VveMechanism, dvv::kv::HistoryMechanism>;
TYPED_TEST_SUITE(TransportEquivalenceTest, AllMechanisms);

TYPED_TEST(TransportEquivalenceTest, InlineRoutingMatchesDirectCallsByteForByte) {
  for (const std::uint64_t seed : {1ULL, 99ULL, 20120716ULL}) {
    Cluster<TypeParam> direct(inline_config(), {});
    Cluster<TypeParam> routed(inline_config(), {});
    const auto script = make_script(direct, seed);
    ASSERT_FALSE(script.empty());
    std::vector<QuorumObservation> direct_gets;
    std::vector<QuorumObservation> routed_gets;
    std::vector<ReceiptObservation> direct_receipts;
    std::vector<ReceiptObservation> routed_receipts;
    run_direct(direct, script, &direct_gets, &direct_receipts);
    run_routed(routed, script, &routed_gets, &routed_receipts);

    // 1. Raw equivalence: data AND parked hints, before any repair.
    ASSERT_EQ(full_state(direct), full_state(routed))
        << "inline routing must be byte-identical to direct calls (seed "
        << seed << ")";
    EXPECT_GT(routed.transport().stats().sent, 0u)
        << "the routed run must actually have used the transport";
    EXPECT_EQ(routed.transport().stats().dropped, 0u);

    // 1b. Quorum-read results coincide — found/degraded/replies flags,
    // sibling values, and the context's exact codec encoding.
    ASSERT_EQ(direct_gets.size(), routed_gets.size());
    for (std::size_t i = 0; i < direct_gets.size(); ++i) {
      ASSERT_EQ(direct_gets[i], routed_gets[i])
          << "quorum read " << i << " diverged (seed " << seed << ")";
    }
    // 1c. Receipts coincide with what the direct-call semantics imply:
    // same fan-out counts, hint counts, degraded verdicts, and (inline)
    // every fan-out target acked.
    ASSERT_EQ(direct_receipts.size(), routed_receipts.size());
    for (std::size_t i = 0; i < direct_receipts.size(); ++i) {
      ASSERT_EQ(direct_receipts[i], routed_receipts[i])
          << "put receipt " << i << " diverged (seed " << seed << ")";
    }
    EXPECT_EQ(routed.coord_stats().late_replies_dropped, 0u)
        << "inline delivery leaves no reply behind";

    // 2. Digest fixed points coincide byte for byte.
    direct.anti_entropy_digest();
    routed.anti_entropy_digest();
    ASSERT_EQ(full_state(direct), full_state(routed))
        << "digest fixed points diverge (seed " << seed << ")";

    // 3. And stay coincident through recovery + hint drain.
    for (ReplicaId r = 0; r < direct.servers(); ++r) {
      direct.replica(r).set_alive(true);
      routed.replica(r).set_alive(true);
    }
    for (ReplicaId r = 0; r < direct.servers(); ++r) {
      direct.replica(r).deliver_hints(
          direct.mechanism(), [&](ReplicaId owner) -> dvv::kv::Replica<TypeParam>& {
            return direct.replica(owner);
          });
    }
    routed.deliver_hints();
    direct.anti_entropy_digest();
    routed.anti_entropy_digest();
    ASSERT_EQ(full_state(direct), full_state(routed))
        << "post-recovery fixed points diverge (seed " << seed << ")";
    EXPECT_EQ(direct.hinted_count(), 0u);
    EXPECT_EQ(routed.hinted_count(), 0u);
  }
}

}  // namespace
