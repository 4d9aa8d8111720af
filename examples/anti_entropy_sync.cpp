// anti_entropy_sync — replica divergence and repair.
//
// Simulates a flaky period: writes that only reach some replicas, a
// server that is down and comes back, and the anti-entropy pass that
// reconciles everything.  Shows that the DVV sync() merge is
// idempotent, order-independent, and never resurrects overwritten data
// — the properties the paper's storage workflow relies on.
//
//   $ ./anti_entropy_sync
#include <cstdio>
#include <string>

#include "kv/client.hpp"
#include "kv/cluster.hpp"
#include "kv/mechanism.hpp"

namespace {

using dvv::kv::ClientSession;
using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::DvvMechanism;
using dvv::kv::ReplicaId;

void survey(const char* label, Cluster<DvvMechanism>& cluster,
            const std::string& key) {
  std::printf("%s\n", label);
  for (const ReplicaId r : cluster.preference_list(key)) {
    const auto got = cluster.get(key, r);
    std::string line = "  server " + dvv::kv::actor_name(r) + ": ";
    if (!got.found) {
      line += "(no data)";
    } else {
      for (const auto& v : got.values) line += "[" + v + "] ";
    }
    if (!cluster.replica(r).alive()) line += "  (DOWN)";
    std::printf("%s\n", line.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== anti-entropy: divergence, failure, repair ==\n\n");

  ClusterConfig config;
  config.servers = 5;
  config.replication = 3;
  Cluster<DvvMechanism> cluster(config, DvvMechanism{});
  const std::string key = "inventory:widget";
  const auto pref = cluster.preference_list(key);

  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  ClientSession<DvvMechanism> bob(dvv::kv::client_actor(1), cluster);

  // A write that reaches everyone.
  alice.get(key);
  alice.put(key, "count=100");
  survey("after a fully replicated write:", cluster, key);

  // The third replica goes down; Alice's next update misses it.
  cluster.replica(pref[2]).set_alive(false);
  alice.get(key);
  alice.put(key, "count=90");
  survey("after an update while one replica is down:", cluster, key);

  // Meanwhile Bob, who read the OLD state long ago, writes through the
  // second replica only (his message to the others is lost).
  dvv::kv::WriteOptions second_only;
  second_only.coordinator = pref[1];
  second_only.replicate_to.emplace();  // no fan-out
  bob.put(key, "count=95(bob)", second_only);
  survey("after Bob's concurrent, partially delivered write:", cluster, key);

  // The dead replica recovers, still holding stale data.
  cluster.replica(pref[2]).set_alive(true);
  survey("after the down replica recovers (note the stale copy):", cluster, key);

  // One anti-entropy round fixes everything: newest data everywhere,
  // Bob's concurrent write preserved as a sibling, stale data gone.
  cluster.anti_entropy();
  survey("after one anti-entropy round:", cluster, key);

  // Idempotence: more rounds change nothing.
  const auto before = cluster.footprint();
  cluster.anti_entropy();
  cluster.anti_entropy();
  const auto after = cluster.footprint();
  std::printf("two more anti-entropy rounds: siblings %zu -> %zu, "
              "metadata bytes %zu -> %zu (unchanged)\n\n",
              before.siblings, after.siblings, before.metadata_bytes,
              after.metadata_bytes);

  // A reader reconciles the true siblings.
  ClientSession<DvvMechanism> carol(dvv::kv::client_actor(2), cluster);
  carol.rmw(key, [](const std::vector<std::string>& siblings) {
    std::printf("reconciling %zu siblings...\n", siblings.size());
    return std::string("count=93(reconciled)");
  });
  cluster.anti_entropy();
  survey("after reconciliation:", cluster, key);
  return 0;
}
