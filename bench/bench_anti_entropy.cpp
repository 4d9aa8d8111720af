// bench_anti_entropy — wire cost of digest-based replica repair vs the
// full gather-merge-scatter pass, as a function of divergence rate.
//
// Setup: a 5-server R=3 cluster fully converged on K keys; then a
// fraction d of the keys receives an update that reaches only its
// coordinator (maximal per-key divergence).  Repairing that state with
// the legacy full pass ships every key's state regardless of d; the
// digest pass (src/sync) ships Merkle hashes first and state only for
// the divergent keys.  Expected shape: digest wire bytes scale with d
// (plus a small tree-walk overhead) and undercut the full pass for
// every d < 100%; at d = 100% the hash exchange is pure overhead and
// the full pass wins slightly — exactly the trade Riak's AAE makes.
//
// Output: one table + BENCH_anti_entropy.json (schema: {bench, seed,
// config, rows[]}) for downstream tooling, per mechanism.
#include <cstdio>
#include <string>
#include <vector>

#include "kv/client.hpp"
#include "kv/cluster.hpp"
#include "kv/mechanism.hpp"
#include "obs/obs.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"

namespace {

using dvv::kv::ClientSession;
using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::Key;
using dvv::kv::ReplicaId;

constexpr std::size_t kKeys = 256;
constexpr std::size_t kValueBytes = 32;
constexpr std::uint64_t kSeed = 0xAAE;

ClusterConfig bench_config() {
  ClusterConfig cfg;
  cfg.servers = 5;
  cfg.replication = 3;
  cfg.vnodes = 64;
  return cfg;
}

std::string key_name(std::size_t i) { return "key-" + std::to_string(i); }

struct Row {
  std::string mechanism;
  std::size_t divergence_pct = 0;
  std::size_t diverged_keys = 0;
  std::size_t digest_wire_bytes = 0;
  std::size_t digest_keys_compared = 0;
  std::size_t digest_keys_shipped = 0;
  std::size_t digest_rounds = 0;
  std::size_t digest_nodes = 0;
  std::size_t sessions = 0;
  std::size_t sweeps = 0;
  std::size_t full_wire_bytes = 0;
};

/// Wire bytes the legacy full pass would move for the cluster's current
/// state: per key, every alive preference replica ships its state to
/// the coordinator (gather) and receives the merge back (scatter) —
/// the coordinator's own copies stay local.  Pure accounting; does not
/// mutate the cluster.
template <typename M>
std::size_t full_pass_wire_bytes(Cluster<M>& cluster) {
  using Stored = typename M::Stored;
  const M& mech = cluster.mechanism();
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const Key key = key_name(i);
    const std::size_t key_bytes = 1 + key.size();  // varint(len) + key
    const auto pref = cluster.preference_list(key);
    Stored merged;
    for (const ReplicaId r : pref) {
      if (const Stored* s = cluster.replica(r).find(key)) {
        mech.sync(merged, *s);
        if (r != pref[0]) bytes += key_bytes + mech.total_bytes(*s);
      }
    }
    for (const ReplicaId r : pref) {
      if (r != pref[0]) bytes += key_bytes + mech.total_bytes(merged);
    }
  }
  return bytes;
}

template <typename M>
Row run_one(const char* name, std::size_t divergence_pct) {
  Cluster<M> cluster(bench_config(), {});
  ClientSession<M> writer(dvv::kv::client_actor(0), cluster);

  // Converged base state: every key written with full replication.
  for (std::size_t i = 0; i < kKeys; ++i) {
    writer.get(key_name(i));
    writer.put(key_name(i), "base" + std::string(kValueBytes, 'x'));
  }

  // Divergence: d% of the keys get a coordinator-only update.
  dvv::util::Rng rng(kSeed);
  std::vector<std::size_t> order(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) order[i] = i;
  rng.shuffle(order);
  const std::size_t diverged = kKeys * divergence_pct / 100;
  for (std::size_t i = 0; i < diverged; ++i) {
    const Key key = key_name(order[i]);
    writer.get(key);
    dvv::kv::WriteOptions coordinator_only;
    coordinator_only.coordinator = cluster.preference_list(key)[0];
    coordinator_only.replicate_to.emplace();
    writer.put(key, "new" + std::string(kValueBytes, 'y'), coordinator_only);
  }

  Row row;
  row.mechanism = name;
  row.divergence_pct = divergence_pct;
  row.diverged_keys = diverged;
  row.full_wire_bytes = full_pass_wire_bytes(cluster);

  const auto report = cluster.anti_entropy_digest();
  row.digest_wire_bytes = report.stats.wire_bytes;
  row.digest_keys_compared = report.stats.keys_compared;
  row.digest_keys_shipped = report.stats.keys_shipped;
  row.digest_rounds = report.stats.rounds;
  row.digest_nodes = report.stats.nodes_exchanged;
  row.sessions = report.sessions;
  row.sweeps = report.sweeps;

  DVV_ASSERT_MSG(row.digest_keys_shipped == diverged,
                 "digest pass must repair exactly the diverged keys");
  DVV_ASSERT_MSG(cluster.anti_entropy() == 0,
                 "digest pass must leave nothing for the legacy pass");
  return row;
}

template <typename M>
void sweep(const char* name, std::vector<Row>& rows) {
  for (const std::size_t pct : {0u, 1u, 5u, 10u, 25u, 50u, 75u, 100u}) {
    rows.push_back(run_one<M>(name, pct));
  }
}

void write_json(const std::vector<Row>& rows) {
  std::FILE* f = std::fopen("BENCH_anti_entropy.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_anti_entropy.json\n");
    return;
  }
  const ClusterConfig cfg = bench_config();
  std::fprintf(f, "{\n  \"bench\": \"anti_entropy\",\n  \"seed\": %llu,\n",
               static_cast<unsigned long long>(kSeed));
  std::fprintf(f, "  \"obs\": %s,\n", dvv::obs::registry().json_snapshot().c_str());
  std::fprintf(f,
               "  \"config\": {\"servers\": %zu, \"replication\": %zu, "
               "\"keys\": %zu, \"value_bytes\": %zu, \"merkle_fanout\": %zu, "
               "\"merkle_levels\": %zu},\n",
               cfg.servers, cfg.replication, kKeys, kValueBytes,
               cfg.aae.fanout, cfg.aae.levels);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"mechanism\": \"%s\", \"divergence_pct\": %zu, "
        "\"diverged_keys\": %zu, \"digest_wire_bytes\": %zu, "
        "\"digest_keys_compared\": %zu, \"digest_keys_shipped\": %zu, "
        "\"digest_rounds\": %zu, \"digest_nodes_exchanged\": %zu, "
        "\"sessions\": %zu, \"sweeps\": %zu, \"full_wire_bytes\": %zu, "
        "\"bytes_ratio\": %.4f}%s\n",
        r.mechanism.c_str(), r.divergence_pct, r.diverged_keys,
        r.digest_wire_bytes, r.digest_keys_compared, r.digest_keys_shipped,
        r.digest_rounds, r.digest_nodes, r.sessions, r.sweeps,
        r.full_wire_bytes,
        r.full_wire_bytes == 0
            ? 0.0
            : static_cast<double>(r.digest_wire_bytes) /
                  static_cast<double>(r.full_wire_bytes),
        i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  // Metrics on for the whole run (behavior-invariant by the obs twin
  // property) so the embedded registry snapshot holds real numbers.
  dvv::obs::set_metrics_enabled(true);
  std::printf("==== anti-entropy: digest repair vs full pass wire cost ====\n");
  std::printf("%zu keys, 5 servers, R=3, coordinator-only updates on d%% of "
              "keys; seed=0x%llX\n\n",
              kKeys, static_cast<unsigned long long>(kSeed));

  std::vector<Row> rows;
  sweep<dvv::kv::DvvMechanism>("dvv", rows);
  sweep<dvv::kv::DvvSetMechanism>("dvvset", rows);
  sweep<dvv::kv::ServerVvMechanism>("server-vv", rows);
  sweep<dvv::kv::ClientVvMechanism>("client-vv", rows);
  sweep<dvv::kv::VveMechanism>("vve", rows);
  sweep<dvv::kv::HistoryMechanism>("causal-history", rows);

  dvv::util::TextTable table;
  table.header({"mechanism", "diverg %", "keys diff", "digest bytes",
                "full bytes", "ratio", "shipped", "rounds"});
  bool digest_wins_below_full = true;
  for (const Row& r : rows) {
    const double ratio =
        r.full_wire_bytes == 0
            ? 0.0
            : static_cast<double>(r.digest_wire_bytes) /
                  static_cast<double>(r.full_wire_bytes);
    if (r.divergence_pct < 100 && r.digest_wire_bytes >= r.full_wire_bytes) {
      digest_wins_below_full = false;
    }
    table.row({r.mechanism, std::to_string(r.divergence_pct),
               std::to_string(r.diverged_keys),
               std::to_string(r.digest_wire_bytes),
               std::to_string(r.full_wire_bytes), dvv::util::fixed(ratio, 3),
               std::to_string(r.digest_keys_shipped),
               std::to_string(r.digest_rounds)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("shape check: digest bytes < full bytes for every divergence "
              "< 100%%: %s\n",
              digest_wins_below_full ? "yes" : "NO (regression!)");
  write_json(rows);
  std::printf("wrote BENCH_anti_entropy.json\n");
  return digest_wins_below_full ? 0 : 1;
}
