// bench_transport — the cost of the message layer (src/net).
//
// Two questions:
//
//   overhead     what does routing replication through typed, codec-
//                serialized messages cost against direct calls doing
//                the SAME protocol?  Three variants run the same
//                seeded write workload: direct calls (the quorum
//                engine driven by hand — local put, per-target merge +
//                ack bookkeeping, sealed receipt — with the message
//                layer removed), the inline transport (typed envelopes,
//                synchronous), and the queued SimTransport (plus
//                encode/decode and queue churn).  All three do the
//                identical protocol work, so overhead_pct isolates the
//                message path itself — envelopes, codec framing,
//                pooling, dispatch — which is exactly the number the
//                CI perf-smoke leg budgets.  Final states are asserted
//                byte-identical across all three.
//
//   partition    what does a partition COST after it heals?  A chaos
//                workload runs with the ring cut for a sweep of
//                durations; after heal, the digest anti-entropy pass
//                repairs the divergence.  Reported: keys shipped and
//                repair wire bytes vs partition length — the
//                convergence bill a longer outage runs up.
//
// Output: tables + BENCH_transport.json (schema: {bench, seed, config,
// rows[]}, rows tagged by section).  Structural invariants are
// asserted; wall-clock numbers are reported, not asserted.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "codec/clock_codec.hpp"
#include "kv/cluster.hpp"
#include "kv/coordinator.hpp"
#include "kv/mechanism.hpp"
#include "net/sim_transport.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"

namespace {

using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::DvvMechanism;
using dvv::kv::Key;
using dvv::kv::ReplicaId;
using dvv::util::Rng;

constexpr std::uint64_t kSeed = 20120716;
constexpr std::size_t kServers = 6;
constexpr std::size_t kReplication = 3;
constexpr std::size_t kKeys = 64;
constexpr std::size_t kOverheadOps = 30'000;
constexpr std::size_t kPartitionOps = 2'000;
constexpr std::size_t kPartitionKeys = 512;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

ClusterConfig base_config(dvv::net::TransportKind kind) {
  ClusterConfig cfg;
  cfg.servers = kServers;
  cfg.replication = kReplication;
  cfg.vnodes = 32;
  cfg.transport.kind = kind;
  cfg.transport.sim = dvv::net::SimTransportConfig{};
  cfg.transport.sim.auto_settle = false;
  return cfg;
}

struct Row {
  std::string section;
  std::string variant;
  std::size_t ops = 0;
  double wall_ms = 0.0;
  double kops_per_sec = 0.0;
  double overhead_pct = 0.0;
  std::size_t partition_ops = 0;    // partition section
  std::size_t keys_shipped = 0;
  std::size_t repair_wire_bytes = 0;
  std::size_t partition_drops = 0;
};

/// Digest of the whole cluster's data state (overhead variants must end
/// byte-identical).
std::uint64_t cluster_digest(Cluster<DvvMechanism>& cluster) {
  std::uint64_t acc = 0;
  for (ReplicaId r = 0; r < cluster.servers(); ++r) {
    for (const Key& key : cluster.replica(r).keys()) {
      dvv::codec::Writer w;
      dvv::codec::encode(w, *cluster.replica(r).find(key));
      acc = dvv::sync::combine(
          acc, dvv::sync::hash_bytes(std::span<const std::byte>(w.buffer())));
    }
  }
  return acc;
}

/// The shared write workload: seeded RMW puts at each key's slot-0
/// coordinator with full preference fan-out.  `mode` 0 = direct calls
/// (the same coordinated-write protocol — engine bookkeeping, acks,
/// sealed receipt — with merges as plain function calls and no message
/// layer), 1 = cluster.put (whatever transport the cluster carries;
/// pumped when queued).
std::uint64_t run_writes(Cluster<DvvMechanism>& cluster, std::size_t ops,
                         int mode) {
  Rng rng(kSeed);
  const DvvMechanism& mech = cluster.mechanism();
  // Mode 0's own request engine: the protocol work Cluster::begin_write
  // does (start_write / per-target ack / seal / harvest), minus the
  // transport underneath it.
  dvv::kv::QuorumCoordinator<DvvMechanism> engine;
  std::string scratch;  // the one shared fan-out encode begin_write does
  for (std::size_t i = 0; i < ops; ++i) {
    const Key key = "key-" + std::to_string(rng.index(kKeys));
    const auto pref = cluster.preference_list(key);
    const ReplicaId coordinator = pref[0];
    const auto ctx = cluster.get(key, coordinator).context;
    const std::string value = "v" + std::to_string(i);
    if (mode == 0) {
      auto& coord = cluster.replica(coordinator);
      coord.put(mech, key, coordinator, dvv::kv::client_actor(0), ctx, value);
      dvv::kv::PutReceipt base;
      base.coordinator = coordinator;
      base.targets = pref.size() - 1;
      const std::uint64_t id = engine.start_write(std::move(base), {});
      (void)engine.on_write_ack(id, coordinator);
      const auto* fresh = coord.find(key);
      dvv::kv::Replica<DvvMechanism>::encode_state_into(*fresh, scratch);
      for (const ReplicaId r : pref) {
        if (r == coordinator) continue;
        dvv::kv::PutReceipt& receipt = engine.write_receipt(id);
        receipt.replication_bytes += scratch.size();
        ++receipt.replicated_to;
        cluster.replica(r).merge_key(mech, key, *fresh);
        (void)engine.on_write_ack(id, r);
      }
      (void)engine.seal_write_quorum(id);
      (void)engine.finalize(id);
      const dvv::kv::PutReceipt receipt = engine.take_write(id);
      DVV_ASSERT_MSG(receipt.acks() == pref.size(),
                     "direct-calls protocol twin must see every ack");
    } else {
      // Default fan-out: the key's full preference list.
      dvv::kv::WriteOptions opts;
      opts.coordinator = coordinator;
      cluster.put(key, dvv::kv::client_actor(0), ctx, value, opts);
      cluster.pump_all();  // no-op on inline; drains the queued variant
    }
  }
  return cluster_digest(cluster);
}

/// One timed pass of a variant (fresh cluster, fixed seed).
double time_variant(const std::string& variant, std::uint64_t* digest_out) {
  const auto kind = variant == "sim-queued" ? dvv::net::TransportKind::kSim
                                            : dvv::net::TransportKind::kInline;
  const int mode = variant == "direct-calls" ? 0 : 1;
  Cluster<DvvMechanism> cluster(base_config(kind), {});
  const auto start = std::chrono::steady_clock::now();
  *digest_out = run_writes(cluster, kOverheadOps, mode);
  return ms_since(start);
}

/// Repetitions per overhead variant.  The variants are INTERLEAVED —
/// every round times each variant once, in order — and the reported
/// wall time is the per-variant MINIMUM across rounds: on a shared /
/// noisy host the minimum is the least-perturbed estimate of the true
/// cost (every slower run is the same work plus scheduler
/// interference), and interleaving exposes all variants to the same
/// noise weather instead of letting one variant soak a quiet spell.
/// Each repetition rebuilds its cluster from scratch and must produce
/// the identical digest.
constexpr int kRepeats = 7;

/// All four overhead rows, interleaved and min-reduced.  The
/// metrics-on twin runs with the obs registry enabled and the flight
/// recorder armed; every variant's digest must match the direct run
/// (byte-identical final states), asserted per repetition.
std::vector<Row> bench_overhead_rows() {
  const std::vector<std::string> variants = {
      "direct-calls", "inline-transport", "sim-queued", "inline-metrics-on"};
  std::vector<double> best(variants.size(), 0.0);
  std::uint64_t digest = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const bool metrics_on = variants[v] == "inline-metrics-on";
      if (metrics_on) {
        dvv::obs::set_metrics_enabled(true);
        dvv::obs::flight().configure(4096);
      }
      std::uint64_t d = 0;
      const double wall = time_variant(variants[v], &d);
      if (metrics_on) {
        dvv::obs::set_metrics_enabled(false);
        dvv::obs::flight().configure(0);
      }
      if (rep == 0 && v == 0) {
        digest = d;
      } else {
        DVV_ASSERT_MSG(d == digest,
                       "every overhead variant must end byte-identical");
      }
      if (rep == 0 || wall < best[v]) best[v] = wall;
    }
  }
  std::vector<Row> rows;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    Row row;
    row.section = "overhead";
    row.variant = variants[v];
    row.ops = kOverheadOps;
    row.wall_ms = best[v];
    row.kops_per_sec = static_cast<double>(kOverheadOps) / row.wall_ms;
    // direct-calls is the baseline; the metrics-on twin reports its
    // delta against the metrics-OFF inline run (the obs cost claim).
    const double base = variants[v] == "inline-metrics-on" ? best[1] : best[0];
    row.overhead_pct =
        v == 0 ? 0.0 : 100.0 * (row.wall_ms - base) / base;
    rows.push_back(row);
  }
  return rows;
}

/// The single-replica roof: the same seeded RMW loop against ONE
/// replica — no fan-out, no quorum engine, no transport.  This is the
/// mechanism + storage ceiling that every message-path improvement
/// chases; reported as its own row so the overhead table has an
/// absolute yardstick, not just ratios.
Row bench_roof() {
  double best = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    Cluster<DvvMechanism> cluster(base_config(dvv::net::TransportKind::kInline),
                                  {});
    auto& replica = cluster.replica(0);
    const DvvMechanism& mech = cluster.mechanism();
    Rng rng(kSeed);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kOverheadOps; ++i) {
      const Key key = "key-" + std::to_string(rng.index(kKeys));
      const auto ctx = cluster.get(key, 0).context;
      replica.put(mech, key, 0, dvv::kv::client_actor(0), ctx,
                  "v" + std::to_string(i));
    }
    const double wall = ms_since(start);
    if (rep == 0 || wall < best) best = wall;
  }
  Row row;
  row.section = "roof";
  row.variant = "single-replica-direct";
  row.ops = kOverheadOps;
  row.wall_ms = best;
  row.kops_per_sec = static_cast<double>(kOverheadOps) / best;
  return row;
}

/// Sum of the net.alloc.* miss counters — what the message hot path
/// took from the global allocator while the registry was live.
std::uint64_t net_alloc_total() {
  return dvv::obs::registry().counter_value("net.alloc.messages") +
         dvv::obs::registry().counter_value("net.alloc.envelopes") +
         dvv::obs::registry().counter_value("net.alloc.encode_buffers");
}

/// The zero-allocation claim, asserted rather than assumed: one more
/// sim-queued pass (the variant that actually exercises the encode
/// pools) with the registry live.  The pools are warm from the timed
/// repetitions, so the miss hooks must record ≈0 — any growth here
/// means a send path fell off the pooled fast path.
void audit_steady_state_allocs() {
  dvv::obs::set_metrics_enabled(true);
  const std::uint64_t before = net_alloc_total();
  std::uint64_t digest = 0;
  (void)time_variant("sim-queued", &digest);
  const std::uint64_t after = net_alloc_total();
  dvv::obs::set_metrics_enabled(false);
  DVV_ASSERT_MSG(after - before <= 8,
                 "message hot path must not allocate at steady state");
  std::printf("steady-state alloc audit: %llu pool misses over %zu ops\n\n",
              static_cast<unsigned long long>(after - before), kOverheadOps);
}

/// Chaos workload whose LAST `partition_ops` operations run with the
/// ring cut in half (writes issued post-heal would re-replicate and
/// mask the damage); then heal and let the digest pass repair.
/// Returns the repair bill — the convergence cost of the outage.
Row bench_partition(std::size_t partition_ops) {
  Cluster<DvvMechanism> cluster(base_config(dvv::net::TransportKind::kSim), {});
  Rng rng(kSeed);
  const std::size_t half = kServers / 2;
  std::vector<std::vector<ReplicaId>> groups(2);
  for (ReplicaId r = 0; r < kServers; ++r) {
    groups[r < half ? 0 : 1].push_back(r);
  }

  // "Lost to the cut" = fan-out the coordinator could not even send
  // (refused links, counted off the receipt) plus in-flight messages
  // the partition killed before delivery.
  std::size_t fanout_suppressed = 0;
  for (std::size_t i = 0; i < kPartitionOps; ++i) {
    if (i == kPartitionOps - partition_ops) cluster.partition(groups, "bench");
    const Key key = "key-" + std::to_string(rng.index(kPartitionKeys));
    const auto pref = cluster.preference_list(key);
    const auto ctx = cluster.get(key, pref[0]).context;
    dvv::kv::WriteOptions opts;
    opts.coordinator = pref[0];
    const auto receipt =
        cluster.put(key, dvv::kv::client_actor(0), ctx, "w" + std::to_string(i), opts);
    fanout_suppressed += (pref.size() - 1) - receipt.replicated_to;
    cluster.pump();
  }
  cluster.heal();
  cluster.pump_all();

  Row row;
  row.section = "partition";
  row.variant = "heal+digest-repair";
  row.ops = kPartitionOps;
  row.partition_ops = partition_ops;
  row.partition_drops =
      fanout_suppressed + cluster.transport().stats().partition_dropped;
  const auto start = std::chrono::steady_clock::now();
  const auto report = cluster.anti_entropy_digest();
  row.wall_ms = ms_since(start);
  row.keys_shipped = report.stats.keys_shipped;
  row.repair_wire_bytes = report.stats.wire_bytes;
  DVV_ASSERT_MSG(cluster.anti_entropy() == 0,
                 "digest repair must reach the legacy fixed point");
  return row;
}

void write_json(const std::vector<Row>& rows) {
  std::FILE* f = std::fopen("BENCH_transport.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_transport.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"transport\",\n  \"seed\": %llu,\n",
               static_cast<unsigned long long>(kSeed));
  std::fprintf(f, "  \"obs\": %s,\n",
               dvv::obs::registry().json_snapshot().c_str());
  std::fprintf(f,
               "  \"config\": {\"servers\": %zu, \"replication\": %zu, "
               "\"keys\": %zu, \"overhead_ops\": %zu, \"partition_ops\": %zu},\n"
               "  \"rows\": [\n",
               kServers, kReplication, kKeys, kOverheadOps, kPartitionOps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"section\": \"%s\", \"variant\": \"%s\", \"ops\": %zu, "
        "\"wall_ms\": %.3f, \"kops_per_sec\": %.1f, \"overhead_pct\": %.1f, "
        "\"partition_ops\": %zu, \"keys_shipped\": %zu, "
        "\"repair_wire_bytes\": %zu, \"partition_drops\": %zu}%s\n",
        r.section.c_str(), r.variant.c_str(), r.ops, r.wall_ms, r.kops_per_sec,
        r.overhead_pct, r.partition_ops, r.keys_shipped, r.repair_wire_bytes,
        r.partition_drops, i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  std::printf("==== transport: message-layer overhead vs direct calls ====\n");
  std::printf("%zu coordinator puts + %zu-way fan-out, seed %llu\n\n",
              kOverheadOps, kReplication - 1,
              static_cast<unsigned long long>(kSeed));

  // Interleaved best-of-kRepeats: digests asserted identical across
  // every variant and repetition inside bench_overhead_rows itself.
  std::vector<Row> rows = bench_overhead_rows();
  rows.push_back(bench_roof());

  dvv::util::TextTable overhead_table;
  overhead_table.header({"variant", "kops/s", "wall ms", "overhead %"});
  for (const Row& r : rows) {
    if (r.section != "overhead" && r.section != "roof") continue;
    overhead_table.row({r.variant, dvv::util::fixed(r.kops_per_sec, 1),
                        dvv::util::fixed(r.wall_ms, 2),
                        r.section == "roof"
                            ? std::string("(roof)")
                            : dvv::util::fixed(r.overhead_pct, 1)});
  }
  std::printf("%s\n", overhead_table.to_string().c_str());

  audit_steady_state_allocs();

  std::printf("==== transport: convergence cost vs partition duration ====\n");
  std::printf("%zu puts over %zu keys, ring cut %zu/%zu for the LAST D ops\n\n",
              kPartitionOps, kPartitionKeys, kServers / 2,
              kServers - kServers / 2);

  dvv::util::TextTable partition_table;
  partition_table.header({"partition ops", "msgs lost to cut", "keys shipped",
                          "repair bytes", "repair ms"});
  std::size_t prev_drops = 0;
  for (const std::size_t d : {0u, 125u, 250u, 500u, 1000u, 2000u}) {
    rows.push_back(bench_partition(d));
    const Row& r = rows.back();
    partition_table.row({std::to_string(r.partition_ops),
                         std::to_string(r.partition_drops),
                         std::to_string(r.keys_shipped),
                         dvv::util::human_bytes(
                             static_cast<double>(r.repair_wire_bytes)),
                         dvv::util::fixed(r.wall_ms, 2)});
    DVV_ASSERT_MSG(d == 0 || r.partition_drops > prev_drops,
                   "a longer partition must cut more messages");
    prev_drops = r.partition_drops;
  }
  std::printf("%s\n", partition_table.to_string().c_str());

  write_json(rows);
  std::printf("wrote BENCH_transport.json (%zu rows)\n", rows.size());
  return 0;
}
