// bench_quorum — client-observed quorum coordination cost
// (src/kv/coordinator.hpp).
//
// The question: what do R/W choice, message loss and partition length
// COST the client, now that a GET/PUT is a request state machine whose
// completion waits for real replies?  A workload of CONCURRENT
// coordinated reads and writes runs against a 6-server ring, one
// transport pump per issued operation, and every request's
// client-observed latency is measured in coordination ticks from issue
// to terminal outcome.  Swept axes:
//
//   transport   inline (synchronous: the zero-latency floor — every
//               request completes before the call returns) vs the
//               queued SimTransport (replies ride the same faulty
//               queues as replication);
//   R = W       1 (coordinator-local, Riak's default ack), 2 (majority
//               of 3), 3 (all);
//   drop rate   per-message loss — lost scatter or lost replies push
//               requests toward their deadline;
//   partition   a window of operations issued with the ring cut in
//               half — quorums larger than the reachable side cannot
//               complete until the heal.
//
// Reported per row: completion-outcome mix (quorum / timeout), degraded
// completions, latency ticks (mean, p99, max), and the engine's reply
// hygiene counters (late / duplicate / stale drops — nonzero whenever
// faults are on, proving the hygiene paths run under load).
//
// Output: table + BENCH_quorum.json (schema: {bench, seed, config,
// rows[]}).  Structural invariants are asserted; latency magnitudes are
// reported, not asserted.
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "kv/cluster.hpp"
#include "kv/coordinator.hpp"
#include "kv/mechanism.hpp"
#include "net/sim_transport.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::CoordOutcome;
using dvv::kv::DvvMechanism;
using dvv::kv::Key;
using dvv::kv::ReplicaId;
using dvv::util::Rng;

constexpr std::uint64_t kSeed = 20120716;
constexpr std::size_t kServers = 6;
constexpr std::size_t kReplication = 3;
constexpr std::size_t kKeys = 64;
constexpr std::size_t kOps = 2'000;
constexpr std::uint64_t kDeadlineTicks = 16;

struct Row {
  std::string transport;
  std::size_t quorum = 1;        // R = W
  double drop = 0.0;
  std::size_t partition_ops = 0; // ops issued while the ring is cut
  std::size_t requests = 0;      // reads + writes issued
  std::size_t completed_quorum = 0;
  std::size_t timeouts = 0;      // deadline (or shutdown-finalized)
  std::size_t degraded = 0;      // completed below quorum / fan-out
  double availability_pct = 0.0; // quorum completions / requests
  double latency_mean = 0.0;     // ticks, issue -> terminal
  double latency_p99 = 0.0;
  double latency_max = 0.0;
  std::size_t late_drops = 0;    // late + stale reply drops
  std::size_t dup_drops = 0;
};

ClusterConfig make_config(bool inline_transport, double drop,
                          std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.servers = kServers;
  cfg.replication = kReplication;
  cfg.vnodes = 32;
  cfg.transport.kind = inline_transport ? dvv::net::TransportKind::kInline
                                        : dvv::net::TransportKind::kSim;
  cfg.transport.sim = dvv::net::SimTransportConfig{};
  cfg.transport.sim.seed = seed;
  cfg.transport.sim.drop_probability = drop;
  cfg.transport.sim.duplicate_probability = 0.05;
  cfg.transport.sim.reorder_window = 2;
  cfg.transport.sim.auto_settle = false;  // requests stay in flight
  return cfg;
}

Row run_workload(bool inline_transport, std::size_t quorum, double drop,
                 std::size_t partition_ops) {
  Cluster<DvvMechanism> cluster(
      make_config(inline_transport, drop, kSeed ^ (quorum * 7919)), {});
  Rng rng(kSeed);

  Row row;
  row.transport = inline_transport ? "inline" : "sim";
  row.quorum = quorum;
  row.drop = drop;
  row.partition_ops = partition_ops;

  // The partition window sits in the middle of the run.
  const std::size_t cut_at = partition_ops == 0 ? kOps : kOps / 2;
  const std::size_t heal_at = cut_at + partition_ops;
  std::vector<std::vector<ReplicaId>> halves(2);
  for (ReplicaId r = 0; r < kServers; ++r) halves[r < kServers / 2 ? 0 : 1].push_back(r);

  std::uint64_t pumps = 0;
  std::map<std::uint64_t, std::uint64_t> issue_tick;  // id -> pump count
  dvv::util::Samples latency;

  // id -> is_read (the typed harvest needs to know which taker).
  std::map<std::uint64_t, bool> kind;

  const auto drain_completed = [&] {
    for (const std::uint64_t id : cluster.take_completed_requests()) {
      latency.add(static_cast<double>(pumps - issue_tick.at(id)));
      issue_tick.erase(id);
      const bool is_read = kind.at(id);
      kind.erase(id);
      CoordOutcome outcome;
      bool degraded = false;
      if (is_read) {
        const auto harvest = cluster.take_read_result(id);
        outcome = harvest.outcome;
        degraded = harvest.result.degraded;
      } else {
        const auto receipt = cluster.take_write_receipt(id);
        outcome = receipt.outcome;
        degraded = receipt.degraded;
      }
      if (outcome == CoordOutcome::kQuorum) {
        ++row.completed_quorum;
      } else {
        ++row.timeouts;
      }
      if (degraded) ++row.degraded;
    }
  };

  for (std::size_t op = 0; op < kOps; ++op) {
    if (op == cut_at && partition_ops > 0) cluster.partition(halves, "bench");
    if (op == heal_at && partition_ops > 0) cluster.heal();

    const Key key = "key-" + std::to_string(rng.index(kKeys));
    const auto pref = cluster.preference_list(key);
    const ReplicaId coordinator = pref[0];
    const auto ctx = cluster.get(key, coordinator).context;

    dvv::kv::WriteOptions wopts;
    wopts.write_quorum = quorum;
    wopts.deadline_ticks = kDeadlineTicks;
    wopts.coordinator = coordinator;
    wopts.replicate_to = pref;
    const std::uint64_t wid = cluster.begin_write(
        key, dvv::kv::client_actor(0), ctx, "w" + std::to_string(op), wopts);
    issue_tick[wid] = pumps;
    kind[wid] = false;
    ++row.requests;

    if (rng.chance(0.5)) {
      dvv::kv::ReadOptions ropts;
      ropts.deadline_ticks = kDeadlineTicks;
      ropts.coordinator = coordinator;
      const std::uint64_t rid = cluster.begin_read(key, quorum, ropts);
      issue_tick[rid] = pumps;
      kind[rid] = true;
      ++row.requests;
    }
    drain_completed();  // inline transports complete everything here

    ++pumps;
    cluster.pump();
    drain_completed();
  }

  // Shutdown: heal, keep pumping until every request reached its
  // terminal state (the deadline bounds this), then account leftovers.
  cluster.heal();
  std::size_t guard = 0;
  while (!issue_tick.empty()) {
    ++pumps;
    cluster.pump();
    drain_completed();
    DVV_ASSERT_MSG(++guard < 10 * kDeadlineTicks + 1000,
                   "bench_quorum: requests failed to reach a terminal state");
  }

  row.availability_pct =
      100.0 * static_cast<double>(row.completed_quorum) /
      static_cast<double>(row.requests);
  row.latency_mean = latency.mean();
  row.latency_p99 = latency.p99();
  row.latency_max = latency.max();
  const auto& coord = cluster.coord_stats();
  row.late_drops = coord.late_replies_dropped + coord.stale_replies_dropped;
  row.dup_drops = coord.duplicate_replies_dropped;

  DVV_ASSERT_MSG(row.completed_quorum + row.timeouts == row.requests,
                 "every request must end in exactly one outcome");
  return row;
}

void write_json(const std::vector<Row>& rows) {
  std::FILE* f = std::fopen("BENCH_quorum.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_quorum.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"quorum\",\n  \"seed\": %llu,\n",
               static_cast<unsigned long long>(kSeed));
  std::fprintf(f, "  \"obs\": %s,\n",
               dvv::obs::registry().json_snapshot().c_str());
  std::fprintf(f,
               "  \"config\": {\"servers\": %zu, \"replication\": %zu, "
               "\"keys\": %zu, \"ops\": %zu, \"deadline_ticks\": %llu},\n"
               "  \"rows\": [\n",
               kServers, kReplication, kKeys, kOps,
               static_cast<unsigned long long>(kDeadlineTicks));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"transport\": \"%s\", \"quorum\": %zu, \"drop\": %.2f, "
        "\"partition_ops\": %zu, \"requests\": %zu, "
        "\"completed_quorum\": %zu, \"timeouts\": %zu, \"degraded\": %zu, "
        "\"availability_pct\": %.2f, \"latency_ticks_mean\": %s, "
        "\"latency_ticks_p99\": %s, \"latency_ticks_max\": %s, "
        "\"late_reply_drops\": %zu, \"dup_reply_drops\": %zu}%s\n",
        r.transport.c_str(), r.quorum, r.drop, r.partition_ops, r.requests,
        r.completed_quorum, r.timeouts, r.degraded, r.availability_pct,
        // json_number: an all-timeout row has EMPTY latency samples, and
        // the accumulators now answer NaN (not 0.0) — render null, since
        // bare nan is invalid JSON.
        dvv::util::json_number(r.latency_mean, 3).c_str(),
        dvv::util::json_number(r.latency_p99, 1).c_str(),
        dvv::util::json_number(r.latency_max, 1).c_str(), r.late_drops,
        r.dup_drops, i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  // Metrics on for the whole run (behavior-invariant by the obs twin
  // property) so the embedded registry snapshot holds real numbers.
  dvv::obs::set_metrics_enabled(true);
  std::printf("==== quorum: client-observed latency/availability vs R/W, "
              "drop rate, partition ====\n");
  std::printf("%zu concurrent ops, %zu servers, replication %zu, deadline %llu "
              "ticks, seed %llu\n\n",
              kOps, kServers, kReplication,
              static_cast<unsigned long long>(kDeadlineTicks),
              static_cast<unsigned long long>(kSeed));

  std::vector<Row> rows;
  dvv::util::TextTable table;
  table.header({"transport", "R=W", "drop", "cut ops", "avail %", "timeouts",
                "degraded", "lat mean", "lat p99", "late drops"});

  // Inline floor: every quorum completes synchronously at zero ticks.
  for (const std::size_t q : {1u, 2u, 3u}) {
    rows.push_back(run_workload(/*inline=*/true, q, 0.0, 0));
  }
  // Queued transport: drop-rate sweep at each quorum.
  for (const std::size_t q : {1u, 2u, 3u}) {
    for (const double drop : {0.0, 0.05, 0.15}) {
      rows.push_back(run_workload(/*inline=*/false, q, drop, 0));
    }
  }
  // Partition-duration sweep at majority quorum under light loss.
  for (const std::size_t cut : {60u, 250u, 1000u}) {
    rows.push_back(run_workload(/*inline=*/false, 2, 0.05, cut));
  }

  for (const Row& r : rows) {
    table.row({r.transport, std::to_string(r.quorum), dvv::util::fixed(r.drop, 2),
               std::to_string(r.partition_ops),
               dvv::util::fixed(r.availability_pct, 2),
               std::to_string(r.timeouts), std::to_string(r.degraded),
               dvv::util::fixed(r.latency_mean, 2),
               dvv::util::fixed(r.latency_p99, 1),
               std::to_string(r.late_drops)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Structural invariants.
  for (const Row& r : rows) {
    if (r.transport == "inline") {
      DVV_ASSERT_MSG(r.timeouts == 0 && r.availability_pct == 100.0,
                     "inline coordination must complete everything in place");
      DVV_ASSERT_MSG(r.latency_max == 0.0,
                     "inline requests terminate before the call returns");
    }
  }
  const auto find_row = [&](std::size_t q, double drop, std::size_t cut) -> const Row& {
    for (const Row& r : rows) {
      if (r.transport == "sim" && r.quorum == q && r.drop == drop &&
          r.partition_ops == cut) {
        return r;
      }
    }
    DVV_ASSERT_MSG(false, "row not found");
    return rows.front();
  };
  DVV_ASSERT_MSG(find_row(3, 0.15, 0).timeouts > 0,
                 "heavy loss at R=W=3 must push requests into their deadline");
  DVV_ASSERT_MSG(find_row(1, 0.15, 0).timeouts == 0,
                 "W=1 completes at the coordinator regardless of loss");
  DVV_ASSERT_MSG(find_row(3, 0.15, 0).availability_pct <
                     find_row(3, 0.0, 0).availability_pct + 1e-9,
                 "loss must not improve availability");
  DVV_ASSERT_MSG(find_row(2, 0.05, 1000).timeouts >
                     find_row(2, 0.05, 60).timeouts,
                 "a longer partition must time out more quorum-2 requests");
  DVV_ASSERT_MSG(find_row(3, 0.15, 0).late_drops > 0,
                 "replies outliving their requests must hit the hygiene path");

  write_json(rows);
  std::printf("wrote BENCH_quorum.json (%zu rows)\n", rows.size());
  return 0;
}
