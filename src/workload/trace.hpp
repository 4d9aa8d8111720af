// dvv/workload/trace.hpp
//
// Mechanism-independent workload traces.
//
// A Trace is a fully *resolved* sequence of storage operations: every
// random choice (which client, which key, which preference-list slot
// coordinates, which replicas the write reaches immediately, whether the
// client read before writing) is already fixed.  Replaying the same
// trace against two clusters that differ only in their causality
// mechanism therefore exercises the mechanisms on the *identical*
// interleaving — the foundation of the oracle audits (E2/E8/E9): any
// difference in outcome is attributable to the clocks alone.
//
// Ranks, not replica ids: operations name preference-list *positions*
// ("slot 2 of this key's preference list"), resolved against the ring at
// replay time.  Both sides of a mirrored run use identical ring
// configuration, so ranks resolve identically — and a trace stays valid
// for any mechanism.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kv/types.hpp"

namespace dvv::workload {

struct TraceOp {
  enum class Kind : std::uint8_t {
    kGet,          ///< client reads key via `rank` (refreshes its context)
    kPut,          ///< client writes key; coordinator = `rank`
    kAntiEntropy,  ///< cluster-wide anti-entropy round
    kFail,         ///< server `server` crashes (stops serving, keeps disk)
    kRecover,      ///< server `server` comes back with its old state
    kPartition,    ///< network splits into `groups` (messages crossing are lost)
    kHeal,         ///< the partition heals; every link carries again
    kTick,         ///< async replay: one transport pump + coordination tick
    kJoin,         ///< server `server` joins the ring (rebalance completes inline)
    kLeave,        ///< server `server` gracefully leaves the ring
  };

  Kind kind = Kind::kGet;
  std::size_t client = 0;  ///< client index (ClientId = client_actor(index))
  kv::Key key;
  std::size_t rank = 0;    ///< preference-list slot of the GET source / PUT coordinator
  std::vector<std::size_t> replicate_ranks;  ///< PUT: slots reached immediately
  bool blind = false;      ///< PUT: ignore any remembered context (classic overwrite)
  kv::Value value;         ///< PUT payload (unique per write: "w<seq>")
  std::size_t server = 0;  ///< kFail/kRecover/kJoin/kLeave: absolute server id
  std::vector<std::vector<std::size_t>> groups;  ///< kPartition: isolated server groups
};

struct Trace {
  std::vector<TraceOp> ops;
  /// Total client identities used: spec.clients named read-modify-write
  /// sessions plus one fresh anonymous identity per blind write (the
  /// Riak-classic "short-lived writer" population).
  std::size_t clients = 0;
  /// When set, PUTs use the sloppy quorum (WriteOptions::hinted_handoff)
  /// and recoveries trigger hint delivery.
  bool hinted_handoff = false;
  /// When set, kFail/kRecover are TRUE crashes: volatile state dropped,
  /// recovery replays the replica's storage backend (src/store) instead
  /// of waking up with memory intact.
  bool crash_faults = false;
  /// When set, kGet/kPut are issued as ASYNCHRONOUS coordinator
  /// requests (Cluster::begin_read / begin_write with the quorums
  /// below): operations stay in flight across subsequent ops, kTick
  /// events pump the transport and expire deadlines, and completions
  /// are harvested as they land — concurrent client operations on an
  /// identical, mechanism-independent schedule.
  bool async_quorum = false;
  std::size_t read_quorum = 1;
  std::size_t write_quorum = 1;
  /// Coordination ticks before an in-flight op times out (async only).
  std::size_t deadline_ticks = 16;
  std::uint64_t seed = 0;

  [[nodiscard]] std::size_t size() const noexcept { return ops.size(); }
};

/// Workload shape parameters (the sweep axes of experiments E5-E9).
struct WorkloadSpec {
  std::size_t keys = 100;           ///< distinct keys
  double zipf_skew = 0.99;          ///< key popularity skew (0 = uniform)
  std::size_t clients = 32;         ///< concurrent writing clients
  std::size_t operations = 10'000;  ///< writes issued (plus their reads)
  double read_before_write = 0.9;   ///< P(write is read-modify-write)
  double replicate_probability = 1.0;  ///< P(each non-coordinator replica
                                       ///  receives the write immediately)
  bool spread_coordination = true;  ///< coordinator uniform over preference
                                    ///  list (vs always slot 0)
  std::size_t anti_entropy_every = 0;  ///< ops between AE rounds (0 = never)
  std::size_t value_bytes = 16;     ///< payload size per write

  /// Failure injection: per-operation probability that one alive server
  /// crashes / one crashed server recovers.  At most replication-1
  /// servers are ever down at once, so every key keeps at least one
  /// alive preference replica.  Servers keep their stored state across
  /// a crash (fail-stop, durable disk) — exactly the situation
  /// anti-entropy plus sound clocks must repair.
  double fail_probability = 0.0;
  double recover_probability = 0.0;
  std::size_t servers = 0;  ///< must match ClusterConfig.servers when
                            ///  failure or partition injection is enabled
  bool hinted_handoff = false;  ///< PUTs park hints for dead preference
                                ///  members; recoveries deliver them
  bool crash_faults = false;  ///< kFail drops volatile state (true crash);
                              ///  kRecover replays the storage backend

  /// Network partition injection: per-operation probability that the
  /// cluster splits into two random groups (kPartition) / that an
  /// active split heals (kHeal).  At most one partition is active at a
  /// time; an active split at trace end is healed by a final kHeal so
  /// replays can converge.  Requires spec.servers >= 2.
  double partition_probability = 0.0;
  double heal_probability = 0.0;

  /// Ring churn injection: per-operation probability that a provisioned
  /// non-member joins (kJoin) / that a member beyond the replication
  /// floor gracefully leaves (kLeave).  Requires `capacity` >= servers
  /// (slots [servers, capacity) start outside the seed ring, matching
  /// ClusterConfig/StoreConfig defaults).  Churn ops are emitted only at
  /// healthy moments — no member down, no partition active — because
  /// the replayers complete each rebalance inline, which needs every
  /// transfer source reachable.  A slot that left earlier may rejoin,
  /// exercising the clock-incarnation bump.
  double join_probability = 0.0;
  double leave_probability = 0.0;
  std::size_t capacity = 0;  ///< provisioned replica slots (0 = servers)

  /// Asynchronous quorum coordination: when set, GET/PUT trace ops are
  /// replayed as in-flight coordinator requests (R = read_quorum acks a
  /// read, W = write_quorum a write) and kTick ops — emitted before
  /// each operation with `tick_probability` — pump the transport, so
  /// client operations genuinely overlap.  Sloppy-quorum (hinted
  /// handoff) puts stay synchronous: hint parking is a coordinator-side
  /// scatter, not a client wait.
  bool async_quorum = false;
  std::size_t read_quorum = 1;
  std::size_t write_quorum = 1;
  double tick_probability = 0.6;
  std::size_t deadline_ticks = 16;

  std::uint64_t seed = 1;
};

/// Expands a spec into a resolved trace for a cluster with the given
/// replication factor.  Deterministic in (spec, replication).
[[nodiscard]] Trace generate_trace(const WorkloadSpec& spec, std::size_t replication);

}  // namespace dvv::workload
