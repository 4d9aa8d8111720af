// dvv/kv/cluster.hpp
//
// The Riak-shaped replicated store: a consistent-hash ring of replicas,
// coordinator-routed GET/PUT, probabilistic write replication (to create
// the divergence anti-entropy then repairs), and the anti-entropy pass
// itself.  Templated on the causality mechanism — the whole point of the
// paper is that this file does not change between Fig. 1b and Fig. 1c.
//
// Determinism contract: the cluster itself makes NO random choices.
// Which replica coordinates, which replica serves a read, and which
// messages a faulty transport drops, duplicates or delays are all
// chosen by the caller (workload driver / test), which gets its
// randomness from a seeded Rng — the transport's fault Rng is seeded
// through its config.  That is what lets the oracle (src/oracle)
// replay the exact same decision sequence against the causal-history
// mechanism and audit the outcome.
//
// Fault model: set_alive(false) pauses a replica with memory intact;
// crash() is the real thing — volatile state is gone and recover()
// rebuilds from the replica's storage backend (src/store), after which
// anti-entropy repairs whatever the durability model lost.  Network
// faults are the transport's (src/net): everything that crosses
// between replicas — put fan-out, hint stash/delivery, anti-entropy
// session initiation — is a typed message serialized through the codec
// and handed to a pluggable net::Transport, so partitions, reordering,
// duplication and in-flight loss are expressible.  The default
// InlineTransport delivers synchronously in send order — byte-identical
// to direct calls (tests/transport_equivalence_test.cpp).
//
// Client path: GET/PUT coordination is a per-request state machine
// (src/kv/coordinator.hpp) driven through the same transport — quorum
// reads scatter CoordReadReqMsg and merge the first R distinct replies,
// writes fan out CoordWriteReqMsg and count distinct acks toward W,
// with tick deadlines and late/duplicate/stale reply hygiene.  The
// synchronous get_quorum/put calls are thin shims: start a request,
// settle the transport, force-complete whatever has not answered,
// harvest the receipt.  begin_read/begin_write expose the
// asynchronous form, so many client operations can be IN FLIGHT at once
// across partitions, reorderings and crashes (sim/sim_store.hpp,
// workload/replay.hpp).  Cluster::get stays the raw single-replica
// read: tests and the repair paths use it to inspect any replica's
// memory directly — dead ones included — which a coordinated request
// by design cannot do.
//
// Shard-per-thread execution (ROADMAP item 1): when the transport is a
// net::ThreadedTransport with S shards, replica n is OWNED by shard
// n % S and every mutation of its state — message deliveries, local
// applies, coordination engine updates — happens on that shard's
// thread.  The cluster keeps one ShardState (coordination engine, send
// slots, drop counters, completed-sync records) per shard; nothing in
// a ShardState is ever touched by two threads at once because every
// envelope routes to shard_of(envelope.to) and client operations enter
// a replica's serial domain through run_at().  Control-plane calls
// (partition/heal, anti-entropy, crash/recover, stats readers, the
// legacy sync shims) remain single-threaded-only: they are legal at
// quiescence (transport idle), where the transport's acquire/release
// in-flight accounting makes every shard's writes visible.  With any
// other transport there is exactly one shard and the behavior — and
// the bytes — are identical to the pre-sharding cluster.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "kv/coordinator.hpp"
#include "kv/mechanism.hpp"
#include "kv/replica.hpp"
#include "kv/results.hpp"
#include "kv/ring.hpp"
#include "kv/types.hpp"
#include "membership/membership.hpp"
#include "net/message.hpp"
#include "net/threaded_transport.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "store/backend.hpp"
#include "sync/anti_entropy.hpp"
#include "sync/key_digest.hpp"
#include "sync/merkle.hpp"
#include "util/assert.hpp"

namespace dvv::kv {

struct ClusterConfig {
  std::size_t servers = 3;
  std::size_t replication = 3;
  std::size_t vnodes = 64;
  sync::MerkleConfig aae{};          ///< geometry of the per-replica hash trees
  store::BackendConfig storage{};    ///< per-replica durability model
  net::TransportConfig transport{};  ///< inter-replica message layer (src/net)
  /// Elastic membership (src/membership): `capacity` replicas are
  /// PROVISIONED (processes exist, ids 0..capacity-1) but only
  /// `initial_members` are ring members at epoch 0 — the rest join
  /// later through join_node().  Defaults keep the pre-membership
  /// shape: capacity = servers, members = {0..servers-1}, and with
  /// those defaults every routing decision is byte-identical to a
  /// cluster without the subsystem.
  std::size_t capacity = 0;                  ///< 0 = servers
  std::vector<ReplicaId> initial_members{};  ///< empty = {0..servers-1}
};

template <CausalityMechanism M>
class Cluster {
 public:
  using Context = typename M::Context;
  using Stored = typename M::Stored;
  using GetResult = typename Replica<M>::GetResult;
  // The coordinated-PUT receipt now lives with the request engine
  // (kv/coordinator.hpp); the alias keeps Cluster<M>::PutReceipt naming
  // working for every existing caller.
  using PutReceipt = ::dvv::kv::PutReceipt;
  using ReadReceipt = typename QuorumCoordinator<M>::ReadReceipt;

  Cluster(ClusterConfig config, M mechanism)
      : config_(normalized(std::move(config))),
        mechanism_(std::move(mechanism)),
        membership_(config_.initial_members, config_.replication,
                    config_.vnodes),
        ring_(membership_.current().ring),
        known_epoch_(config_.capacity, 0),
        digest_index_(config_.capacity, config_.aae),
        transport_(net::make_transport(config_.transport)) {
    replicas_.reserve(config_.capacity);
    for (std::size_t s = 0; s < config_.capacity; ++s) {
      replicas_.emplace_back(static_cast<ReplicaId>(s),
                             store::make_backend(config_.storage));
      replicas_.back().set_observer(&digest_index_);
    }
    wire_partitioner();
    wire_transport();
    const std::size_t shard_count =
        threaded_ == nullptr ? 1 : threaded_->shards();
    shards_.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      shards_.push_back(std::make_unique<ShardState>());
    }
  }

  // Replicas hold a pointer to this cluster's digest index and the
  // transport sink captures `this`, so moves must re-wire both and
  // copies are disallowed.  Moves are control-plane: legal only at
  // quiescence (no shard thread can be touching the moved-from state).
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  Cluster(Cluster&& other) noexcept
      : config_(std::move(other.config_)),
        mechanism_(std::move(other.mechanism_)),
        membership_(std::move(other.membership_)),
        ring_(std::move(other.ring_)),
        target_ring_(std::move(other.target_ring_)),
        flipped_partitions_(std::move(other.flipped_partitions_)),
        rebalance_(std::move(other.rebalance_)),
        known_epoch_(std::move(other.known_epoch_)),
        digest_index_(std::move(other.digest_index_)),
        transport_(std::move(other.transport_)),
        replicas_(std::move(other.replicas_)),
        shards_(std::move(other.shards_)),
        next_sync_nonce_(
            other.next_sync_nonce_.load(std::memory_order_relaxed)),
        repairs_shipped_total_(
            other.repairs_shipped_total_.load(std::memory_order_relaxed)) {
    for (auto& rep : replicas_) rep.set_observer(&digest_index_);
    wire_partitioner();
    wire_transport();
  }
  Cluster& operator=(Cluster&& other) noexcept {
    config_ = std::move(other.config_);
    mechanism_ = std::move(other.mechanism_);
    membership_ = std::move(other.membership_);
    ring_ = std::move(other.ring_);
    target_ring_ = std::move(other.target_ring_);
    flipped_partitions_ = std::move(other.flipped_partitions_);
    rebalance_ = std::move(other.rebalance_);
    known_epoch_ = std::move(other.known_epoch_);
    digest_index_ = std::move(other.digest_index_);
    transport_ = std::move(other.transport_);
    replicas_ = std::move(other.replicas_);
    shards_ = std::move(other.shards_);
    next_sync_nonce_.store(
        other.next_sync_nonce_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    repairs_shipped_total_.store(
        other.repairs_shipped_total_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    for (auto& rep : replicas_) rep.set_observer(&digest_index_);
    wire_partitioner();
    wire_transport();
    return *this;
  }

  [[nodiscard]] const ClusterConfig& config() const noexcept { return config_; }
  [[nodiscard]] const Ring& ring() const noexcept { return ring_; }
  [[nodiscard]] const M& mechanism() const noexcept { return mechanism_; }
  [[nodiscard]] Replica<M>& replica(ReplicaId id) { return replicas_.at(id); }
  [[nodiscard]] const Replica<M>& replica(ReplicaId id) const { return replicas_.at(id); }
  [[nodiscard]] std::size_t servers() const noexcept { return replicas_.size(); }

  // ---- shard topology ----------------------------------------------------

  /// Execution shards: the threaded transport's shard count, else 1.
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Owner shard of replica `r` (always 0 without a threaded transport).
  [[nodiscard]] std::size_t shard_of(ReplicaId r) const noexcept {
    return threaded_ == nullptr ? 0 : threaded_->shard_of(r);
  }

  /// The threaded transport when this cluster runs on one, else null —
  /// hosts (the dvvd server) wire their event loops through it.
  [[nodiscard]] net::ThreadedTransport* threaded_transport() noexcept {
    return threaded_;
  }

  /// Runs `fn` inside replica `r`'s serial execution domain: on the
  /// owner shard's thread (blocking the caller) when the transport is
  /// threaded, inline otherwise.  The door for client operations — a
  /// W=1 put / raw get against a live sharded cluster must go through
  /// here (or already be running on the owner shard).
  template <typename Fn>
  void run_at(ReplicaId r, Fn&& fn) {
    if (threaded_ != nullptr) {
      threaded_->run_on(threaded_->shard_of(r), std::function<void()>(fn));
    } else {
      fn();
    }
  }

  // ---- message layer (src/net) -------------------------------------------

  [[nodiscard]] net::Transport& transport() noexcept { return *transport_; }
  [[nodiscard]] const net::Transport& transport() const noexcept {
    return *transport_;
  }

  /// One transport tick: delivers due queued messages into the
  /// replicas AND advances one coordination tick, expiring client
  /// requests whose deadline passed.  No-op (returns 0 deliveries) on
  /// the inline transport.
  std::size_t pump() {
    // With a threaded transport this quiesces first (Transport::pump
    // contract there), so ticking every shard's engine from this thread
    // is safe: the only traffic the repairs below put in flight is
    // ReplicateMsg, whose delivery touches replicas, never engines.
    const std::size_t delivered = transport_->pump();
    for (auto& shard : shards_) {
      for (const std::uint64_t id : shard->engine.tick()) {
        maybe_read_repair(shard->engine, id);
      }
    }
    return delivered;
  }

  /// Pumps until nothing is in flight.
  std::size_t pump_all() {
    std::size_t delivered = 0;
    while (!transport_->idle()) delivered += pump();
    return delivered;
  }

  /// Cuts the replica set into isolated groups (net::Transport::
  /// partition); replication, handoff and sync messages crossing the
  /// cut are lost.  heal() restores every link.
  void partition(const std::vector<std::vector<ReplicaId>>& groups,
                 std::string label = {}) {
    transport_->partition(groups, std::move(label));
  }
  void heal() { transport_->heal(); }

  /// Messages the cluster discarded because their destination replica
  /// was not alive at delivery time — now a namespace-scope type
  /// (kv/results.hpp) shared with the kv::Store facade; the historical
  /// nested name keeps existing callers compiling.
  using DeliveryDrops = ::dvv::kv::DeliveryDrops;
  /// Merged over every shard's counters; exact at quiescence.
  [[nodiscard]] const DeliveryDrops& delivery_drops() const noexcept {
    drops_scratch_ = DeliveryDrops{};
    for (const auto& shard : shards_) {
      const DeliveryDrops& d = shard->drops;
      drops_scratch_.replicate += d.replicate;
      drops_scratch_.hint_stash += d.hint_stash;
      drops_scratch_.hint_deliver += d.hint_deliver;
      drops_scratch_.hint_ack += d.hint_ack;
      drops_scratch_.sync += d.sync;
      drops_scratch_.coord += d.coord;
      drops_scratch_.membership += d.membership;
    }
    return drops_scratch_;
  }

  /// Crashes server `r`: volatile state dropped, durable log kept (see
  /// Replica::crash).  `torn_tail_bytes` injects a torn trailing write.
  void crash(ReplicaId r, std::size_t torn_tail_bytes = 0) {
    replicas_.at(r).crash(torn_tail_bytes);
  }

  /// Recovers server `r` by storage replay; the Merkle trees rebuild
  /// lazily through the KeyObserver hook.  Pair with deliver_hints()
  /// and an anti-entropy round to repair what the log lost.
  store::RecoveryStats recover(ReplicaId r) { return replicas_.at(r).recover(); }

  /// The ring snapshot `key` routes by: the ACTIVE ring, unless a
  /// rebalance is in progress AND the key's partition already flipped
  /// (every new owner walked every source), in which case the target
  /// epoch's ring.  Identical to ring() when no transfer is running.
  [[nodiscard]] const Ring& routing_ring(const Key& key) const {
    if (!target_ring_.has_value()) return ring_;
    // partition_of registers unseen partitions lazily and is therefore
    // non-const; safe here because target_ring_ is only mutated inside
    // a stopped world / at quiescence (see join_node), so no shard
    // thread can race this registration.
    auto& index = const_cast<sync::DigestIndex&>(digest_index_);
    if (flipped_partitions_.contains(index.partition_of(key))) {
      return *target_ring_;
    }
    return ring_;
  }

  /// Preference list for a key (coordinator candidates, in ring order),
  /// answered against the key's routing ring (epoch-aware mid-rebalance).
  [[nodiscard]] std::vector<ReplicaId> preference_list(const Key& key) const {
    return routing_ring(key).preference_list(key);
  }

  /// Write fan-out for a key: the preference list, plus — during a
  /// rebalance — the target ring's owners (DUAL-APPLY: a write accepted
  /// inside the transfer window must land on the new owners too, or the
  /// flip could lose an acknowledged write the walk already missed).
  /// Identical to preference_list when no transfer is in progress.
  [[nodiscard]] std::vector<ReplicaId> replication_targets(const Key& key) const {
    std::vector<ReplicaId> out = preference_list(key);
    if (target_ring_.has_value()) {
      for (const ReplicaId r : target_ring_->preference_list(key)) {
        if (std::find(out.begin(), out.end(), r) == out.end()) out.push_back(r);
      }
    }
    return out;
  }

  /// First alive server of the preference list — the default
  /// coordinator — or nullopt when the whole preference list is down
  /// (the caller surfaces unavailability; the cluster never aborts).
  [[nodiscard]] std::optional<ReplicaId> default_coordinator(const Key& key) const {
    for (ReplicaId r : preference_list(key)) {
      if (replicas_[r].alive()) return r;
    }
    return std::nullopt;
  }

  /// GET served by one replica (`from` must be in the key's preference
  /// list for realistic routing; not enforced, tests route freely).
  /// This is the RAW local read — it inspects `from`'s memory directly,
  /// dead replicas included, which tests and repair assertions rely on.
  /// The coordinated read path (quorums, deadlines, receipts) is
  /// get_quorum / begin_read.
  [[nodiscard]] GetResult get(const Key& key, ReplicaId from) const {
    return replicas_.at(from).get(mechanism_, key);
  }

  /// GET with read-coalescing across `quorum` preference-list replicas,
  /// as a Dynamo-style R-quorum read: a coordinated read request
  /// (begin_read) scatters CoordReadReqMsg through the transport and
  /// merges (mechanism sync) the first `quorum` distinct replies — this
  /// synchronous shim settles the transport and harvests the receipt
  /// before returning.  Does not write back by default; pair with
  /// anti_entropy for repair (or opt into ReadOptions::read_repair via
  /// begin_read).  When fewer than `quorum` replicas could answer —
  /// dead, partitioned away, or their replies lost in flight — the
  /// reply still carries whatever was readable but is marked `degraded`
  /// with the actual `replies` count — an R-quorum read that could not
  /// reach R must say so, not masquerade as a full quorum
  /// (tests/cluster_test.cpp: QuorumReadBelowQuorumReportsDegraded).
  [[nodiscard]] GetResult get_quorum(const Key& key, std::size_t quorum) {
    DVV_ASSERT(quorum >= 1);
    const Begun b = begin_read_impl(key, quorum, {});
    return harvest_read(*b.engine, b.id);
  }

  /// PUT on behalf of `client`, carrying the client's causal context:
  /// the synchronous shim over begin_write, and the only synchronous
  /// write.  The coordinator (opts.coordinator, default: the key's first
  /// alive preference member) applies locally and the CoordWriteReqMsg
  /// fan-out is SENT to every alive, reachable target (opts.replicate_to,
  /// default: the key's replication targets; the caller may narrow it to
  /// model replication lag), then the transport settles and whatever
  /// has not acked is finalized out of the receipt.  With the inline
  /// transport the merges AND acks happen before this returns, in send
  /// order — the direct-call semantics, byte for byte; with a queued
  /// transport the receipt counts sends, not deliveries.
  ///
  /// A W=1 write (opts.write_quorum == 1) completes on the local apply
  /// and returns WITHOUT settling: the fan-out is fire-and-forget and
  /// late acks are absorbed by the engine's stale-reply hygiene.  That
  /// is the server write path (src/server): on a threaded transport it
  /// runs inside the coordinator's serial domain (its shard thread, or
  /// through run_at), where a settle would wait on the thread itself.
  ///
  /// When no coordinator can be resolved (the whole preference list is
  /// down) the receipt comes back `unavailable` — an error result, not
  /// a crashed process — and no engine request is started.
  PutReceipt put(const Key& key, ClientId client, const Context& ctx, Value value,
                 const WriteOptions& opts = {}) {
    const std::optional<ReplicaId> coord =
        opts.coordinator.has_value() ? opts.coordinator : default_coordinator(key);
    if (!coord.has_value()) {
      PutReceipt receipt;
      receipt.unavailable = true;
      receipt.outcome = CoordOutcome::kUnavailable;
      return receipt;
    }
    QuorumCoordinator<M>& eng = engine_for(*coord);
    const std::uint64_t id =
        scatter_write(key, *coord, client, ctx, std::move(value), opts);
    if (opts.write_quorum != 1) return harvest_write(eng, id);
    DVV_ASSERT_MSG(eng.is_terminal(id),
                   "kv: a W=1 write must complete on its local apply");
    return take_write_from(eng, id);
  }

  // ---- asynchronous quorum coordination (src/kv/coordinator.hpp) ---------
  //
  // The engine underneath get_quorum/put, exposed so callers can keep
  // MANY client operations in flight at once: start requests, pump()
  // the transport (each pump is one coordination tick, expiring
  // deadlines), poll take_completed_requests(), harvest.

  /// Starts a coordinated read at opts.coordinator (which must be
  /// alive), default: the key's first alive preference member.  The
  /// coordinator's own local read is the first reply, then
  /// CoordReadReqMsg scatters to further alive, reachable preference
  /// members until quorum + extra_scatter replicas have been asked —
  /// stopping early if inline replies already completed the request,
  /// which is exactly what keeps the shim byte-identical to the
  /// pre-engine loop (tests/transport_equivalence_test.cpp).  When the
  /// whole preference list is down the request completes immediately
  /// as kUnavailable (harvest still works).
  [[nodiscard]] std::uint64_t begin_read(const Key& key, std::size_t quorum,
                                         const ReadOptions& opts = {}) {
    return begin_read_impl(key, quorum, opts).id;
  }

  /// Starts a coordinated write (see put() for the options): the
  /// coordinator applies locally (the first ack), then one shared
  /// CoordWriteReqMsg fans out to every alive, reachable
  /// non-coordinator target, and with opts.hinted_handoff a HintMsg
  /// parks the write for each dead one.  Completion bar: W =
  /// opts.write_quorum distinct acks (0 = all of coordinator + sends).
  /// When no coordinator can be resolved the request completes
  /// immediately as kUnavailable (harvest still works).
  [[nodiscard]] std::uint64_t begin_write(const Key& key, ClientId client,
                                          const Context& ctx, Value value,
                                          const WriteOptions& opts = {}) {
    const std::optional<ReplicaId> coord =
        opts.coordinator.has_value() ? opts.coordinator : default_coordinator(key);
    if (coord.has_value()) {
      return scatter_write(key, *coord, client, ctx, std::move(value), opts);
    }
    QuorumCoordinator<M>& eng = engine_for(0);
    PutReceipt base;
    base.unavailable = true;
    const std::uint64_t id = eng.start_write(std::move(base), opts);
    (void)eng.finalize(id);  // nobody to coordinate: kUnavailable now
    return id;
  }

  // The id-keyed request surface below routes through sole_engine():
  // request ids are engine-local (each shard's engine mints its own
  // slot|generation space), so a bare id is unambiguous only with one
  // shard.  Sharded callers use the paths that know their coordinator —
  // the synchronous shims, or code already on the owner shard.

  /// True while `id` names a live request (pending or terminal but not
  /// yet harvested).
  [[nodiscard]] bool request_open(std::uint64_t id) const {
    return sole_engine().is_open(id);
  }

  /// True once `id` reached a terminal outcome (harvest will not block).
  [[nodiscard]] bool request_terminal(std::uint64_t id) const {
    return sole_engine().is_terminal(id);
  }

  /// Requests that reached a terminal outcome since the last call, in
  /// completion order (quorum met, deadline expired, or finalized).
  [[nodiscard]] std::vector<std::uint64_t> take_completed_requests() {
    return sole_engine().take_completed();
  }

  /// Force-completes a still-pending request now (kTimeout with partial
  /// replies, kUnavailable with none).  Returns whether it acted.
  bool finalize_request(std::uint64_t id) {
    QuorumCoordinator<M>& eng = sole_engine();
    if (!eng.finalize(id)) return false;
    maybe_read_repair(eng, id);
    return true;
  }

  /// Everything a harvested read reports: the client-visible GetResult
  /// plus the coordination trace (who answered, what it cost) — the
  /// simulator and the replayer meter reply sizes from here.
  struct ReadHarvest {
    GetResult result;
    Key key;
    ReplicaId coordinator = 0;
    CoordOutcome outcome = CoordOutcome::kPending;
    std::size_t quorum = 0;
    std::size_t asked = 0;                ///< replicas asked (local included)
    std::vector<ReplicaId> responders;    ///< exactly who answered, in order
    std::size_t state_bytes = 0;          ///< total_bytes of the merged reply
    std::size_t metadata_bytes = 0;
    std::size_t siblings = 0;
    std::size_t clock_entries = 0;
  };

  /// Harvests a terminal read request and retires its id.
  [[nodiscard]] ReadHarvest take_read_result(std::uint64_t id) {
    return take_read_from(sole_engine(), id);
  }

  /// Live write receipt (send-time fields) without harvesting: lets a
  /// caller meter the fan-out it just enqueued while acks are still in
  /// flight.
  [[nodiscard]] const PutReceipt& peek_write_receipt(std::uint64_t id) const {
    return sole_engine().peek_write(id);
  }

  /// Harvests a terminal write request and retires its id.  The
  /// degraded verdict is computed here so every harvest path agrees:
  /// the fan-out is partial when neither a direct copy nor a parked
  /// hint covered some intended target.
  [[nodiscard]] PutReceipt take_write_receipt(std::uint64_t id) {
    return take_write_from(sole_engine(), id);
  }

  /// Engine accounting, merged over every shard's engine (exact at
  /// quiescence): requests started/completed and the reply hygiene
  /// counters (late/duplicate/stale drops).
  [[nodiscard]] const CoordStats& coord_stats() const noexcept {
    coord_scratch_ = CoordStats{};
    for (const auto& shard : shards_) {
      const CoordStats& s = shard->engine.stats();
      coord_scratch_.reads_started += s.reads_started;
      coord_scratch_.writes_started += s.writes_started;
      coord_scratch_.quorum_completions += s.quorum_completions;
      coord_scratch_.timeouts += s.timeouts;
      coord_scratch_.unavailable += s.unavailable;
      coord_scratch_.duplicate_replies_dropped += s.duplicate_replies_dropped;
      coord_scratch_.late_replies_dropped += s.late_replies_dropped;
      coord_scratch_.stale_replies_dropped += s.stale_replies_dropped;
    }
    return coord_scratch_;
  }

  /// Client requests currently open (pending or unharvested).
  [[nodiscard]] std::size_t requests_in_flight() const noexcept {
    std::size_t n = 0;
    for (const auto& shard : shards_) n += shard->engine.open_requests();
    return n;
  }

 private:
  [[nodiscard]] ReadHarvest take_read_from(QuorumCoordinator<M>& eng,
                                           std::uint64_t id) {
    ReadReceipt receipt = eng.take_read(id);
    ReadHarvest h;
    h.key = std::move(receipt.key);
    h.coordinator = receipt.coordinator;
    h.outcome = receipt.outcome;
    h.quorum = receipt.quorum;
    h.asked = receipt.asked;
    h.result.replies = receipt.responders.size();
    h.result.unavailable = receipt.responders.empty();
    h.result.degraded = receipt.responders.size() < receipt.quorum;
    h.result.found = receipt.found;
    if (receipt.found) {
      h.result.values = mechanism_.values_of(receipt.merged);
      h.result.context = mechanism_.context_of(receipt.merged);
      h.state_bytes = mechanism_.total_bytes(receipt.merged);
      h.metadata_bytes = mechanism_.metadata_bytes(receipt.merged);
      h.siblings = mechanism_.sibling_count(receipt.merged);
      h.clock_entries = mechanism_.clock_entries(receipt.merged);
    }
    h.responders = std::move(receipt.responders);
    return h;
  }

  [[nodiscard]] PutReceipt take_write_from(QuorumCoordinator<M>& eng,
                                           std::uint64_t id) {
    PutReceipt receipt = eng.take_write(id);
    if (receipt.replicated_to + receipt.hinted < receipt.targets) {
      receipt.degraded = true;
    }
    return receipt;
  }

 public:
  /// Delivers parked hints cluster-wide to every recovered owner: each
  /// alive holder sends a HintDeliverMsg home for every hint whose
  /// owner is alive, and drops the parked copy only when the owner's
  /// ack comes back — a delivery lost in flight stays parked and is
  /// retried by the next call.  Dead holders are skipped: a crashed or
  /// paused server cannot push its parked writes — they wait (and
  /// survive in its log) until it is back.  Returns the number of hints
  /// acked away during this call (with a queued transport, deliveries
  /// complete under pump() and later calls observe the acks).
  std::size_t deliver_hints() {
    const std::size_t before = hinted_count();
    struct Pending {
      ReplicaId holder;
      ReplicaId dest;   ///< where the delivery goes (owner, or re-target)
      ReplicaId owner;  ///< the parked tag — the ack retires the hint by it
      Key key;
      std::string state;
      std::shared_ptr<const Stored> decoded;
    };
    std::vector<Pending> pending;
    for (auto& rep : replicas_) {
      if (!rep.alive()) continue;
      rep.for_each_hint([&](ReplicaId owner, const Key& key, const Stored& state) {
        // Ownership may have MOVED since the hint was parked: a hint
        // whose intended owner is no longer in the key's preference
        // list must be REDIRECTED to a current owner, not misdelivered
        // to a replica steady-state AAE no longer repairs
        // (tests/membership_test.cpp:
        // StaleOwnerHintIsRedirectedNotMisdelivered).  The wire frame
        // keeps the parked owner tag so the ack retires exactly this
        // hint.
        const std::vector<ReplicaId> pref = preference_list(key);
        ReplicaId dest = owner;
        if (std::find(pref.begin(), pref.end(), owner) == pref.end()) {
          const auto current = std::find_if(
              pref.begin(), pref.end(),
              [&](ReplicaId r) { return replicas_.at(r).alive(); });
          if (current == pref.end()) return;  // waits for some owner
          dest = *current;
          obs::membership_metrics().hints_retargeted.inc();
        } else if (!replicas_.at(owner).alive()) {
          return;  // waits for the owner
        }
        pending.push_back({rep.id(), dest, owner, key,
                           Replica<M>::encode_state(state),
                           std::make_shared<const Stored>(state)});
      });
    }
    for (Pending& p : pending) {
      const net::Message& msg = net::fill_message<net::HintDeliverMsg>(
          slots_for(p.holder).hint_deliver, [&](auto& out) {
            out.owner = p.owner;
            out.key = std::move(p.key);
            out.state = std::move(p.state);
          });
      transport_->send(p.holder, p.dest, net::borrow_message(msg),
                       std::move(p.decoded),
                       net::wire_size_of(std::get<net::HintDeliverMsg>(msg)));
    }
    transport_->settle();
    return before - hinted_count();
  }

  /// Total hints parked anywhere (observability for tests/benches).
  [[nodiscard]] std::size_t hinted_count() const {
    std::size_t n = 0;
    for (const auto& rep : replicas_) n += rep.hinted_count();
    return n;
  }

  /// One anti-entropy round: for every key anywhere in the cluster —
  /// including keys that exist only as parked hints — the replicas in
  /// its preference list gather-merge-scatter so they end up identical.
  /// Parked hints on ALIVE holders are folded into the merge as extra
  /// gather sources (a hint for a long-dead owner must not hide its
  /// write from the cluster) and are then rewritten to the merged bytes
  /// so later rounds recognize them as reconciled by digest; the hints
  /// stay parked until their owner returns.  Keys whose alive
  /// preference-list states already encode identically are skipped
  /// (digest pre-check), so `touched` counts genuinely divergent
  /// (key, replica) states — a divergence metric — and converged state
  /// is never rewritten.
  std::size_t anti_entropy() {
    std::set<Key> all_keys;
    for (const auto& rep : replicas_) {
      for (auto& k : rep.keys()) all_keys.insert(k);
    }
    const HintIndex hints = collect_hints();
    for (const auto& [key, sources] : hints) all_keys.insert(key);

    std::size_t touched = 0;
    for (const Key& key : all_keys) {
      const auto pref = preference_list(key);
      // Digest pre-check: all alive preference replicas hold the same
      // bytes (kMissing marking absence) and no alive holder parks a
      // differing hint -> nothing to repair.
      std::vector<std::pair<ReplicaId, sync::Digest>> owner_digests;
      bool divergent = false;
      for (ReplicaId r : pref) {
        if (!replicas_[r].alive()) continue;
        const Stored* s = replicas_[r].find(key);
        const sync::Digest d = s ? sync::state_digest(*s) : sync::kMissing;
        if (!owner_digests.empty() && d != owner_digests.front().second) {
          divergent = true;
        }
        owner_digests.emplace_back(r, d);
      }
      if (owner_digests.empty()) continue;  // whole preference list down

      const auto hint_it = hints.find(key);
      const bool has_hints = hint_it != hints.end();
      if (has_hints && !divergent) {
        for (const HintSource& h : hint_it->second) {
          if (sync::state_digest(*h.state) != owner_digests.front().second) {
            divergent = true;
            break;
          }
        }
      }
      if (!divergent) continue;

      // Canonical fold: alive owners in preference order, then hints in
      // (holder, owner) order — the digest pass repairs with the same
      // fold, which is what keeps the two fixed points byte-identical.
      Stored merged;
      for (const auto& [r, d] : owner_digests) {
        if (const Stored* s = replicas_[r].find(key)) mechanism_.sync(merged, *s);
      }
      if (has_hints) {
        for (const HintSource& h : hint_it->second) mechanism_.sync(merged, *h.state);
      }
      // Scatter only to replicas not already holding the merged bytes,
      // so converged copies are never rewritten and `touched` counts
      // exactly the repaired (key, replica) states.
      const sync::Digest merged_digest = sync::state_digest(merged);
      for (const auto& [r, d] : owner_digests) {
        if (d == merged_digest) continue;
        replicas_[r].adopt(key, merged);
        ++touched;
      }
      if (has_hints) {
        for (const HintSource& h : hint_it->second) {
          replicas_[h.holder].replace_hint(h.owner, key, merged);
        }
      }
    }
    return touched;
  }

  // ---- digest-based anti-entropy (src/sync) ------------------------------
  //
  // The production-shaped repair path: instead of shipping every key's
  // state, replicas exchange Merkle tree hashes, descend into differing
  // subtrees, and ship Stored state only for keys whose digests differ.
  // The repair fold is canonical (preference-list order, then hints), so
  // the fixed point is byte-identical to the legacy full pass — see
  // tests/anti_entropy_convergence_test.cpp.

  // Lifted to kv/results.hpp for the mechanism-agnostic facade.
  using DigestRepairReport = ::dvv::kv::DigestRepairReport;

  /// One pairwise digest session between alive replicas `a` and `b`,
  /// initiated by a SyncReqMsg from `a` routed through the transport —
  /// a request lost to a partition or a drop means no session ran and
  /// empty stats come back.  This call drains the transport (a session
  /// is a blocking exchange, like a TCP conversation): on delivery the
  /// responder refreshes both trees, walks them, repairs divergent keys
  /// across their whole alive preference list, and answers with a
  /// SyncRespMsg whose stats this call harvests.  Dead endpoints make
  /// it a no-op.  Parked hints are handled by the full
  /// anti_entropy_digest() sweep — they live outside the Merkle trees.
  /// For a fire-and-forget request on a queued transport (the simulator
  /// wants sessions racing foreground traffic), use request_sync() and
  /// collect take_completed_syncs() after pumping.
  sync::SyncStats anti_entropy_digest_pair(ReplicaId a, ReplicaId b) {
    if (!replicas_.at(a).alive() || !replicas_.at(b).alive() || a == b) return {};
    const std::uint64_t nonce = request_sync(a, b);
    transport_->drain();
    sync::SyncStats out;
    // A duplicated request runs the session twice and answers twice;
    // both runs' costs are real, so matching records merge.  The drain
    // above is the quiescent point that makes the per-shard record
    // lists safe to touch from here.
    for (auto& shard : shards_) {
      std::erase_if(shard->completed_syncs, [&](const CompletedSync& cs) {
        if (cs.nonce != nonce) return false;
        out.merge(cs.stats);
        return true;
      });
    }
    return out;
  }

  /// Enqueues a SyncReqMsg from `a` to `b` and returns its nonce; the
  /// session runs when the request is delivered (pump on a queued
  /// transport), and its stats appear in take_completed_syncs() once
  /// the SyncRespMsg makes it back to the initiator.
  std::uint64_t request_sync(ReplicaId a, ReplicaId b) {
    const std::uint64_t nonce =
        next_sync_nonce_.fetch_add(1, std::memory_order_relaxed);
    send_message(a, b, net::SyncReqMsg{nonce});
    return nonce;
  }

  /// One finished digest session as observed by its initiator (lifted
  /// to kv/results.hpp for the mechanism-agnostic facade).
  using CompletedSync = ::dvv::kv::CompletedSync;

  /// Drains the completed-session records (sessions whose SyncRespMsg
  /// reached the initiator since the last call), in shard order.  Exact
  /// at quiescence.
  [[nodiscard]] std::vector<CompletedSync> take_completed_syncs() {
    std::vector<CompletedSync> out;
    for (auto& shard : shards_) {
      for (CompletedSync& cs : shard->completed_syncs) {
        out.push_back(std::move(cs));
      }
      shard->completed_syncs.clear();
    }
    return out;
  }

  /// Full digest-based repair: sweeps every alive replica pair until a
  /// sweep ships nothing.  Each sweep ends with a hint round — keys that
  /// exist only under parked hints (or whose hints differ from the
  /// owners' agreed state) are invisible to the Merkle walk, so the
  /// alive holders' hints are probed by digest and folded in explicitly.
  /// Converges to the legacy pass's fixed point while shipping state
  /// only for divergent keys.
  DigestRepairReport anti_entropy_digest() {
    // A rebalance in progress advances first: transfer walks are what
    // makes routing flips safe, and a sweep after a heal/recover is
    // exactly when previously blocked walks become possible.  Their
    // effort is metered in membership.* / rebalance_stats(), never in
    // this report's steady-state aae numbers.
    (void)rebalance_step();
    DigestRepairReport report;
    bool progress = true;
    while (progress) {
      progress = false;
      ++report.sweeps;
      // Progress detection must not depend on SyncRespMsg survival: a
      // faulty transport can deliver the request (repairs run) and lose
      // the response (stats gone).  The repair counter sees every
      // shipped state regardless of what made it back to an initiator.
      const std::uint64_t repairs_mark =
          repairs_shipped_total_.load(std::memory_order_relaxed);
      for (ReplicaId a = 0; a < replicas_.size(); ++a) {
        for (ReplicaId b = a + 1; b < replicas_.size(); ++b) {
          const sync::SyncStats stats = anti_entropy_digest_pair(a, b);
          ++report.sessions;
          if (stats.keys_shipped > 0) progress = true;
          report.stats.merge(stats);
        }
      }
      if (repairs_shipped_total_.load(std::memory_order_relaxed) !=
          repairs_mark) {
        progress = true;
      }
      // Hint round: repair every key some alive holder parks a hint
      // for.  The converged pre-check matters beyond wire cost: a key
      // must be folded at most once from its pre-repair states (the
      // unsound mechanisms lose siblings when an already-merged state
      // is folded again), so a key the pair walk just repaired — whose
      // owners and hints all sit at the merged digest — is only probed.
      const HintIndex hints = collect_hints();
      for (const auto& [key, sources] : hints) {
        std::optional<ReplicaId> initiator;
        sync::Digest common = sync::kMissing;
        bool divergent = false;
        bool first = true;
        // The first alive owner initiates; it can only compare against
        // owners and holders on its side of any active partition —
        // repair_key applies the same reachability filter.
        for (const ReplicaId r : preference_list(key)) {
          if (!replicas_[r].alive()) continue;
          if (!initiator.has_value()) initiator = r;
          if (!transport_->link_up(*initiator, r)) continue;
          const Stored* s = replicas_[r].find(key);
          const sync::Digest d = s ? sync::state_digest(*s) : sync::kMissing;
          if (first) {
            common = d;
            first = false;
          } else if (d != common) {
            divergent = true;
          }
        }
        if (!initiator.has_value()) continue;  // whole preference list down
        ++report.stats.keys_compared;
        for (const HintSource& h : sources) {
          if (!transport_->link_up(*initiator, h.holder)) continue;
          if (!divergent && sync::state_digest(*h.state) != common) divergent = true;
        }
        if (!divergent) {
          // Converged: the probe (key out, digest back, per hint holder)
          // is the whole cost.  The divergent path meters its probes
          // inside repair_key — charging them here too would double-bill.
          for (const HintSource& h : sources) {
            if (h.holder != *initiator && transport_->link_up(*initiator, h.holder)) {
              report.stats.wire_bytes += key_wire_bytes(key) + sizeof(sync::Digest);
            }
          }
          continue;
        }
        const sync::RepairResult repaired = repair_key(key, *initiator, *initiator);
        report.stats.wire_bytes += repaired.wire_bytes;
        if (repaired.states_shipped > 0) {
          ++report.stats.keys_shipped;
          progress = true;
        }
      }
      // Keys owned by dead replicas can stay divergent across sweeps;
      // shipping stops once every alive pair agrees, so this bound only
      // guards against a repair rule that fails to converge.
      DVV_ASSERT_MSG(report.sweeps <= replicas_.size() + 2,
                     "anti_entropy_digest: no fixed point");
    }
    return report;
  }

  /// Refreshed Merkle tree view of `key`'s partition at one replica
  /// (tests/benches).
  [[nodiscard]] const sync::MerkleTree& merkle_tree_for(ReplicaId r, const Key& key) {
    refresh_tree(r);
    return digest_index_.tree(r, digest_index_.partition_of(key));
  }

  /// Keys marked dirty (pending Merkle refresh) at replica `r` — lets
  /// tests pin that converged write-backs do not dirty the trees.
  [[nodiscard]] std::size_t aae_dirty_count(ReplicaId r) const {
    return digest_index_.dirty_count(r);
  }

  /// Cluster-wide metadata footprint (sums replica footprints).
  [[nodiscard]] typename Replica<M>::Footprint footprint() const {
    typename Replica<M>::Footprint f;
    for (const auto& rep : replicas_) f.merge(rep.footprint(mechanism_));
    return f;
  }

  // ---- elastic membership (src/membership) -------------------------------
  //
  // Join, graceful leave and crash-removal as real cluster transitions:
  // each mints a RingEpoch (the vnode→owner map), announces it on the
  // wire (EpochAnnounceMsg — droppable like any message), and drives a
  // rebalance.  Per claimed (partition, new owner), the owner syncs
  // from every source via the same Merkle walks steady-state AAE uses
  // — bytes proportional to divergence, digests only when converged —
  // and the partition's ROUTING flips only once every owner walked
  // every source (kTransferring → kOwned).  Until the flip, writes
  // dual-apply to old and new owners (replication_targets).  All
  // methods here are control-plane: legal at quiescence; on a threaded
  // transport the membership transition itself runs stop-the-world.

  [[nodiscard]] const membership::MembershipTable& membership() const noexcept {
    return membership_;
  }
  [[nodiscard]] std::uint64_t ring_epoch() const noexcept {
    return membership_.epoch();
  }
  [[nodiscard]] const std::vector<ReplicaId>& members() const noexcept {
    return membership_.members();
  }
  [[nodiscard]] bool rebalancing() const noexcept { return rebalance_.active(); }
  [[nodiscard]] const membership::RebalanceStats& rebalance_stats() const noexcept {
    return rebalance_.stats();
  }
  /// Highest epoch replica `r` has heard announced (0 until one lands).
  [[nodiscard]] std::uint64_t known_epoch(ReplicaId r) const {
    return known_epoch_.at(r);
  }

  /// Adds provisioned replica `node` to the ring: mints the join epoch,
  /// plans the transfers its claimed partitions need, and announces.
  /// Routing does NOT move to `node` until its transfers complete — see
  /// rebalance_step / complete_rebalance.  A REJOINING id (member of
  /// some past epoch) passes through the clock-incarnation bump first,
  /// so dots it minted before departing are never reused.
  void join_node(ReplicaId node) {
    DVV_ASSERT_MSG(node < replicas_.size(), "join: node beyond capacity");
    DVV_ASSERT_MSG(replicas_.at(node).alive(), "join: node not alive");
    with_world_stopped([&] {
      obs::membership_metrics().joins.inc();
      if (membership_.was_member(node)) {
        replicas_[node].bump_incarnation();
        obs::membership_metrics().rejoin_incarnations.inc();
      }
      apply_new_epoch(membership_.join(node), std::nullopt);
    });
  }

  /// Graceful leave: `node` departs the ring but stays alive as a
  /// transfer SOURCE — its data drains to the remaining owners before
  /// any partition flips away from it.
  void leave_node(ReplicaId node) {
    with_world_stopped([&] {
      obs::membership_metrics().leaves.inc();
      apply_new_epoch(membership_.leave(node), std::nullopt);
    });
  }

  /// Crash-removal: `node` is gone and cannot be walked — it is
  /// excluded from the transfer sources, and the remaining owners
  /// rebuild the partitions' replication from each other (whatever only
  /// `node` held is lost unless it later recovers and rejoins).
  void remove_node(ReplicaId node) {
    with_world_stopped([&] {
      obs::membership_metrics().removals.inc();
      apply_new_epoch(membership_.leave(node), node);
    });
  }

  /// Attempts every owed transfer walk whose endpoints are alive and
  /// reachable, flips partitions whose every owner finished, and
  /// promotes the target ring when the whole plan is done.  Returns the
  /// number of walks performed.  Sources that are dead or across a
  /// partition are skipped and retried by later calls — a partition can
  /// never flip until its new owners walked EVERY source, so nothing is
  /// stranded on a replica steady-state AAE no longer repairs.
  std::size_t rebalance_step() {
    if (!rebalance_.active()) return 0;
    std::size_t walked = 0;
    for (const membership::RebalanceEngine::Work& w : rebalance_.pending_work()) {
      if (!replicas_[w.owner].alive() || !replicas_[w.source].alive()) continue;
      if (!transport_->link_up(w.source, w.owner)) continue;
      const membership::TransferStats cost =
          transfer_walk(w.partition, w.owner, w.source);
      if (rebalance_.note_walked(w.partition, w.owner, w.source, cost)) {
        obs::membership_metrics().transfers_completed.inc();
        announce_transfer_done(w.partition, w.owner);
      }
      ++walked;
    }
    for (const std::uint64_t p : rebalance_.take_flippable()) {
      flipped_partitions_.insert(p);
      obs::membership_metrics().partitions_flipped.inc();
    }
    if (rebalance_.active() && rebalance_.complete()) promote_target();
    return walked;
  }

  /// Drives the rebalance to completion.  Every owed walk must be able
  /// to run, so heal partitions and recover (or remove) dead sources
  /// first; asserts rather than spinning when no progress is possible.
  membership::RebalanceStats complete_rebalance() {
    while (rebalance_.active()) {
      const std::size_t walked = rebalance_step();
      if (!rebalance_.active()) break;
      DVV_ASSERT_MSG(walked > 0,
                     "rebalance: no progress — a source is dead or "
                     "partitioned (heal/recover or remove it first)");
    }
    return rebalance_.stats();
  }

  /// Stop-the-world spellings for non-shard control threads (the dvvd
  /// admin loop): transfer walks touch replicas the shard threads own,
  /// so over a threaded transport they are only legal with the world
  /// parked.  Over an inline transport they run the plain spellings
  /// directly.
  std::size_t rebalance_step_stopped() {
    std::size_t walked = 0;
    with_world_stopped([&] { walked = rebalance_step(); });
    return walked;
  }
  membership::RebalanceStats complete_rebalance_stopped() {
    membership::RebalanceStats out;
    with_world_stopped([&] { out = complete_rebalance(); });
    return out;
  }

  /// Routes a client request that arrived at `at` under whatever ring
  /// the client believed: `at` coordinates when it is an alive current
  /// owner of `key`; otherwise the request forwards to the first alive,
  /// reachable current owner — counted as a stale-epoch forward when
  /// `at`'s announced-epoch knowledge lags the membership epoch (it
  /// routed by an old ring).  nullopt when no current owner is
  /// reachable from `at`.
  [[nodiscard]] std::optional<ReplicaId> route_request(const Key& key,
                                                       ReplicaId at) {
    const std::vector<ReplicaId> pref = preference_list(key);
    if (std::find(pref.begin(), pref.end(), at) != pref.end() &&
        replicas_.at(at).alive()) {
      return at;
    }
    for (const ReplicaId r : pref) {
      if (!replicas_[r].alive() || !transport_->link_up(at, r)) continue;
      if (known_epoch_.at(at) < membership_.epoch()) {
        obs::membership_metrics().stale_epoch_forwarded.inc();
      }
      return r;
    }
    return std::nullopt;
  }

 private:
  /// Fills in the config defaults that depend on other fields (the
  /// mem-initializers below read the normalized form).
  [[nodiscard]] static ClusterConfig normalized(ClusterConfig c) {
    if (c.capacity == 0) c.capacity = c.servers;
    DVV_ASSERT_MSG(c.capacity >= c.servers,
                   "kv: capacity below the seed server count");
    if (c.initial_members.empty()) {
      c.initial_members.reserve(c.servers);
      for (std::size_t s = 0; s < c.servers; ++s) {
        c.initial_members.push_back(static_cast<ReplicaId>(s));
      }
    }
    return c;
  }

  /// Runs `fn` with every shard thread parked (threaded transport) or
  /// inline (single-domain).  Membership transitions mutate routing
  /// state that shard threads read on every delivery; parking the world
  /// makes the transition a quiescent point no thread can observe
  /// half-applied.  The latches outlive every parked closure because
  /// quiesce() returns only after each closure's in-flight accounting
  /// released — i.e. after the closure returned.
  template <typename Fn>
  void with_world_stopped(Fn&& fn) {
    if (threaded_ == nullptr) {
      fn();
      return;
    }
    const std::size_t n = threaded_->shards();
    std::latch parked(static_cast<std::ptrdiff_t>(n));
    std::latch release(1);
    for (std::size_t s = 0; s < n; ++s) {
      threaded_->post(s, [&parked, &release] {
        parked.count_down();
        release.wait();
      });
    }
    parked.wait();
    fn();
    release.count_down();
    threaded_->quiesce();
  }

  /// Installs freshly minted epoch `e`: target ring up, digest index
  /// rebuilt in the target's partition space (every key re-dirtied —
  /// the old space's partition ids are meaningless), transfer tasks
  /// planned per (partition, new owner), epoch announced.  A change
  /// arriving MID-rebalance supersedes the old plan: flip progress is
  /// discarded and routing falls back to the active ring — nothing was
  /// deleted, so no data is lost, only the flips are deferred.
  void apply_new_epoch(const membership::RingEpoch& e,
                       std::optional<ReplicaId> excluded_source) {
    obs::membership_metrics().epochs_minted.inc();
    // Source candidates: every member of the union of the outgoing and
    // incoming rings — prior epochs may have parked data on any of
    // them — minus a crash-removed node (it cannot be walked).
    std::set<ReplicaId> sources(ring_.members().begin(), ring_.members().end());
    sources.insert(e.ring.members().begin(), e.ring.members().end());
    if (excluded_source.has_value()) sources.erase(*excluded_source);

    target_ring_.emplace(e.ring);
    flipped_partitions_.clear();

    digest_index_ = sync::DigestIndex(replicas_.size(), config_.aae);
    wire_partitioner();
    // Per partition, the candidates that actually HOLD a key of it:
    // data can only move from where it lives, and walking a holderless
    // source would cost a pointless leaf round against the owner's
    // whole bucket — this pruning is what keeps the zero-divergence
    // rebalance digest-only (bench_rebalance's floor rows).
    std::set<std::uint64_t> partitions;
    std::map<std::uint64_t, std::set<ReplicaId>> holders;
    // Every key goes into the fresh index's dirty set directly, so a
    // replica's dirty bits (set or clear) stay truthful without a reset.
    for (auto& rep : replicas_) {
      for (const Key& key : rep.keys()) {
        digest_index_.on_key_touched(rep.id(), key);
        const std::uint64_t p = digest_index_.partition_of(key);
        partitions.insert(p);
        if (sources.contains(rep.id())) holders[p].insert(rep.id());
      }
    }

    std::vector<membership::PartitionTransfer> tasks;
    for (const std::uint64_t p : partitions) {
      const std::set<ReplicaId>& holding = holders[p];
      for (const ReplicaId owner : digest_index_.owners(p)) {
        membership::PartitionTransfer t;
        t.partition = p;
        t.owner = owner;
        for (const ReplicaId src : holding) {
          if (src != owner) t.pending_sources.insert(src);
        }
        tasks.push_back(std::move(t));
      }
    }
    obs::membership_metrics().transfers_started.inc(tasks.size());
    rebalance_.plan(e.epoch, std::move(tasks));
    announce_epoch(e);
    if (rebalance_.complete()) promote_target();  // no data to move
  }

  /// Broadcasts EpochAnnounceMsg from the first alive member to every
  /// other provisioned replica.  Droppable like any message: a peer
  /// that misses it keeps routing by its stale view until stale-epoch
  /// forwarding (route_request) or a later announce catches it up.
  void announce_epoch(const membership::RingEpoch& e) {
    std::optional<ReplicaId> announcer;
    for (const ReplicaId r : e.ring.members()) {
      if (replicas_[r].alive()) {
        announcer = r;
        break;
      }
    }
    if (!announcer.has_value()) return;
    known_epoch_[*announcer] = std::max(known_epoch_[*announcer], e.epoch);
    net::EpochAnnounceMsg msg;
    msg.epoch = e.epoch;
    msg.members = e.ring.members();
    for (ReplicaId r = 0; r < replicas_.size(); ++r) {
      if (r == *announcer) continue;
      obs::membership_metrics().epochs_announced.inc();
      send_message(*announcer, r, msg);
    }
  }

  /// One transfer walk: the claiming owner's Merkle tree for
  /// `partition` against `source`'s — digests first, state only for
  /// keys whose digests differ (the "bytes ∝ divergence" property
  /// bench_rebalance measures; a converged or empty source costs a
  /// digest exchange and nothing else).  The ship is ONE-directional
  /// (source → owner) and a MERGE, never an adopt: a dual-applied write
  /// already on the new owner must survive the transfer.  Effort is
  /// metered into membership.* — never into the steady-state aae.*.
  [[nodiscard]] membership::TransferStats transfer_walk(std::uint64_t partition,
                                                        ReplicaId owner,
                                                        ReplicaId source) {
    refresh_tree(owner);
    refresh_tree(source);
    const sync::MerkleTree& mine = digest_index_.tree(owner, partition);
    const sync::MerkleTree& theirs = digest_index_.tree(source, partition);
    sync::SyncStats walk;
    const std::vector<std::size_t> leaves =
        sync::diff_leaves(mine, theirs, walk);
    membership::TransferStats cost;
    cost.rounds = walk.rounds;
    cost.nodes_exchanged = walk.nodes_exchanged;
    cost.wire_bytes = walk.wire_bytes;
    for (const std::size_t leaf : leaves) {
      const auto& have = mine.bucket(leaf);
      const auto& offered = theirs.bucket(leaf);
      // Leaf round: both sides' (key, digest) lists cross, then the
      // differing states ship — the same metering as sync::SyncSession.
      for (const auto& [key, digest] : have) {
        (void)digest;
        cost.wire_bytes += key_wire_bytes(key) + sizeof(sync::Digest);
      }
      for (const auto& [key, digest] : offered) {
        (void)digest;
        cost.wire_bytes += key_wire_bytes(key) + sizeof(sync::Digest);
      }
      for (const auto& [key, digest] : offered) {
        const auto mine_it = have.find(key);
        if (mine_it != have.end() && mine_it->second == digest) continue;
        const Stored* state = replicas_[source].find(key);
        DVV_ASSERT_MSG(state != nullptr,
                       "transfer: tree names a key the source lacks");
        replicas_[owner].merge_key(mechanism_, key, *state);
        cost.wire_bytes += key_wire_bytes(key) + mechanism_.total_bytes(*state);
        ++cost.keys_shipped;
      }
    }
    obs::membership_metrics().transfer_keys_shipped.inc(cost.keys_shipped);
    obs::membership_metrics().transfer_wire_bytes.inc(cost.wire_bytes);
    return cost;
  }

  /// A (partition, owner) task finished every walk: tell the members.
  void announce_transfer_done(std::uint64_t partition, ReplicaId owner) {
    const auto& transfers = rebalance_.transfers();
    const auto it = std::find_if(
        transfers.begin(), transfers.end(),
        [&](const membership::PartitionTransfer& t) {
          return t.partition == partition && t.owner == owner;
        });
    DVV_ASSERT(it != transfers.end());
    net::TransferDoneMsg msg;
    msg.epoch = rebalance_.target_epoch();
    msg.partition = partition;
    msg.owner = owner;
    msg.keys_shipped = it->stats.keys_shipped;
    msg.wire_bytes = it->stats.wire_bytes;
    for (const ReplicaId r : membership_.members()) {
      if (r == owner) continue;
      send_message(owner, r, msg);
    }
  }

  /// The whole plan reached kOwned: the target ring becomes the ACTIVE
  /// ring, per-partition flips are retired (the rings now agree), and
  /// the digest index — already partitioned by the target — stays.
  void promote_target() {
    DVV_ASSERT(target_ring_.has_value());
    ring_ = *target_ring_;
    target_ring_.reset();
    flipped_partitions_.clear();
    rebalance_.finish();
  }

 private:
  /// One parked hint visible to anti-entropy: `state` lives on alive
  /// holder `holder`, intended for (possibly long-dead) `owner`.
  struct HintSource {
    ReplicaId holder;
    ReplicaId owner;
    const Stored* state;
  };
  /// key -> hint sources in canonical (holder, owner) order.
  using HintIndex = std::map<Key, std::vector<HintSource>>;

  /// Gathers every parked hint on every ALIVE holder (dead servers
  /// cannot serve their parked state).  Holder ids ascend and each
  /// holder's hints iterate in (owner, key) order, so per-key source
  /// lists come out in canonical (holder, owner) order.
  [[nodiscard]] HintIndex collect_hints() const {
    HintIndex index;
    for (const auto& rep : replicas_) {
      if (!rep.alive()) continue;
      rep.for_each_hint([&](ReplicaId owner, const Key& key, const Stored& state) {
        index[key].push_back({rep.id(), owner, &state});
      });
    }
    return index;
  }

  /// Hint sources for one key (same canonical order as collect_hints).
  [[nodiscard]] std::vector<HintSource> collect_hints_for(const Key& key) const {
    std::vector<HintSource> out;
    for (const auto& rep : replicas_) {
      if (!rep.alive()) continue;
      rep.for_each_hint([&](ReplicaId owner, const Key& hkey, const Stored& state) {
        if (hkey == key) out.push_back({rep.id(), owner, &state});
      });
    }
    return out;
  }

  void wire_partitioner() {
    digest_index_.set_partitioner([this](const Key& key) {
      // Mid-rebalance the index is partitioned by the TARGET ring: the
      // trees the transfer walks — and the flip decisions — live in the
      // new owner space.  Identical to the active ring otherwise.
      const Ring& r = target_ring_.has_value() ? *target_ring_ : ring_;
      return r.preference_list(key);
    });
  }

  void wire_transport() {
    threaded_ = dynamic_cast<net::ThreadedTransport*>(transport_.get());
    transport_->set_sink(
        [this](const net::Envelope& envelope) { on_message(envelope); });
  }

  void send_message(ReplicaId from, ReplicaId to, net::Message msg) {
    transport_->send(from, to, std::move(msg));
  }

  // ---- shard routing ------------------------------------------------------

  /// Reusable send slots, one per message purpose, per shard.  Sends
  /// ride net::borrow_message handles over these — no allocation and no
  /// shared_ptr control-block traffic per message.  The borrow contract
  /// holds because (a) the kv delivery sink never retains an envelope
  /// beyond the sink call, and (b) no delivery chain ever refills the
  /// slot of a message still on the stack: a write_req delivery fills
  /// only write_resp; a read_req delivery only read_resp; a read_resp
  /// delivery at most replicate (read repair); a hint_deliver delivery
  /// only hint_ack; replicate / hint / hint_ack / write_resp deliveries
  /// send nothing.  Across threads: a slot is filled either by its
  /// shard's own thread (delivery handlers, shard-local client ops) or
  /// by the control plane at quiescence — and the two never fill the
  /// same member concurrently, because delivery chains only fill
  /// {read_resp, write_resp, hint_ack, replicate} while control-plane
  /// scatter fills {read_req, write_req, hint, hint_deliver}.
  struct SendSlots {
    net::Message replicate;
    net::Message hint;
    net::Message hint_deliver;
    net::Message hint_ack;
    net::Message read_req;
    net::Message read_resp;
    net::Message write_req;
    net::Message write_resp;
  };

  /// Everything one shard thread mutates while applying deliveries for
  /// the replicas it owns.  Aligned out of false sharing with its
  /// neighbors; heap-allocated so addresses survive cluster moves.
  struct alignas(64) ShardState {
    QuorumCoordinator<M> engine;  ///< requests coordinated by owned replicas
    DeliveryDrops drops;
    std::vector<CompletedSync> completed_syncs;
    SendSlots slots;
  };

  [[nodiscard]] ShardState& shard_for(ReplicaId r) const noexcept {
    return *shards_[shard_of(r)];
  }
  [[nodiscard]] QuorumCoordinator<M>& engine_for(ReplicaId r) const noexcept {
    return shard_for(r).engine;
  }
  [[nodiscard]] SendSlots& slots_for(ReplicaId r) const noexcept {
    return shard_for(r).slots;
  }
  /// The one engine of an unsharded cluster — the id-keyed public
  /// request surface cannot resolve a bare id across several engines.
  [[nodiscard]] QuorumCoordinator<M>& sole_engine() const {
    DVV_ASSERT_MSG(shards_.size() == 1,
                   "kv: id-keyed request API needs an unsharded cluster "
                   "(resolve through the coordinator instead)");
    return shards_[0]->engine;
  }

  /// Synchronous-shim boundary for reads: settle the transport (drains
  /// an auto-settling queue; no-op inline, quiesces threaded), force-
  /// complete whatever has not answered, harvest.
  GetResult harvest_read(QuorumCoordinator<M>& eng, std::uint64_t id) {
    transport_->settle();
    if (eng.finalize(id)) maybe_read_repair(eng, id);
    return take_read_from(eng, id).result;
  }

  /// Synchronous-shim boundary for writes (see harvest_read).
  PutReceipt harvest_write(QuorumCoordinator<M>& eng, std::uint64_t id) {
    transport_->settle();
    if (eng.finalize(id)) maybe_read_repair(eng, id);
    return take_write_from(eng, id);
  }

  /// begin_read with the chosen engine handed back (get_quorum must
  /// harvest from the engine that minted the id).
  struct Begun {
    QuorumCoordinator<M>* engine;
    std::uint64_t id;
  };
  [[nodiscard]] Begun begin_read_impl(const Key& key, std::size_t quorum,
                                      const ReadOptions& opts) {
    const std::optional<ReplicaId> coord =
        opts.coordinator.has_value() ? opts.coordinator : default_coordinator(key);
    if (coord.has_value()) {
      return {&engine_for(*coord), scatter_read(key, *coord, quorum, opts)};
    }
    QuorumCoordinator<M>& eng = engine_for(0);
    const std::uint64_t id = eng.start_read(key, 0, quorum, opts);
    (void)eng.finalize(id);  // nobody to ask: kUnavailable now
    return {&eng, id};
  }

  /// The read scatter of begin_read at a resolved coordinator.
  [[nodiscard]] std::uint64_t scatter_read(const Key& key, ReplicaId coordinator,
                                           std::size_t quorum,
                                           const ReadOptions& opts) {
    DVV_ASSERT(replicas_.at(coordinator).alive());
    QuorumCoordinator<M>& eng = engine_for(coordinator);
    const std::uint64_t id = eng.start_read(key, coordinator, quorum, opts);
    eng.note_read_asked(id);
    if (eng.on_read_reply(id, coordinator, replicas_.at(coordinator).find(key),
                          mechanism_)) {
      maybe_read_repair(eng, id);
      return id;
    }
    const std::size_t ask_limit = quorum + opts.extra_scatter;
    std::size_t asked = 1;
    // One fill serves every target — the request bytes do not depend
    // on which replica receives them.
    const net::Message* req_msg = nullptr;
    std::size_t req_bytes = 0;
    for (const ReplicaId r : preference_list(key)) {
      if (asked >= ask_limit || eng.is_terminal(id)) break;
      if (r == coordinator || !replicas_[r].alive()) continue;
      if (!transport_->link_up(coordinator, r)) continue;
      ++asked;
      eng.note_read_asked(id);
      if (req_msg == nullptr) {
        req_msg = &net::fill_message<net::CoordReadReqMsg>(
            slots_for(coordinator).read_req, [&](auto& out) {
              out.req = id;
              out.key = key;
            });
        req_bytes = net::wire_size_of(std::get<net::CoordReadReqMsg>(*req_msg));
      }
      transport_->send(coordinator, r, net::borrow_message(*req_msg), nullptr,
                       req_bytes);
    }
    return id;
  }

  /// The write scatter of begin_write / put at a resolved coordinator:
  /// local apply, CoordWriteReqMsg fan-out, quorum seal, then (with
  /// hinted handoff) the hints — fan-out first, hints after, because a
  /// fault-injecting transport draws its faults per send.
  [[nodiscard]] std::uint64_t scatter_write(const Key& key, ReplicaId coordinator,
                                            ClientId client, const Context& ctx,
                                            Value value, const WriteOptions& opts) {
    DVV_ASSERT(replicas_.at(coordinator).alive());
    std::vector<ReplicaId> default_targets;
    if (!opts.replicate_to.has_value()) default_targets = replication_targets(key);
    const std::vector<ReplicaId>& targets =
        opts.replicate_to.has_value() ? *opts.replicate_to : default_targets;
    QuorumCoordinator<M>& eng = engine_for(coordinator);
    const Stored& fresh =
        replicas_.at(coordinator)
            .put(mechanism_, key, coordinator, client, ctx, std::move(value));

    PutReceipt base;
    base.coordinator = coordinator;
    for (const ReplicaId r : targets) {
      if (r != coordinator) ++base.targets;
    }
    const std::uint64_t id = eng.start_write(std::move(base), opts);
    // The local apply is the first ack (it cannot complete the request:
    // the quorum bar is sealed only after the scatter width is known).
    (void)eng.on_write_ack(id, coordinator);

    // One message shared by the whole fan-out (the payload is identical
    // per target).  The decoded fast path aliases the coordinator's
    // live state WITHOUT owning it: valid for synchronous delivery
    // only, which is exactly the envelope contract — a queuing
    // transport serializes at send and drops the alias.
    const net::Message* msg = nullptr;
    const std::shared_ptr<const void> decoded(std::shared_ptr<const void>{},
                                              &fresh);
    std::size_t msg_bytes = 0;
    bool dead_target = false;
    for (const ReplicaId r : targets) {
      if (r == coordinator) continue;
      if (!replicas_.at(r).alive()) {
        dead_target = true;
        continue;
      }
      // A target across an active partition is unreachable NOW and the
      // coordinator knows it (the connection is refused): no message,
      // and — receipt honesty — no replicated_to count.
      if (!transport_->link_up(coordinator, r)) continue;
      if (msg == nullptr) {
        msg = &net::fill_message<net::CoordWriteReqMsg>(
            slots_for(coordinator).write_req, [&](auto& out) {
              out.req = id;
              out.key = key;
              Replica<M>::encode_state_into(fresh, out.state);
            });
        msg_bytes = net::wire_size_of(std::get<net::CoordWriteReqMsg>(*msg));
      }
      PutReceipt& receipt = eng.write_receipt(id);
      receipt.replication_bytes += msg_bytes;
      ++receipt.replicated_to;
      transport_->send(coordinator, r, net::borrow_message(*msg), decoded,
                       msg_bytes);
    }
    (void)eng.seal_write_quorum(id);
    if (!opts.hinted_handoff || !dead_target) return id;

    // The hints carry the fan-out's encoding; the state is encoded here
    // only when nothing fanned out.
    std::string encoded_here;
    if (msg == nullptr) Replica<M>::encode_state_into(fresh, encoded_here);
    const std::string& encoded =
        msg != nullptr ? std::get<net::CoordWriteReqMsg>(*msg).state : encoded_here;
    const Ring& route = routing_ring(key);
    const auto order = route.ring_order(key);
    std::size_t next_fallback = route.replication();  // first non-pref slot
    for (const ReplicaId owner : targets) {
      if (owner == coordinator || replicas_.at(owner).alive()) continue;
      // Find the next alive fallback server the coordinator can REACH
      // (distinct per owner so one fallback's crash cannot lose several
      // owners' hints at once; a fallback across an active partition
      // cannot accept the park and counts as unavailable).
      while (next_fallback < order.size() &&
             (!replicas_[order[next_fallback]].alive() ||
              !transport_->link_up(coordinator, order[next_fallback]))) {
        ++next_fallback;
      }
      PutReceipt& receipt = eng.write_receipt(id);
      if (next_fallback >= order.size()) {
        ++receipt.unparked;  // nowhere to park: report, don't hide
        continue;
      }
      const net::Message& hint = net::fill_message<net::HintMsg>(
          slots_for(coordinator).hint, [&](auto& out) {
            out.owner = owner;
            out.key = key;
            out.state = encoded;
          });
      const std::size_t hint_bytes =
          net::wire_size_of(std::get<net::HintMsg>(hint));
      receipt.replication_bytes += hint_bytes;
      ++receipt.hinted;
      transport_->send(coordinator, order[next_fallback],
                       net::borrow_message(hint), decoded, hint_bytes);
      ++next_fallback;
    }
    return id;
  }

  /// After a read request reaches a terminal state: if it asked for
  /// read repair and found anything, scatter the merged state back to
  /// every responder whose reply digest differs — the coordinator
  /// adopts locally, remote responders get a ReplicateMsg through the
  /// transport (so a partition or drop can lose the repair like any
  /// other message).  The default shims never request this; it is the
  /// Dynamo-style opt-in for the async path.
  void maybe_read_repair(QuorumCoordinator<M>& eng, std::uint64_t id) {
    if (!eng.is_terminal(id) || !eng.read_repair_requested(id)) {
      return;
    }
    const ReadReceipt& receipt = eng.peek_read(id);
    if (!receipt.found) return;
    // A coordinator that died between collecting replies and completion
    // cannot repair anybody — not even itself: a dead process neither
    // writes its own store nor sends (the delivery sink enforces the
    // same rule for inbound traffic).
    if (!replicas_.at(receipt.coordinator).alive()) return;
    const sync::Digest merged_digest = sync::state_digest(receipt.merged);
    const net::Message* msg = nullptr;
    std::size_t msg_bytes = 0;
    for (const auto& [r, digest] : eng.reply_digests(id)) {
      if (digest == merged_digest) continue;
      if (r == receipt.coordinator) {
        replicas_.at(r).adopt(receipt.key, receipt.merged);
        continue;
      }
      if (!replicas_.at(r).alive() ||
          !transport_->link_up(receipt.coordinator, r)) {
        continue;
      }
      if (msg == nullptr) {
        msg = &net::fill_message<net::ReplicateMsg>(
            slots_for(receipt.coordinator).replicate, [&](auto& out) {
              out.key = receipt.key;
              Replica<M>::encode_state_into(receipt.merged, out.state);
            });
        msg_bytes = net::wire_size_of(std::get<net::ReplicateMsg>(*msg));
      }
      transport_->send(receipt.coordinator, r, net::borrow_message(*msg),
                       nullptr, msg_bytes);
    }
  }

  /// Delivery sink: routes each of the envelope's three forms into the
  /// one alternative-typed applier.  A batch envelope applies its
  /// sub-views in order — exactly the deliveries an unbatched pump
  /// would have made; an owned message (inline transport) dispatches
  /// directly on its own alternative — no intermediate MessageView is
  /// built; the owned and viewed forms share one applier body because
  /// their alternatives carry identical field names.
  void on_message(const net::Envelope& envelope) {
    // Every per-delivery mutation below lands in the DESTINATION
    // replica's shard state — with a threaded transport this sink runs
    // on that shard's thread, so nothing here needs a lock.
    ShardState& shard = shard_for(envelope.to);
    if (!envelope.batch.empty()) {
      for (const net::MessageView& sub : envelope.batch) {
        apply_view(shard, envelope.from, envelope.to, sub, nullptr);
      }
      return;
    }
    if (envelope.view != nullptr) {
      apply_view(shard, envelope.from, envelope.to, *envelope.view,
                 static_cast<const Stored*>(envelope.decoded.get()));
      return;
    }
    const net::Message& msg = *envelope.msg;
    if (const auto* batch = std::get_if<net::BatchMsg>(&msg)) {
      // An owned composite (a caller handed BatchMsg to the inline
      // transport): expand it exactly as the sim expands a queued one.
      for (const std::string& frame : batch->frames) {
        std::optional<net::MessageView> sub = net::decode_frame_view(frame);
        DVV_ASSERT_MSG(sub.has_value(), "kv: malformed sub-frame in owned batch");
        apply_view(shard, envelope.from, envelope.to, *sub, nullptr);
      }
      return;
    }
    const Stored* fast = static_cast<const Stored*>(envelope.decoded.get());
    std::visit(
        [&](const auto& m) {
          apply_one(shard, envelope.from, envelope.to, m, fast);
        },
        msg);
  }

  /// The viewed-form entry into the applier (SimTransport deliveries).
  void apply_view(ShardState& shard, net::NodeId from, net::NodeId to,
                  const net::MessageView& view, const Stored* fast) {
    std::visit([&](const auto& m) { apply_one(shard, from, to, m, fast); },
               view);
  }

  /// True when alternative T — owned message or non-owning view, the
  /// two spellings of one wire type with identical field names — is
  /// the given kind.
  template <typename T, typename Msg, typename View>
  static constexpr bool is_kind_v =
      std::is_same_v<T, Msg> || std::is_same_v<T, View>;

  /// Applies one delivered message alternative at its destination
  /// replica.  `m` is either the owned alternative (inline transport —
  /// std::string fields) or its non-owning view twin (SimTransport —
  /// std::string_view fields over the received buffer); the body is
  /// shared, so the two delivery forms cannot drift.  A destination
  /// that is not alive receives nothing — the message is counted in
  /// the destination shard's drops and gone (for hint deliveries that
  /// is precisely why the holder keeps the hint until the ack).  State
  /// payloads use the decoded fast path when the transport preserved it
  /// (inline loopback) and decode the wire bytes when it did not —
  /// bytes are copied out of a view only on adoption.
  template <typename T>
  void apply_one(ShardState& shard, net::NodeId from, net::NodeId to,
                 const T& m, const Stored* fast) {
    Replica<M>& dst = replicas_.at(to);
    if (!dst.alive()) {
      if constexpr (is_kind_v<T, net::ReplicateMsg, net::ReplicateView> ||
                    is_kind_v<T, net::CoordWriteReqMsg,
                              net::CoordWriteReqView>) {
        ++shard.drops.replicate;  // a replica copy died with it
      } else if constexpr (is_kind_v<T, net::HintMsg, net::HintView>) {
        ++shard.drops.hint_stash;
      } else if constexpr (is_kind_v<T, net::HintDeliverMsg,
                                     net::HintDeliverView>) {
        ++shard.drops.hint_deliver;
      } else if constexpr (is_kind_v<T, net::HintAckMsg, net::HintAckView>) {
        ++shard.drops.hint_ack;
      } else if constexpr (is_kind_v<T, net::CoordReadReqMsg,
                                     net::CoordReadReqView> ||
                           is_kind_v<T, net::CoordReadRespMsg,
                                     net::CoordReadRespView> ||
                           is_kind_v<T, net::CoordWriteRespMsg,
                                     net::CoordWriteRespView>) {
        ++shard.drops.coord;  // the request machine rides it out
      } else if constexpr (is_kind_v<T, net::JoinReqMsg, net::JoinReqView> ||
                           is_kind_v<T, net::EpochAnnounceMsg,
                                     net::EpochAnnounceView> ||
                           is_kind_v<T, net::TransferDoneMsg,
                                     net::TransferDoneView>) {
        ++shard.drops.membership;  // re-announced / retried by the next epoch
      } else {
        ++shard.drops.sync;
      }
      return;
    }
    {
      if constexpr (is_kind_v<T, net::ReplicateMsg, net::ReplicateView>) {
            if (fast != nullptr) {
              dst.merge_key_view(mechanism_, m.key, *fast);
            } else {
              dst.merge_encoded(mechanism_, m.key, m.state);
            }
          } else if constexpr (is_kind_v<T, net::HintMsg, net::HintView>) {
            if (fast != nullptr) {
              dst.stash_hint(mechanism_, m.owner, Key(m.key), *fast);
            } else {
              dst.stash_hint_encoded(mechanism_, m.owner, m.key, m.state);
            }
          } else if constexpr (is_kind_v<T, net::HintDeliverMsg, net::HintDeliverView>) {
            // The owner merges the parked write home and acks with the
            // payload's digest so the holder can retire exactly this
            // hint (and not a newer re-stash).
            if (fast != nullptr) {
              dst.merge_key_view(mechanism_, m.key, *fast);
            } else {
              dst.merge_encoded(mechanism_, m.key, m.state);
            }
            const std::uint64_t digest = sync::encoded_state_digest(m.state);
            const net::Message& ack = net::fill_message<net::HintAckMsg>(
                shard.slots.hint_ack, [&](auto& out) {
                  out.owner = m.owner;
                  out.key = m.key;
                  out.digest = digest;
                });
            transport_->send(
                to, from, net::borrow_message(ack), nullptr,
                net::wire_size_of(std::get<net::HintAckMsg>(ack)));
          } else if constexpr (is_kind_v<T, net::HintAckMsg, net::HintAckView>) {
            (void)dst.drop_hint_if(m.owner, Key(m.key), m.digest);
          } else if constexpr (is_kind_v<T, net::CoordReadReqMsg, net::CoordReadReqView>) {
            // Serve the quorum read: answer with the local encoding of
            // the key (found=false when this replica holds nothing).
            // The decoded alias rides along for zero-copy loopback —
            // valid only for synchronous delivery, exactly the
            // envelope contract.
            const Stored* local = dst.find(m.key);
            const net::Message& resp =
                net::fill_message<net::CoordReadRespMsg>(
                    shard.slots.read_resp, [&](auto& out) {
                      out.req = m.req;
                      out.found = local != nullptr;
                      if (local != nullptr) {
                        Replica<M>::encode_state_into(*local, out.state);
                      } else {
                        out.state.clear();
                      }
                    });
            transport_->send(
                to, from, net::borrow_message(resp),
                std::shared_ptr<const void>(std::shared_ptr<const void>{},
                                            local),
                net::wire_size_of(std::get<net::CoordReadRespMsg>(resp)));
          } else if constexpr (is_kind_v<T, net::CoordReadRespMsg, net::CoordReadRespView>) {
            // A quorum-read reply lands at its coordinator: the engine
            // counts it toward the quorum (or drops it as late,
            // duplicate or stale — reply hygiene lives there).
            bool done;
            if (!m.found) {
              done = shard.engine.on_read_reply(m.req, from, nullptr, mechanism_);
            } else if (fast != nullptr) {
              done = shard.engine.on_read_reply(m.req, from, fast, mechanism_);
            } else {
              const Stored remote = Replica<M>::decode_state(m.state);
              done = shard.engine.on_read_reply(m.req, from, &remote, mechanism_);
            }
            if (done) maybe_read_repair(shard.engine, m.req);
          } else if constexpr (is_kind_v<T, net::CoordWriteReqMsg, net::CoordWriteReqView>) {
            // Replicate-with-ack: merge exactly as a ReplicateMsg
            // would, then acknowledge so the coordinator can count this
            // replica toward the write quorum.
            if (fast != nullptr) {
              dst.merge_key_view(mechanism_, m.key, *fast);
            } else {
              dst.merge_encoded(mechanism_, m.key, m.state);
            }
            const net::Message& ack = net::fill_message<net::CoordWriteRespMsg>(
                shard.slots.write_resp, [&](auto& out) { out.req = m.req; });
            transport_->send(
                to, from, net::borrow_message(ack), nullptr,
                net::wire_size_of(std::get<net::CoordWriteRespMsg>(ack)));
          } else if constexpr (is_kind_v<T, net::CoordWriteRespMsg, net::CoordWriteRespView>) {
            (void)shard.engine.on_write_ack(m.req, from);
          } else if constexpr (is_kind_v<T, net::SyncReqMsg, net::SyncReqView>) {
            run_sync_session(from, to, m.nonce);
          } else if constexpr (is_kind_v<T, net::JoinReqMsg, net::JoinReqView>) {
            // A member admits the join on the requester's behalf.  The
            // threaded cluster admits joins through the admin path
            // instead (a shard thread cannot stop the world it runs
            // on); a duplicate or out-of-capacity request is ignored.
            if (threaded_ == nullptr && m.node < replicas_.size() &&
                !membership_.is_member(static_cast<ReplicaId>(m.node)) &&
                replicas_.at(m.node).alive()) {
              join_node(static_cast<ReplicaId>(m.node));
            }
          } else if constexpr (is_kind_v<T, net::EpochAnnounceMsg,
                                         net::EpochAnnounceView>) {
            known_epoch_[to] = std::max(known_epoch_[to],
                                        static_cast<std::uint64_t>(m.epoch));
          } else if constexpr (is_kind_v<T, net::TransferDoneMsg,
                                         net::TransferDoneView>) {
            // Accounting/visibility only — a completed transfer implies
            // its target epoch is live somewhere.
            known_epoch_[to] = std::max(known_epoch_[to],
                                        static_cast<std::uint64_t>(m.epoch));
          } else if constexpr (is_kind_v<T, net::BatchMsg, net::BatchView>) {
            // Batches are expanded before dispatch (on_message, and the
            // transports themselves) — one can never reach the applier.
            DVV_ASSERT_MSG(false, "kv: unexpanded batch view in apply_view");
          } else {
            static_assert(is_kind_v<T, net::SyncRespMsg, net::SyncRespView>);
            CompletedSync cs;
            cs.initiator = to;
            cs.responder = from;
            cs.nonce = m.nonce;
            cs.stats.rounds = static_cast<std::size_t>(m.rounds);
            cs.stats.nodes_exchanged = static_cast<std::size_t>(m.nodes_exchanged);
            cs.stats.keys_compared = static_cast<std::size_t>(m.keys_compared);
            cs.stats.keys_shipped = static_cast<std::size_t>(m.keys_shipped);
            cs.stats.wire_bytes = static_cast<std::size_t>(m.wire_bytes);
            shard.completed_syncs.push_back(std::move(cs));
          }
    }
  }

  /// Runs one digest session at the responder after a SyncReqMsg
  /// arrived (refreshing both trees, walking shared partitions,
  /// repairing divergent keys) and answers the initiator with the
  /// stats.  The walk itself is computed in shared memory — its message
  /// rounds and wire bytes are metered in the stats, as before the
  /// transport existed — but whether a session happens AT ALL is the
  /// transport's call: a partitioned or dropped request means no
  /// repair.  An initiator that died after sending gets no session (a
  /// one-ended exchange cannot run).
  void run_sync_session(ReplicaId initiator, ReplicaId responder,
                        std::uint64_t nonce) {
    if (initiator == responder || !replicas_.at(initiator).alive()) return;
    refresh_tree(initiator);
    refresh_tree(responder);
    sync::SyncSession session(
        [this](const Key& key, ReplicaId sa, ReplicaId sb) {
          return repair_key(key, sa, sb);
        });
    sync::SyncStats stats;
    for (const auto partition : digest_index_.shared_partitions(initiator,
                                                                responder)) {
      stats.merge(session.run(initiator, digest_index_.tree(initiator, partition),
                              responder, digest_index_.tree(responder, partition)));
    }
    net::SyncRespMsg resp;
    resp.nonce = nonce;
    resp.rounds = stats.rounds;
    resp.nodes_exchanged = stats.nodes_exchanged;
    resp.keys_compared = stats.keys_compared;
    resp.keys_shipped = stats.keys_shipped;
    resp.wire_bytes = stats.wire_bytes;
    send_message(responder, initiator, resp);
  }

  /// Folds replica `r`'s dirty keys into its trees; the find callback
  /// clears each folded key's dirty bit (Replica::find_for_refresh).
  void refresh_tree(ReplicaId r) {
    digest_index_.refresh(r, [this, r](const Key& key) {
      return replicas_.at(r).find_for_refresh(key);
    });
  }

  /// Read-repair of one divergent key, initiated by session endpoint
  /// `a` after disagreeing with `b` (or `a == b` for the hint round):
  /// gather every alive owner's state plus every alive holder's parked
  /// hint, fold in canonical order (owners by preference list, then
  /// hints by (holder, owner) — the same deterministic merge the legacy
  /// pass computes), scatter the merge back, and rewrite differing
  /// hints to the merged bytes.  The initiator can only gather from and
  /// scatter to replicas it can REACH: under an active partition,
  /// owners and hint holders across the cut are invisible to the repair
  /// (tests/transport_test.cpp: RepairCannotCrossAnActivePartition) —
  /// each side converges internally and the sides reconcile after
  /// heal().  Wire metering uses the per-key digests
  /// the owners already maintain: identical gather states ship once
  /// (the initiator recognizes duplicates by digest), the initiator's
  /// own copy stays local, and owners whose bytes already equal the
  /// merge receive nothing.  Keys the session pair does not own are
  /// left alone: a replica must never adopt keys outside its partition.
  sync::RepairResult repair_key(const Key& key, ReplicaId a, ReplicaId b) {
    const auto pref = preference_list(key);
    const bool a_owns = std::find(pref.begin(), pref.end(), a) != pref.end();
    const bool b_owns = std::find(pref.begin(), pref.end(), b) != pref.end();
    if (!a_owns || !b_owns) return {};

    struct OwnerState {
      ReplicaId replica;
      const Stored* stored;
      sync::Digest digest;
    };
    std::vector<OwnerState> owners;
    sync::Digest initiator_digest = sync::kMissing;
    Stored merged;
    bool found_any = false;
    for (const ReplicaId r : pref) {
      if (!replicas_[r].alive() || !transport_->link_up(a, r)) continue;
      const Stored* s = replicas_[r].find(key);
      const sync::Digest d = s ? sync::state_digest(*s) : sync::kMissing;
      owners.push_back({r, s, d});
      if (r == a) initiator_digest = d;
      if (s != nullptr) {
        mechanism_.sync(merged, *s);
        found_any = true;
      }
    }
    std::vector<HintSource> hints = collect_hints_for(key);
    std::erase_if(hints, [&](const HintSource& h) {
      return !transport_->link_up(a, h.holder);
    });
    for (const HintSource& h : hints) {
      mechanism_.sync(merged, *h.state);
      found_any = true;
    }
    if (!found_any) return {};

    sync::RepairResult result;
    // The dedup/skip decisions below need every owner's and hint
    // holder's per-key digest at the initiator.  `b`'s digests crossed
    // in the session's leaf round and the initiator knows its own, but
    // each OTHER owner and every hint holder must be probed (key out,
    // digest back) — metered here so the bench's digest-vs-full
    // comparison stays honest.
    for (const OwnerState& o : owners) {
      if (o.replica == a || o.replica == b) continue;
      result.wire_bytes += key_wire_bytes(key) + sizeof(sync::Digest);
    }
    for (const HintSource& h : hints) {
      if (h.holder == a) continue;
      result.wire_bytes += key_wire_bytes(key) + sizeof(sync::Digest);
    }
    // Gather: each distinct divergent state crosses to the initiator once.
    std::set<sync::Digest> gathered;
    for (const OwnerState& o : owners) {
      if (o.stored == nullptr || o.replica == a) continue;
      if (o.digest == initiator_digest || gathered.contains(o.digest)) continue;
      gathered.insert(o.digest);
      result.wire_bytes += key_wire_bytes(key) + mechanism_.total_bytes(*o.stored);
      ++result.states_shipped;
    }
    for (const HintSource& h : hints) {
      const sync::Digest hd = sync::state_digest(*h.state);
      if (h.holder == a || hd == initiator_digest || gathered.contains(hd)) continue;
      gathered.insert(hd);
      result.wire_bytes += key_wire_bytes(key) + mechanism_.total_bytes(*h.state);
      ++result.states_shipped;
    }
    // Scatter: the merge goes out to every owner not already holding it.
    const sync::Digest merged_digest = sync::state_digest(merged);
    const std::size_t merged_bytes =
        key_wire_bytes(key) + mechanism_.total_bytes(merged);
    for (const OwnerState& o : owners) {
      if (o.digest == merged_digest) continue;  // byte-identical already
      replicas_[o.replica].adopt(key, merged);
      if (o.replica != a) {
        result.wire_bytes += merged_bytes;
        ++result.states_shipped;
      }
    }
    // Hint refresh: parked hints converge to the merged bytes so future
    // rounds recognize them by digest instead of re-shipping them.
    for (const HintSource& h : hints) {
      if (sync::state_digest(*h.state) == merged_digest) continue;
      replicas_[h.holder].replace_hint(h.owner, key, merged);
      if (h.holder != a) {
        result.wire_bytes += merged_bytes;
        ++result.states_shipped;
      }
    }
    repairs_shipped_total_.fetch_add(result.states_shipped,
                                     std::memory_order_relaxed);
    return result;
  }

  [[nodiscard]] static std::size_t key_wire_bytes(const Key& key) {
    return codec::varint_size(key.size()) + key.size();
  }

  ClusterConfig config_;
  M mechanism_;
  /// Declared before ring_: the ACTIVE ring starts as a copy of the
  /// table's epoch-0 snapshot.
  membership::MembershipTable membership_;
  Ring ring_;  ///< ACTIVE routing snapshot (promoted at rebalance end)
  /// Present only mid-rebalance: the freshly minted epoch's ring.  Keys
  /// in flipped partitions route by it; everything else stays on ring_.
  /// Mutated only inside a stopped world / at quiescence, so shard
  /// threads always read a settled value.
  std::optional<Ring> target_ring_;
  std::set<std::uint64_t> flipped_partitions_;
  membership::RebalanceEngine rebalance_;
  /// Highest epoch each provisioned replica has heard announced —
  /// per-element writes land on the element owner's shard (apply_one),
  /// distinct memory locations, no lock needed.
  std::vector<std::uint64_t> known_epoch_;
  sync::DigestIndex digest_index_;
  std::unique_ptr<net::Transport> transport_;
  std::vector<Replica<M>> replicas_;
  /// One ShardState per execution shard (see the shard routing section
  /// above).  Size 1 unless the wired transport is a ThreadedTransport,
  /// in which case it matches the transport's shard count and each
  /// state is touched only from its owning shard thread.
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// Set by wire_transport when the transport is threaded — the routing
  /// helpers key off it; null means single-domain (inline / sim).
  net::ThreadedTransport* threaded_ = nullptr;
  /// Atomic: request_sync may be scattered from several shard threads
  /// by a threaded driver (nonces only need uniqueness, not order).
  std::atomic<std::uint64_t> next_sync_nonce_{0};
  /// Atomic for the same reason; every state repair_key shipped.
  std::atomic<std::uint64_t> repairs_shipped_total_{0};
  /// Aggregation scratch for the merged accessors (mutable: the
  /// accessors are logically const).  Only valid to fill at quiescence.
  mutable DeliveryDrops drops_scratch_{};
  mutable CoordStats coord_scratch_{};
};

}  // namespace dvv::kv
