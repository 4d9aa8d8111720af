// dvv/kv/store.hpp
//
// kv::Store — the mechanism-agnostic public API of the replicated
// store, and the boundary where causal contexts become opaque.
//
// The templated Cluster<M> welds every caller to one causality
// mechanism at compile time and hands clients the raw Context type —
// inspectable, forgeable, cross-wireable.  The paper's client contract
// is the opposite: a GET returns sibling values plus an opaque token,
// the client returns the token with its next PUT, and the server mints
// the dots.  Store is that contract as a type-erased facade:
//
//   * constructed from a mechanism NAME at runtime
//     (make_store("dvvset", config)) — one binary can sweep all six
//     mechanisms without instantiating six copies of every harness;
//   * contexts cross the boundary only as CausalToken (kv/token.hpp):
//     wire bytes under a versioned, checksummed, mechanism-tagged
//     header;
//   * a corrupted, truncated or cross-mechanism token is rejected as
//     StoreStatus::kBadToken without touching any replica state —
//     never an assert, never a silent blind write;
//   * everything else Cluster<M> offers — quorum options, receipts,
//     the asynchronous request engine, hinted handoff, both
//     anti-entropy passes, transport faults, crash/recovery — is
//     re-exposed through mechanism-independent types (kv/results.hpp,
//     kv/coordinator.hpp);
//   * writes start one way: begin_write, and put — its synchronous
//     shim — take the same WriteOptions (coordinator, fan-out, hinted
//     handoff, W); put_direct is put's any-thread door for W=1.
//
// The facade fully wraps Cluster<M> (store.cpp instantiates it for all
// six mechanisms); a workload driven through Store with round-tripped
// tokens is byte-identical to the same workload driven through
// Cluster<M> directly — results, receipts and digest fixed points
// (tests/store_api_test.cpp).  Use Cluster<M> directly only when the
// point IS the mechanism's internals (kernel tests, clock-shape
// benches, examples that print clocks); everything client-shaped goes
// through Store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kv/coordinator.hpp"
#include "kv/results.hpp"
#include "kv/token.hpp"
#include "kv/types.hpp"
#include "membership/membership.hpp"
#include "net/transport.hpp"
#include "store/backend.hpp"
#include "sync/merkle.hpp"

namespace dvv::kv {

/// Outcome of a facade operation.  kBadToken is the new failure mode
/// the opaque boundary introduces: the request was REJECTED before any
/// replica was touched because the causal token did not strictly
/// decode for this store's mechanism.
enum class StoreStatus : std::uint8_t {
  kOk = 0,
  kUnavailable = 1,  ///< no alive replica could serve (error reply, not a crash)
  kBadToken = 2,     ///< token corrupt/truncated/cross-mechanism; state untouched
};

[[nodiscard]] constexpr const char* to_string(StoreStatus s) noexcept {
  switch (s) {
    case StoreStatus::kOk: return "ok";
    case StoreStatus::kUnavailable: return "unavailable";
    case StoreStatus::kBadToken: return "bad-token";
  }
  return "?";
}

/// What a GET hands the client: the sibling values and the opaque
/// causal token to return with the next PUT.  Mirrors the templated
/// Replica<M>::GetResult with the raw Context replaced by the token.
struct StoreGetResult {
  StoreStatus status = StoreStatus::kOk;
  bool found = false;
  bool degraded = false;      ///< quorum read completed below R
  std::size_t replies = 0;    ///< replicas that actually served the read
  std::vector<Value> values;  ///< all live siblings
  CausalToken token;          ///< opaque context for the client's next PUT

  [[nodiscard]] bool ok() const noexcept { return status == StoreStatus::kOk; }
  [[nodiscard]] bool unavailable() const noexcept {
    return status == StoreStatus::kUnavailable;
  }
};

/// What a PUT reports: the coordination receipt (kv/coordinator.hpp)
/// plus the facade status.  On kBadToken the receipt is empty — there
/// was no write to receipt.
struct StorePutResult {
  StoreStatus status = StoreStatus::kOk;
  PutReceipt receipt;

  [[nodiscard]] bool ok() const noexcept { return status == StoreStatus::kOk; }
};

/// Sentinel that never names a real request.  The engine's ids start
/// at (slot 0, generation 0) == 0, so 0 would alias the first genuine
/// request — a caller that stored a rejected begin's id unchecked
/// could then harvest someone else's receipt.
inline constexpr std::uint64_t kInvalidRequestId = ~0ULL;

/// Result of starting an asynchronous write.  kBadToken means no
/// request was started: no state was touched and `id` is
/// kInvalidRequestId, which request_open/request_terminal/finalize
/// treat as unknown.
struct StoreWriteBegin {
  StoreStatus status = StoreStatus::kOk;
  std::uint64_t id = kInvalidRequestId;

  [[nodiscard]] bool ok() const noexcept { return status == StoreStatus::kOk; }
};

/// Harvested asynchronous read: the client-visible result plus the
/// coordination trace (who answered, what the merged reply costs).
struct StoreReadHarvest {
  StoreGetResult result;
  Key key;
  ReplicaId coordinator = 0;
  CoordOutcome outcome = CoordOutcome::kPending;
  std::size_t quorum = 0;
  std::size_t asked = 0;
  std::vector<ReplicaId> responders;
  std::size_t state_bytes = 0;  ///< total_bytes of the merged reply
  std::size_t metadata_bytes = 0;
  std::size_t siblings = 0;
  std::size_t clock_entries = 0;
};

/// Per-key metadata measurements at one replica (observability: the
/// workload replayer meters replies from here without naming Stored).
struct StoreKeyStats {
  bool found = false;
  std::size_t metadata_bytes = 0;
  std::size_t total_bytes = 0;
  std::size_t siblings = 0;
  std::size_t clock_entries = 0;
};

/// Everything a store needs at construction.  `mechanism` is the
/// runtime mechanism choice by name; empty selects the process default
/// (env DVV_MECHANISM when set — see default_mechanism_name() — else
/// "dvv").
struct StoreConfig {
  std::string mechanism;             ///< "", "dvv", "dvvset", "server-vv",
                                     ///  "client-vv", "vve", "causal-history"
  std::size_t servers = 3;
  std::size_t replication = 3;
  std::size_t vnodes = 64;
  sync::MerkleConfig aae{};          ///< geometry of the per-replica hash trees
  store::BackendConfig storage{};    ///< per-replica durability model
  net::TransportConfig transport{};  ///< inter-replica message layer
  std::size_t prune_cap = 0;         ///< client-vv only: >0 enables the unsafe
                                     ///  Riak-classic prune cap (experiment E8)
  /// Elastic membership (src/membership): provisioned replica slots
  /// beyond the seed ring.  0 means capacity == servers (no headroom,
  /// byte-identical to the pre-membership store); ids in
  /// [servers, capacity) start provisioned-but-outside the ring and
  /// enter via join_node.
  std::size_t capacity = 0;
  /// Seed ring members (epoch 0).  Empty means {0 .. servers-1}.
  std::vector<ReplicaId> initial_members{};
};

/// The type-erased facade.  One virtual call per operation; the hot
/// paths behind it (clock kernels, codec, transport) dominate, so the
/// dispatch overhead stays within bench noise (bench_context_token).
class Store {
 public:
  virtual ~Store() = default;

  // ---- identity / topology ----------------------------------------------

  [[nodiscard]] virtual std::string_view mechanism_name() const noexcept = 0;
  [[nodiscard]] virtual MechanismId mechanism_id() const noexcept = 0;
  [[nodiscard]] virtual std::size_t servers() const noexcept = 0;
  [[nodiscard]] virtual std::vector<ReplicaId> preference_list(
      const Key& key) const = 0;
  [[nodiscard]] virtual std::optional<ReplicaId> default_coordinator(
      const Key& key) const = 0;
  [[nodiscard]] virtual bool alive(ReplicaId r) const = 0;
  virtual void set_alive(ReplicaId r, bool alive) = 0;
  virtual void crash(ReplicaId r, std::size_t torn_tail_bytes = 0) = 0;
  virtual store::RecoveryStats recover(ReplicaId r) = 0;

  // ---- synchronous request path -----------------------------------------

  /// GET served by one replica (default: the key's coordinator).  A
  /// dead or absent source yields kUnavailable — and, as everywhere, an
  /// error result never carries a token (a clobbered token would turn
  /// the client's next PUT into a blind write).
  [[nodiscard]] virtual StoreGetResult get(
      const Key& key, std::optional<ReplicaId> from = std::nullopt) const = 0;

  /// Dynamo-style R-quorum read through the coordination engine.
  [[nodiscard]] virtual StoreGetResult get_quorum(const Key& key,
                                                  std::size_t quorum) = 0;

  /// PUT with the client's token (empty = blind write): the one
  /// synchronous write, Cluster<M>::put behind the token boundary.
  /// Default options route to the key's coordinator with full
  /// replication; WriteOptions picks the coordinator, narrows the
  /// fan-out, parks hints for dead members (hinted_handoff), or makes
  /// it a W=1 write that returns on the local apply without settling —
  /// the dvvd write, legal only inside the coordinator's serial domain
  /// (its shard thread, a run_at closure) over a threaded transport.
  virtual StorePutResult put(const Key& key, ClientId client,
                             const CausalToken& token, Value value,
                             const WriteOptions& opts = {}) = 0;

  // ---- shard-per-thread execution ----------------------------------------
  //
  // Over a threaded transport every replica lives in exactly one
  // shard's serial domain.  dvvd's shard loops call get / put (W=1)
  // directly on the owning shard; put_direct / get_direct are the same
  // operations for any NON-shard thread — tests and bench drivers —
  // wrapped in run_at.  Over an inline/sim transport there is one
  // implicit shard and every spelling is legal everywhere.

  /// Shards in the execution domain (1 unless the transport is
  /// threaded), and the shard owning replica `r`.
  [[nodiscard]] virtual std::size_t shard_count() const noexcept = 0;
  [[nodiscard]] virtual std::size_t shard_of(ReplicaId r) const noexcept = 0;

  /// Runs `fn` inside replica `r`'s serial domain and blocks until it
  /// ran (inline when single-domain).  Must not be called from a shard
  /// thread.
  virtual void run_at(ReplicaId r, const std::function<void()>& fn) = 0;

  /// Blocking any-thread doors: resolve the key's coordinator under the
  /// routing lock, then run a W=1 put / a coordinator get inside its
  /// serial domain via run_at.
  virtual StorePutResult put_direct(const Key& key, ClientId client,
                                    const CausalToken& token, Value value) = 0;
  [[nodiscard]] virtual StoreGetResult get_direct(const Key& key) = 0;

  // ---- asynchronous quorum coordination ---------------------------------

  [[nodiscard]] virtual std::uint64_t begin_read(const Key& key,
                                                 std::size_t quorum,
                                                 const ReadOptions& opts = {}) = 0;
  [[nodiscard]] virtual StoreWriteBegin begin_write(
      const Key& key, ClientId client, const CausalToken& token, Value value,
      const WriteOptions& opts = {}) = 0;
  [[nodiscard]] virtual bool request_open(std::uint64_t id) const = 0;
  [[nodiscard]] virtual bool request_terminal(std::uint64_t id) const = 0;
  [[nodiscard]] virtual std::vector<std::uint64_t> take_completed_requests() = 0;
  virtual bool finalize_request(std::uint64_t id) = 0;
  [[nodiscard]] virtual StoreReadHarvest take_read_result(std::uint64_t id) = 0;
  [[nodiscard]] virtual PutReceipt take_write_receipt(std::uint64_t id) = 0;
  [[nodiscard]] virtual const PutReceipt& peek_write_receipt(
      std::uint64_t id) const = 0;
  [[nodiscard]] virtual const CoordStats& coord_stats() const noexcept = 0;
  [[nodiscard]] virtual std::size_t requests_in_flight() const noexcept = 0;

  // ---- transport hooks ---------------------------------------------------

  [[nodiscard]] virtual net::Transport& transport() noexcept = 0;
  virtual std::size_t pump() = 0;
  virtual std::size_t pump_all() = 0;
  virtual void partition(const std::vector<std::vector<ReplicaId>>& groups,
                         std::string label = {}) = 0;
  virtual void heal() = 0;
  [[nodiscard]] virtual const DeliveryDrops& delivery_drops() const noexcept = 0;

  // ---- hinted handoff + anti-entropy hooks -------------------------------

  virtual std::size_t deliver_hints() = 0;
  [[nodiscard]] virtual std::size_t hinted_count() const = 0;
  virtual std::size_t anti_entropy() = 0;
  virtual DigestRepairReport anti_entropy_digest() = 0;
  virtual sync::SyncStats anti_entropy_digest_pair(ReplicaId a, ReplicaId b) = 0;
  virtual std::uint64_t request_sync(ReplicaId a, ReplicaId b) = 0;
  [[nodiscard]] virtual std::vector<CompletedSync> take_completed_syncs() = 0;

  // ---- elastic membership (src/membership) -------------------------------
  //
  // Join / graceful-leave / crash-removal as store transitions.  The
  // mutating entries are control-plane: they stop the world internally
  // (legal under concurrent client traffic on a threaded transport) but
  // must be called from a NON-shard thread — dvvd routes them through a
  // dedicated admin thread.  The bool returns report precondition
  // failures (out-of-range id, already/not a member, leave below the
  // replication floor) without touching any state — the dvvd admin
  // path answers kBadRequest instead of asserting.

  [[nodiscard]] virtual std::uint64_t ring_epoch() const noexcept = 0;
  [[nodiscard]] virtual std::vector<ReplicaId> members() const = 0;
  [[nodiscard]] virtual bool rebalancing() const noexcept = 0;
  [[nodiscard]] virtual membership::RebalanceStats rebalance_stats() const = 0;
  virtual bool join_node(ReplicaId node) = 0;
  virtual bool leave_node(ReplicaId node) = 0;
  virtual bool remove_node(ReplicaId node) = 0;
  /// One pass over the owed transfer walks; returns walks performed.
  virtual std::size_t rebalance_step() = 0;
  /// Drives the rebalance to completion; returns the cumulative stats.
  virtual membership::RebalanceStats complete_rebalance() = 0;

  // ---- observability -----------------------------------------------------

  [[nodiscard]] virtual Footprint footprint() const = 0;
  [[nodiscard]] virtual StoreKeyStats key_stats(ReplicaId r,
                                                const Key& key) const = 0;
  [[nodiscard]] virtual std::vector<Key> keys(ReplicaId r) const = 0;
  /// Full codec encoding of one replica's state for `key` (nullopt when
  /// absent) — the byte-level equivalence probe the facade proof tests
  /// compare against the templated twin.
  [[nodiscard]] virtual std::optional<std::string> encoded_state(
      ReplicaId r, const Key& key) const = 0;
};

/// The six mechanism names make_store accepts, in MechanismId order.
[[nodiscard]] const std::vector<std::string>& known_mechanisms();

/// Process default mechanism name: env DVV_MECHANISM when set (the CI
/// matrix re-runs the facade-driven suites under different values),
/// else "dvv".  An UNRECOGNIZED env value aborts with a message — a
/// typo in a CI leg must not silently run everything against the
/// default and pass.
[[nodiscard]] std::string default_mechanism_name();

/// Builds a store for `config.mechanism` (empty = process default).
/// Returns nullptr for an unknown mechanism name passed explicitly —
/// runtime mechanism selection deserves an inspectable error; only the
/// env-driven default (see above) aborts.
[[nodiscard]] std::unique_ptr<Store> make_store(StoreConfig config);

/// Convenience overload: name + config (name wins over config.mechanism).
[[nodiscard]] std::unique_ptr<Store> make_store(std::string_view mechanism,
                                                StoreConfig config = {});

}  // namespace dvv::kv
