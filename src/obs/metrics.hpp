// dvv/obs/metrics.hpp
//
// The layer metric catalogs: one struct of handles per subsystem, all
// registered against the global obs::registry() under layer-prefixed
// names ("net.msgs_dropped", "coord.requests_timeout",
// "aae.keys_shipped", ...).  Instrumented call sites grab the catalog
// singleton once and bump handles — never the registry map — so the
// hot-path cost is the handle's single enabled-check.
//
// This header deliberately knows nothing about net/kv/sync/store types
// (obs sits directly above util/).  The per-message-type counter
// arrays are sized and named here; net/transport.hpp static_asserts
// that kMessageTypes matches the Message variant, so adding a message
// type without extending the catalog is a compile error.
//
// Compile-time kill switch: with DVV_OBS_DISABLED (CMake -DDVV_OBS_OFF)
// every catalog handle is a no-op stub and instrumented sites compile
// to nothing.  Only the GLOBAL catalogs are affected — local
// registries (sim_store's result accounting) keep working, because
// they use obs::Counter directly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/obs.hpp"

namespace dvv::obs {

/// Message-type axis of the net.* counters, in net::Message variant
/// order (checked by a static_assert in net/transport.hpp).
inline constexpr std::size_t kMessageTypes = 14;
inline constexpr const char* kMessageTypeNames[kMessageTypes] = {
    "replicate", "hint",     "hint_deliver", "hint_ack",   "sync_req",
    "sync_resp", "read_req", "read_resp",    "write_req",  "write_resp",
    "join_req",  "epoch_announce", "transfer_done", "batch"};

#if defined(DVV_OBS_DISABLED)
struct NoopCounter {
  void inc(std::uint64_t = 1) const noexcept {}
  [[nodiscard]] bool armed() const noexcept { return false; }
  [[nodiscard]] std::uint64_t value() const noexcept { return 0; }
};
struct NoopGauge {
  void set(double) const noexcept {}
  void add(double) const noexcept {}
  void set_max(double) const noexcept {}
  [[nodiscard]] double value() const noexcept { return 0.0; }
};
struct NoopHistogram {
  void record(std::uint64_t) const noexcept {}
};
using MetricCounter = NoopCounter;
using MetricGauge = NoopGauge;
using MetricHistogram = NoopHistogram;
#else
using MetricCounter = Counter;
using MetricGauge = Gauge;
using MetricHistogram = HistogramHandle;
#endif

/// net.* — transport accounting: per-message-type send/deliver counts,
/// fault taxonomy, wire bytes.  Bumped by net/transport.hpp (inline)
/// and net/sim_transport.cpp (faulty).
struct NetMetrics {
  MetricCounter msgs_sent;           ///< net.msgs_sent
  MetricCounter msgs_delivered;      ///< net.msgs_delivered
  MetricCounter msgs_dropped;        ///< net.msgs_dropped (seeded loss)
  MetricCounter msgs_duplicated;     ///< net.msgs_duplicated
  MetricCounter msgs_reordered;      ///< net.msgs_reordered (extra delay > 0)
  MetricCounter partition_dropped;   ///< net.partition_dropped
  MetricCounter wire_bytes_sent;     ///< net.wire_bytes_sent
  MetricCounter wire_bytes_delivered;  ///< net.wire_bytes_delivered
  MetricCounter sent_by_type[kMessageTypes];       ///< net.sent.<type>
  MetricCounter delivered_by_type[kMessageTypes];  ///< net.delivered.<type>
  /// Strict-decode rejections of inbound frames (net::decode_or_reject):
  /// hostile or corrupted bytes that did not parse as any message.  The
  /// future socket front-end alerts on this; inside the repo only
  /// injected-malformed tests and fuzz harnesses ever bump it.
  MetricCounter decode_reject;                        ///< net.decode_reject
  MetricCounter decode_reject_by_type[kMessageTypes]; ///< net.decode_reject.<type>
  /// Frames rejected before a plausible type tag could be read (empty,
  /// truncated-varint, or out-of-range tag) — no per-type attribution.
  MetricCounter decode_reject_unknown;  ///< net.decode_reject.unknown
  /// net.alloc.* — pool MISSES on the message hot path (net/message.hpp
  /// installs these as the net pools' miss hooks).  Each counts the
  /// acquisitions that had to touch the global allocator; at steady
  /// state all three must sit at ~0 — the "zero allocations per op"
  /// claim bench_transport asserts instead of assuming.
  MetricCounter alloc_messages;        ///< net.alloc.messages
  MetricCounter alloc_envelopes;       ///< net.alloc.envelopes (arena blocks)
  MetricCounter alloc_encode_buffers;  ///< net.alloc.encode_buffers
};
[[nodiscard]] NetMetrics& net_metrics();

/// coord.* — quorum coordination: request taxonomy, reply hygiene,
/// request latency in coordination ticks.  Bumped by kv/coordinator.hpp.
struct CoordMetrics {
  MetricCounter reads_started;        ///< coord.reads_started
  MetricCounter writes_started;       ///< coord.writes_started
  MetricCounter requests_quorum;      ///< coord.requests_quorum
  MetricCounter requests_timeout;     ///< coord.requests_timeout
  MetricCounter requests_unavailable; ///< coord.requests_unavailable
  MetricCounter replies_duplicate_dropped;  ///< coord.replies_duplicate_dropped
  MetricCounter replies_late_dropped;       ///< coord.replies_late_dropped
  MetricCounter replies_stale_dropped;      ///< coord.replies_stale_dropped
  MetricHistogram latency_ticks;      ///< coord.latency_ticks (start->terminal)
};
[[nodiscard]] CoordMetrics& coord_metrics();

/// aae.* — digest anti-entropy effort, summed over sessions.  Bumped
/// at the end of every sync/SyncSession::run; SyncStats stays the
/// per-session view of the same numbers.
struct AaeMetrics {
  MetricCounter sessions;         ///< aae.sessions
  MetricCounter rounds;           ///< aae.rounds
  MetricCounter nodes_exchanged;  ///< aae.nodes_exchanged
  MetricCounter keys_compared;    ///< aae.keys_compared
  MetricCounter keys_shipped;     ///< aae.keys_shipped
  MetricCounter wire_bytes;       ///< aae.wire_bytes
};
[[nodiscard]] AaeMetrics& aae_metrics();

/// wal.* — write-ahead-log backend activity.  Bumped by
/// store/wal_backend.cpp.
struct WalMetrics {
  MetricCounter appends;         ///< wal.appends
  MetricCounter fsyncs;          ///< wal.fsyncs (modeled group commits)
  MetricCounter segments_sealed; ///< wal.segments_sealed
  MetricCounter compactions;     ///< wal.compactions
  MetricCounter compaction_records_dropped;  ///< wal.compaction_records_dropped
  MetricCounter recoveries;      ///< wal.recoveries
  MetricCounter records_replayed;      ///< wal.records_replayed
  MetricCounter torn_records_dropped;  ///< wal.torn_records_dropped
  MetricHistogram replay_us;     ///< wal.replay_us (wall-clock, per recover)
};
[[nodiscard]] WalMetrics& wal_metrics();

/// store.* — the kv::Store facade: op counts and the StoreStatus
/// taxonomy (kBadToken included).  Bumped by kv/store.cpp.
struct StoreMetrics {
  MetricCounter gets;          ///< store.gets (get + get_quorum)
  MetricCounter puts;          ///< store.puts (put, put_direct)
  MetricCounter begin_reads;   ///< store.begin_reads
  MetricCounter begin_writes;  ///< store.begin_writes
  MetricCounter status_ok;           ///< store.status_ok
  MetricCounter status_unavailable;  ///< store.status_unavailable
  MetricCounter status_bad_token;    ///< store.status_bad_token
  MetricCounter anti_entropy_runs;   ///< store.anti_entropy_runs (both passes)
};
[[nodiscard]] StoreMetrics& store_metrics();

/// server.* — the dvvd socket front-end: connection lifecycle, request
/// traffic, and the strict-decode rejection taxonomy for client frames
/// (the first bytes a hostile peer controls).  Bumped by src/server.
struct ServerMetrics {
  MetricCounter connections_accepted;  ///< server.connections_accepted
  MetricCounter connections_closed;    ///< server.connections_closed
  MetricCounter requests_get;          ///< server.requests.get
  MetricCounter requests_put;          ///< server.requests.put
  MetricCounter requests_admin;        ///< server.requests.admin (join/leave/
                                       ///  ring-info via the admin loop)
  MetricCounter responses_sent;        ///< server.responses_sent
  MetricCounter bytes_read;            ///< server.bytes_read
  MetricCounter bytes_written;         ///< server.bytes_written
  MetricCounter reads_paused;          ///< server.reads_paused (flow control)
  MetricCounter read_calls;            ///< server.read_calls (read(2) on
                                       ///  client sockets)
  MetricCounter write_calls;           ///< server.write_calls (write(2) on
                                       ///  client sockets)
  MetricCounter interest_updates;      ///< server.interest_updates
                                       ///  (epoll_ctl MOD on a connection)
  /// server.decode_reject — total client frames rejected at the strict
  /// boundary, plus the per-cause taxonomy below.  A frame-level reject
  /// (oversized/short) poisons the stream and closes the connection; a
  /// payload-level reject (bad opcode/fields/token) is answered with an
  /// error response and the stream continues.
  MetricCounter decode_reject;            ///< server.decode_reject
  MetricCounter reject_oversized_frame;   ///< server.decode_reject.oversized_frame
  MetricCounter reject_bad_opcode;        ///< server.decode_reject.bad_opcode
  MetricCounter reject_bad_fields;        ///< server.decode_reject.bad_fields
  MetricCounter reject_trailing_bytes;    ///< server.decode_reject.trailing_bytes
  MetricCounter reject_bad_token;         ///< server.decode_reject.bad_token
};
[[nodiscard]] ServerMetrics& server_metrics();

/// membership.* — elastic ring membership (src/membership + the cluster
/// glue): epoch lifecycle, transfer effort (metered SEPARATELY from the
/// steady-state aae.* series — rebalance traffic must not masquerade as
/// anti-entropy), and the ownership-change hygiene counters the
/// regression tests pin.  Bumped by kv/cluster.hpp.
struct MembershipMetrics {
  MetricCounter joins;             ///< membership.joins
  MetricCounter leaves;            ///< membership.leaves (graceful)
  MetricCounter removals;          ///< membership.removals (crash-removal)
  MetricCounter epochs_minted;     ///< membership.epochs_minted
  MetricCounter epochs_announced;  ///< membership.epochs_announced (frames sent)
  MetricCounter transfers_started;    ///< membership.transfers_started
  MetricCounter transfers_completed;  ///< membership.transfers_completed
  MetricCounter partitions_flipped;   ///< membership.partitions_flipped
  MetricCounter transfer_keys_shipped;  ///< membership.transfer_keys_shipped
  MetricCounter transfer_wire_bytes;    ///< membership.transfer_wire_bytes
  /// Hints whose parked owner lost the partition and were redirected to
  /// a current owner instead of misdelivered (satellite regression).
  MetricCounter hints_retargeted;  ///< membership.hints_retargeted
  /// Requests routed at a replica whose known epoch lagged the current
  /// one and were forwarded to a current-ring coordinator.
  MetricCounter stale_epoch_forwarded;  ///< membership.stale_epoch_forwarded
  /// Rejoining ids pushed through the clock-incarnation bump so
  /// pre-departure dots are never reused.
  MetricCounter rejoin_incarnations;  ///< membership.rejoin_incarnations
};
[[nodiscard]] MembershipMetrics& membership_metrics();

}  // namespace dvv::obs
