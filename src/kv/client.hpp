// dvv/kv/client.hpp
//
// A client session against the cluster: the read-modify-write loop from
// the paper's storage workflow.  The session remembers, per key, the
// causal context of its most recent GET and sends it with the next PUT —
// exactly the client-side behaviour whose causality the mechanisms must
// track.  A session that PUTs with a *stale* context (an old GET, or no
// GET at all — a blind write) is how concurrent versions arise.
#pragma once

#include <optional>
#include <map>
#include <utility>

#include "kv/cluster.hpp"
#include "kv/types.hpp"

namespace dvv::kv {

template <CausalityMechanism M>
class ClientSession {
 public:
  using Context = typename M::Context;

  ClientSession(ClientId id, Cluster<M>& cluster) : id_(id), cluster_(&cluster) {}

  [[nodiscard]] ClientId id() const noexcept { return id_; }

  /// GET through `from` (defaults to the key's coordinator); remembers
  /// the returned context for the next put().  When no coordinator is
  /// alive — or the explicitly-chosen source is down — the result comes
  /// back `unavailable` and the remembered context is left untouched:
  /// an error reply, not a crash, and never a context rollback (a
  /// clobbered context would turn the session's next put into a blind
  /// write).
  typename Cluster<M>::GetResult get(const Key& key,
                                     std::optional<ReplicaId> from = std::nullopt) {
    const std::optional<ReplicaId> source =
        from.has_value() ? from : cluster_->default_coordinator(key);
    if (!source.has_value() || !cluster_->replica(*source).alive()) {
      typename Cluster<M>::GetResult out;
      out.unavailable = true;
      return out;
    }
    auto result = cluster_->get(key, *source);
    contexts_[key] = result.context;
    return result;
  }

  /// PUT with the remembered context (empty if this session never read
  /// the key — a blind write); `opts` routes it (Cluster::put).
  /// Returns the cluster receipt.
  typename Cluster<M>::PutReceipt put(const Key& key, Value value,
                                      const WriteOptions& opts = {}) {
    return cluster_->put(key, id_, context_for(key), std::move(value), opts);
  }

  /// Read-modify-write: GET, apply `f` to the sibling values, PUT the
  /// result.  This is the canonical correct client loop: because the PUT
  /// carries the GET's context, it overwrites exactly what was read and
  /// nothing else.  When the GET comes back unavailable the RMW must
  /// NOT write: the read it would be conditioned on never happened, so
  /// proceeding would blind-write f({}) under the stale remembered
  /// context (tests/cluster_test.cpp: RmwOnUnavailableReadDoesNotWrite).
  template <typename F>
  typename Cluster<M>::PutReceipt rmw(const Key& key, F&& f) {
    auto r = get(key);
    if (r.unavailable) {
      typename Cluster<M>::PutReceipt receipt;
      receipt.unavailable = true;
      receipt.outcome = CoordOutcome::kUnavailable;
      return receipt;
    }
    return put(key, std::forward<F>(f)(r.values));
  }

  /// Forgets the remembered context for `key` (the next put is blind).
  void forget(const Key& key) { contexts_.erase(key); }

  /// Adopts a context obtained OUTSIDE this session's own get() — the
  /// async replay path completes coordinated reads (Cluster::begin_read)
  /// long after issuing them and hands the merged context back here.
  /// Same rule as get(): an unavailable read must not call this (a
  /// clobbered context would turn the next put into a blind write).
  void remember(const Key& key, Context context) {
    contexts_[key] = std::move(context);
  }

  [[nodiscard]] Context context_for(const Key& key) const {
    auto it = contexts_.find(key);
    return it == contexts_.end() ? Context{} : it->second;
  }

 private:
  ClientId id_;
  Cluster<M>* cluster_;
  std::map<Key, Context> contexts_;  // ordered: see dvv_lint unordered-container
};

}  // namespace dvv::kv
