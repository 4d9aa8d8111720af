// dvv/kv/ring.hpp
//
// Consistent-hashing ring with virtual nodes — the placement layer of
// every Dynamo-descendant (and of Riak, the system the paper's
// evaluation modified).  A key hashes to a point on the ring; its
// *preference list* is the next R distinct physical servers clockwise
// from that point.  The first entry coordinates writes unless the
// cluster is configured to spread coordination (see Cluster).
//
// Placement is orthogonal to causality tracking, but it determines *how
// many distinct servers ever coordinate writes for one key* — which is
// precisely the bound on DVV metadata size.  The ring makes that bound
// R for free, so the metadata benches exercise the paper's
// "bounded by the degree of replication" claim under realistic routing.
//
// Membership (src/membership): a ring is a SNAPSHOT over an explicit
// member list.  A member's vnode points depend only on its own id
// ("vnode:<id>:<v>"), never on who else is present, so two rings that
// share a member agree on that member's positions — adding or removing
// one node moves only the key ranges adjacent to its vnodes (minimal
// movement, the property rebalancing cost rides on).  Ring objects are
// immutable; membership changes mint a new Ring inside a new RingEpoch.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "kv/types.hpp"
#include "util/assert.hpp"

namespace dvv::kv {

class Ring {
 public:
  /// `servers`: number of physical servers (ReplicaIds 0..servers-1).
  /// `replication`: preference-list length R (1 <= R <= servers).
  /// `vnodes`: virtual nodes per server (more = smoother balance).
  Ring(std::size_t servers, std::size_t replication, std::size_t vnodes = 64);

  /// Ring over an explicit member list (need not be contiguous — a
  /// cluster after joins and leaves routes over exactly this set).
  /// Members must be distinct; order does not matter (vnode points are
  /// a pure function of each member's id).
  Ring(std::vector<ReplicaId> members, std::size_t replication,
       std::size_t vnodes = 64);

  /// Number of ring members (NOT the highest id: after churn the member
  /// list can be sparse).
  [[nodiscard]] std::size_t servers() const noexcept { return members_.size(); }
  [[nodiscard]] std::size_t replication() const noexcept { return replication_; }
  [[nodiscard]] std::size_t vnodes_per_server() const noexcept { return vnodes_; }

  /// The member ids this ring routes over, ascending.
  [[nodiscard]] const std::vector<ReplicaId>& members() const noexcept {
    return members_;
  }
  [[nodiscard]] bool is_member(ReplicaId r) const noexcept;

  /// The R distinct servers responsible for `key`, coordinator first.
  /// A table lookup: the constructor walked the ring once per vnode.
  [[nodiscard]] std::vector<ReplicaId> preference_list(std::string_view key) const {
    return preference_list_at(hash(key));
  }

  /// ALL distinct servers in clockwise ring order starting from the
  /// key's position.  preference_list is the first R entries; the rest
  /// are the fallback order used for hinted handoff when preference
  /// members are down.
  [[nodiscard]] std::vector<ReplicaId> ring_order(std::string_view key) const {
    return ring_order_at(hash(key));
  }

  /// preference_list / ring_order for a ring position rather than a key
  /// (a key sits at hash(key)); tests probe vnode boundaries with these.
  [[nodiscard]] std::vector<ReplicaId> preference_list_at(std::uint64_t point) const;
  [[nodiscard]] std::vector<ReplicaId> ring_order_at(std::uint64_t point) const;

  /// 64-bit FNV-1a, exposed for tests and for workload key bucketing.
  [[nodiscard]] static std::uint64_t hash(std::string_view data) noexcept;

 private:
  struct VNode {
    std::uint64_t point;
    ReplicaId server;

    bool operator<(const VNode& o) const noexcept {
      if (point != o.point) return point < o.point;
      return server < o.server;
    }
  };

  /// Index of the first vnode at or clockwise after `point`.
  [[nodiscard]] std::size_t first_vnode(std::uint64_t point) const noexcept;

  /// Walks clockwise from vnode `start`, appending distinct servers to
  /// `out` until it holds `want` of them.
  void walk(std::size_t start, std::size_t want, std::vector<ReplicaId>& out) const;

  std::vector<ReplicaId> members_;  // distinct, ascending
  std::size_t replication_;
  std::size_t vnodes_;
  std::vector<VNode> ring_;  // sorted by point
  /// Per vnode i, the first R distinct servers clockwise from it, at
  /// [i * R, (i + 1) * R).
  std::vector<ReplicaId> preference_table_;
};

}  // namespace dvv::kv
