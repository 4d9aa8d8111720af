#include "kv/ring.hpp"

#include <algorithm>
#include <cstddef>
#include <string>

namespace dvv::kv {

namespace {

[[nodiscard]] std::vector<ReplicaId> contiguous_members(std::size_t servers) {
  std::vector<ReplicaId> out;
  out.reserve(servers);
  for (std::size_t s = 0; s < servers; ++s) {
    out.push_back(static_cast<ReplicaId>(s));
  }
  return out;
}

}  // namespace

Ring::Ring(std::size_t servers, std::size_t replication, std::size_t vnodes)
    : Ring(contiguous_members(servers), replication, vnodes) {}

Ring::Ring(std::vector<ReplicaId> members, std::size_t replication,
           std::size_t vnodes)
    : members_(std::move(members)), replication_(replication), vnodes_(vnodes) {
  std::sort(members_.begin(), members_.end());
  DVV_ASSERT_MSG(!members_.empty(), "ring needs at least one member");
  DVV_ASSERT_MSG(
      std::adjacent_find(members_.begin(), members_.end()) == members_.end(),
      "ring members must be distinct");
  DVV_ASSERT_MSG(replication >= 1 && replication <= members_.size(),
                 "replication factor must be in [1, members]");
  DVV_ASSERT_MSG(vnodes >= 1, "at least one vnode per server");
  ring_.reserve(members_.size() * vnodes);
  for (const ReplicaId s : members_) {
    for (std::size_t v = 0; v < vnodes; ++v) {
      // Hash a stable textual token per (server, vnode).  The token
      // depends only on the member's own id, so a member keeps its ring
      // positions across membership changes — minimal movement.
      const std::string token =
          "vnode:" + std::to_string(s) + ":" + std::to_string(v);
      ring_.push_back(VNode{hash(token), s});
    }
  }
  std::sort(ring_.begin(), ring_.end());
  preference_table_.reserve(ring_.size() * replication_);
  std::vector<ReplicaId> pref;
  for (std::size_t v = 0; v < ring_.size(); ++v) {
    pref.clear();
    walk(v, replication_, pref);
    preference_table_.insert(preference_table_.end(), pref.begin(), pref.end());
  }
}

bool Ring::is_member(ReplicaId r) const noexcept {
  return std::binary_search(members_.begin(), members_.end(), r);
}

std::vector<ReplicaId> Ring::preference_list_at(std::uint64_t point) const {
  const auto first = preference_table_.begin() +
                     static_cast<std::ptrdiff_t>(first_vnode(point) * replication_);
  return {first, first + static_cast<std::ptrdiff_t>(replication_)};
}

std::vector<ReplicaId> Ring::ring_order_at(std::uint64_t point) const {
  std::vector<ReplicaId> out;
  out.reserve(members_.size());
  walk(first_vnode(point), members_.size(), out);
  DVV_ASSERT(out.size() == members_.size());
  return out;
}

std::size_t Ring::first_vnode(std::uint64_t point) const noexcept {
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const VNode& v, std::uint64_t p) { return v.point < p; });
  return it == ring_.end() ? 0 : static_cast<std::size_t>(it - ring_.begin());
}

void Ring::walk(std::size_t start, std::size_t want,
                std::vector<ReplicaId>& out) const {
  // Clockwise, wrapping past the last vnode, collecting distinct
  // physical servers.
  std::size_t v = start;
  for (std::size_t walked = 0; walked < ring_.size() && out.size() < want;
       ++walked) {
    const ReplicaId server = ring_[v].server;
    if (std::find(out.begin(), out.end(), server) == out.end()) {
      out.push_back(server);
    }
    v = v + 1 == ring_.size() ? 0 : v + 1;
  }
}

std::uint64_t Ring::hash(std::string_view data) noexcept {
  // FNV-1a 64-bit.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  // Final avalanche to spread low-entropy keys around the ring.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

}  // namespace dvv::kv
