// tests/routed_write.hpp
//
// Shorthands for the WriteOptions the tests spell over and over: a
// write routed through an explicit coordinator and fan-out, and a
// sloppy-quorum (hinted handoff) write.  Both go through the one write
// path, Cluster::put / Store::put / begin_write.
#pragma once

#include <utility>
#include <vector>

#include "kv/coordinator.hpp"
#include "kv/types.hpp"

namespace dvv::test {

/// Coordinated at `coordinator`, fanned out to exactly `replicate_to`
/// (an empty list writes at the coordinator only).
[[nodiscard]] inline kv::WriteOptions routed(kv::ReplicaId coordinator,
                                             std::vector<kv::ReplicaId> replicate_to) {
  kv::WriteOptions opts;
  opts.coordinator = coordinator;
  opts.replicate_to = std::move(replicate_to);
  return opts;
}

/// Coordinated at `coordinator` through the sloppy quorum: full
/// replication targets, a hint parked for every dead one.
[[nodiscard]] inline kv::WriteOptions handoff(kv::ReplicaId coordinator) {
  kv::WriteOptions opts;
  opts.coordinator = coordinator;
  opts.hinted_handoff = true;
  return opts;
}

}  // namespace dvv::test
