// dvv/sync/key_observer.hpp
//
// The one-way hook that lets the anti-entropy subsystem keep its Merkle
// trees incremental without the kv layer depending on sync internals:
// a replica calls on_key_touched() when a key's stored state may have
// changed (PUT, replication merge, repair write-back) and the key is not
// already pending: the replica keeps a dirty bit per key and reports a
// key once per tree refresh.  The observer records the key as dirty;
// digests are recomputed lazily at the next refresh, so a burst of
// writes to one hot key costs one report and one re-hash, not one per
// write.  Crash and re-indexing report every key regardless of the bit.
#pragma once

#include <string>

#include "core/types.hpp"

namespace dvv::sync {

struct KeyObserver {
  virtual ~KeyObserver() = default;
  virtual void on_key_touched(core::ActorId replica, const std::string& key) = 0;
};

}  // namespace dvv::sync
