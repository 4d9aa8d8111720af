// dvv/util/pool.hpp
//
// Allocation recycling for the hot message path: a size-class freelist
// arena and an object pool that recycles instances WITHOUT destroying
// them (so a recycled std::string / std::vector keeps its capacity and
// the next user's assign() is a memcpy, not an allocation).
//
// This extends the util/flat_map idea — keep the hot path's memory
// traffic linear and reuse what was already paid for — from container
// layout to allocation itself.  The contract net/ builds on top:
//
//   * steady state is allocation-free — once the pools are warm, an
//     acquire is a pop and a release is a push;
//   * every MISS (an acquire that had to touch the global allocator)
//     is observable: each pool takes an AllocHook function pointer and
//     calls it exactly once per miss, which is how the net.alloc.*
//     counter family measures "zero allocations per op at steady
//     state" instead of asserting it rhetorically;
//   * single-threaded by design, like the rest of the sim: pools are
//     owned thread_local by their subsystem, so there is no locking
//     and no cross-thread free problem.
//
// Nothing here is a general-purpose allocator: blocks larger than the
// largest size class fall through to the global allocator (counted as
// misses) and freed blocks of pooled classes are cached forever — the
// arena's high-water mark is the workload's, which for a simulator is
// exactly right.
//
// dvv-hot-path: dvv_lint's no-alloc-in-hot-path rule audits this file —
// every `new` here is either a counted miss or cold-path bookkeeping,
// each carrying a site-local waiver saying which.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "util/assert.hpp"

namespace dvv::util {

/// Observer for pool misses (acquisitions that hit the global
/// allocator).  A plain function pointer, not std::function: util/
/// cannot depend on obs/, so the owning subsystem installs a hook that
/// bumps its own counter.
using AllocHook = void (*)();

/// Size-class freelist over raw storage.  Classes are powers of two
/// from 16 bytes to 4 KiB; anything larger falls through to the global
/// allocator on every call (and counts as a miss).  Freed blocks are
/// cached on a per-class intrusive freelist and never returned to the
/// system until the arena dies.
class FreelistArena {
 public:
  FreelistArena() = default;
  FreelistArena(const FreelistArena&) = delete;
  FreelistArena& operator=(const FreelistArena&) = delete;

  ~FreelistArena() {
    for (FreeNode*& head : free_) {
      while (head != nullptr) {
        FreeNode* next = head->next;
        ::operator delete(static_cast<void*>(head));
        head = next;
      }
    }
  }

  void set_miss_hook(AllocHook hook) noexcept { miss_hook_ = hook; }

  [[nodiscard]] void* allocate(std::size_t bytes) {
    const std::size_t cls = class_of(bytes);
    if (cls < kClasses && free_[cls] != nullptr) {
      FreeNode* node = free_[cls];
      free_[cls] = node->next;
      return node;
    }
    if (miss_hook_ != nullptr) miss_hook_();
    // The counted miss: the one place this arena touches the global
    // allocator.  dvv-lint: allow(no-alloc-in-hot-path)
    return ::operator new(cls < kClasses ? class_bytes(cls) : bytes);
  }

  void deallocate(void* p, std::size_t bytes) noexcept {
    const std::size_t cls = class_of(bytes);
    if (cls >= kClasses) {
      ::operator delete(p);
      return;
    }
    auto* node = static_cast<FreeNode*>(p);
    node->next = free_[cls];
    free_[cls] = node;
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  static constexpr std::size_t kMinBytes = 16;   // >= sizeof(FreeNode)
  static constexpr std::size_t kMaxBytes = 4096;
  static constexpr std::size_t kClasses = 9;     // 16, 32, ..., 4096

  [[nodiscard]] static constexpr std::size_t class_bytes(std::size_t cls) noexcept {
    return kMinBytes << cls;
  }

  /// Index of the smallest class holding `bytes`, or kClasses when the
  /// request is beyond the largest class.
  [[nodiscard]] static constexpr std::size_t class_of(std::size_t bytes) noexcept {
    std::size_t cls = 0;
    std::size_t cap = kMinBytes;
    while (cap < bytes) {
      cap <<= 1;
      ++cls;
    }
    return bytes > kMaxBytes ? kClasses : cls;
  }

  FreeNode* free_[kClasses] = {};
  AllocHook miss_hook_ = nullptr;
};

/// Object pool that recycles instances UN-destructed: release() parks
/// the object as-is and the next acquire() hands it back, internal
/// buffers and all.  The caller overwrites every field it reads — for
/// strings/vectors via assign()/clear(), which reuse the retained
/// capacity.  That retention is the point: a warm pool turns per-op
/// message and buffer churn into pointer pushes.
template <typename T>
class RecyclePool {
 public:
  explicit RecyclePool(std::size_t max_idle = 1024) : max_idle_(max_idle) {
    idle_.reserve(max_idle_);
  }
  RecyclePool(const RecyclePool&) = delete;
  RecyclePool& operator=(const RecyclePool&) = delete;

  ~RecyclePool() {
    for (T* p : idle_) delete p;
  }

  void set_miss_hook(AllocHook hook) noexcept { miss_hook_ = hook; }

  /// Returns a recycled instance (LIFO, so homogeneous traffic gets an
  /// object that last held the same shape) or a fresh one on miss.
  [[nodiscard]] T* acquire() {
    if (!idle_.empty()) {
      T* p = idle_.back();
      idle_.pop_back();
      return p;
    }
    if (miss_hook_ != nullptr) miss_hook_();
    // The counted miss.  dvv-lint: allow(no-alloc-in-hot-path)
    return new T();
  }

  /// Parks `p` for reuse (without destroying it), or deletes it when
  /// the idle cache is already at capacity.
  void release(T* p) noexcept {
    if (idle_.size() < max_idle_) {
      idle_.push_back(p);
    } else {
      delete p;
    }
  }

  [[nodiscard]] std::size_t idle() const noexcept { return idle_.size(); }

 private:
  // Cold-path bookkeeping (reserved once at construction), not per-op
  // traffic.  dvv-lint: allow(no-alloc-in-hot-path)
  std::vector<T*> idle_;
  std::size_t max_idle_;
  AllocHook miss_hook_ = nullptr;
};

}  // namespace dvv::util
