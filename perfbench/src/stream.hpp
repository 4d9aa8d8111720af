// perfbench/src/stream.hpp
//
// The benchmark's seeded op streams and the token-selection rule.
//
// Every connection owns a disjoint slice of the keyspace and draws its
// own infinite op stream from (seed, connection).  A stream mixes three
// kinds of fresh op, drawn per op:
//
//   * a standalone GET (probability Mix::read_only);
//   * a blind PUT (a write with no token, probability Mix::blind among
//     writes);
//   * a read-modify-write pair: a GET now, and the matching PUT
//     think_ops + [window, 2 * window) ops later.  Every write a PUT's
//     GET did not see stays a sibling, so think_ops sets how many
//     siblings a key carries.
//
// Which token a PUT carries is fixed by the stream alone (TokenBook):
// the newest GET of the same (logical client, key) that is at least one
// pipeline window older than the PUT.  In a closed loop with that
// window, that GET has always been answered before the PUT is sent, so
// per-key apply order at the coordinator and every token depend on the
// seed only — which is what makes the causality metrics exact counts
// and lets a sequential replay reproduce every answer byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>

#include "util/rng.hpp"

namespace perfbench {

/// One traffic mix.  `keys` is split evenly over the connections.
struct Mix {
  const char* name = "";
  std::size_t keys = 0;
  double zipf_skew = 0.0;      ///< 0 = uniform
  std::size_t clients = 1;     ///< logical clients per connection
  double read_only = 0.0;      ///< P(fresh op is a standalone GET)
  double blind = 0.0;          ///< P(fresh write is blind)
  std::size_t think_ops = 0;   ///< extra RMW lag (client think time)
  std::size_t count_ops = 0;   ///< fixed-length phase, ops per connection
};

enum class OpKind : std::uint8_t { kGet = 0, kPut = 1 };

struct Op {
  OpKind kind = OpKind::kGet;
  bool blind = false;
  std::uint16_t client = 0;  ///< logical client within the connection
  std::uint32_t key = 0;     ///< key index within the connection's slice
};

/// Infinite deterministic op stream of one connection.
class OpStream {
 public:
  OpStream(const Mix& mix, std::size_t window, std::uint64_t seed,
           std::size_t connection, std::size_t connections);

  /// The op at index produced(), then advances.
  Op next();
  [[nodiscard]] std::uint64_t produced() const noexcept { return index_; }

 private:
  Mix mix_;
  std::size_t window_;
  dvv::util::Rng rng_;
  dvv::util::ZipfSampler zipf_;
  std::uint64_t index_ = 0;
  /// RMW PUTs waiting for their slot (op index -> op).
  std::map<std::uint64_t, Op> scheduled_;
};

/// The token-selection rule.  `T` is whatever a GET yields (the token
/// bytes in the generator and the replays; the GET's op index in tests and
/// in the stream hash).  GET results are recorded in op order; a PUT at
/// index i sees the newest result of its (client, key) among GETs with
/// index <= i - window.
template <typename T>
class TokenBook {
 public:
  explicit TokenBook(std::size_t window) : window_(window) {}

  /// Records GET `index`'s result.  Calls must come in increasing index.
  void record(std::uint64_t index, const Op& get, T result) {
    pending_.push_back(Pending{index, slot(get), std::move(result)});
  }

  /// The token PUT `index` carries, or nullptr (sent blind).
  [[nodiscard]] const T* token_for(std::uint64_t index, const Op& put) {
    if (put.blind) return nullptr;
    while (!pending_.empty() && pending_.front().index + window_ <= index) {
      eligible_[pending_.front().slot] = std::move(pending_.front().result);
      pending_.pop_front();
    }
    const auto it = eligible_.find(slot(put));
    return it == eligible_.end() ? nullptr : &it->second;
  }

 private:
  struct Pending {
    std::uint64_t index;
    std::uint64_t slot;
    T result;
  };
  [[nodiscard]] static std::uint64_t slot(const Op& op) noexcept {
    return (std::uint64_t{op.client} << 32) | op.key;
  }

  std::size_t window_;
  std::deque<Pending> pending_;
  std::unordered_map<std::uint64_t, T> eligible_;
};

/// FNV-1a over the first `ops` ops of every connection's stream plus
/// each PUT's token source under the rule above.  Two runs with one
/// seed print the same value.
[[nodiscard]] std::uint64_t stream_hash(const Mix& mix, std::size_t window,
                                        std::uint64_t seed,
                                        std::size_t connections,
                                        std::uint64_t ops);

/// 64-bit FNV-1a, the benchmark's byte hash.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

/// Key `k` of connection `c`'s slice: "key-<k * connections + c>".
[[nodiscard]] std::string key_name(std::size_t connections, std::size_t c,
                                   std::size_t k);

/// The PUT payload of op `index` on connection `c` (unique, `bytes` long).
[[nodiscard]] std::string value_for(std::size_t c, std::uint64_t index,
                                    std::size_t bytes);

}  // namespace perfbench
