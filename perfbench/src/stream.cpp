#include "stream.hpp"

#include <string>

namespace perfbench {

OpStream::OpStream(const Mix& mix, std::size_t window, std::uint64_t seed,
                   std::size_t connection, std::size_t connections)
    : mix_(mix),
      window_(window),
      rng_(seed ^ (0x9e3779b97f4a7c15ULL * (connection + 1))),
      zipf_(mix.keys / connections, mix.zipf_skew) {}

Op OpStream::next() {
  const std::uint64_t i = index_++;
  if (!scheduled_.empty() && scheduled_.begin()->first == i) {
    const Op put = scheduled_.begin()->second;
    scheduled_.erase(scheduled_.begin());
    return put;
  }
  Op op;
  op.key = static_cast<std::uint32_t>(zipf_.sample(rng_));
  op.client = static_cast<std::uint16_t>(rng_.index(mix_.clients));
  if (rng_.chance(mix_.read_only)) return op;
  if (rng_.chance(mix_.blind)) {
    op.kind = OpKind::kPut;
    op.blind = true;
    return op;
  }
  // Read-modify-write: the GET goes now, its PUT at least one window
  // later, so the GET is answered before the PUT needs its token.
  std::uint64_t slot = i + window_ + mix_.think_ops + rng_.below(window_);
  while (scheduled_.contains(slot)) ++slot;
  Op put = op;
  put.kind = OpKind::kPut;
  scheduled_.emplace(slot, put);
  return op;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t stream_hash(const Mix& mix, std::size_t window,
                          std::uint64_t seed, std::size_t connections,
                          std::uint64_t ops) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (std::size_t c = 0; c < connections; ++c) {
    OpStream stream(mix, window, seed, c, connections);
    TokenBook<std::uint64_t> book(window);
    for (std::uint64_t i = 0; i < ops; ++i) {
      const Op op = stream.next();
      std::uint64_t source = 0;  // 0 = no token; else GET index + 1
      if (op.kind == OpKind::kGet) {
        book.record(i, op, i);
      } else if (const std::uint64_t* get = book.token_for(i, op)) {
        source = *get + 1;
      }
      const std::uint64_t fields[] = {static_cast<std::uint64_t>(op.kind),
                                      op.blind ? 1U : 0U, op.client, op.key,
                                      source};
      h = fnv1a(fields, sizeof(fields), h);
    }
  }
  return h;
}

std::string key_name(std::size_t connections, std::size_t c, std::size_t k) {
  return "key-" + std::to_string(k * connections + c);
}

std::string value_for(std::size_t c, std::uint64_t index, std::size_t bytes) {
  std::string v = "v" + std::to_string(c) + "." + std::to_string(index);
  if (v.size() < bytes) v.append(bytes - v.size(), '.');
  return v;
}

}  // namespace perfbench
