// perfbench/src/main.cpp
//
// dvvbench — the end-to-end benchmark of a dvvd request.
//
//   dvvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process hosts server::Server over kv::make_store on a fixed
// deployment, preloads the keyspace over sockets, and drives seeded
// GET/PUT traffic over loopback TCP with server::Client framing from a
// closed loop: kConnections generator threads, one connection each,
// kWindow requests in flight per connection.  It then checks every
// answer against a sequential replay of the identical op stream on an
// inline-transport twin, and prints its metrics, the last line being
// one JSON object.
//
// The benchmark touches only the library's public functions (kv::Store,
// server::*, obs::Registry, util::), so every layer is timed from
// outside; see perfbench/README.md for what each metric means and
// which end-to-end metric each per-layer metric should move.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "kv/store.hpp"
#include "net/threaded_transport.hpp"
#include "obs/obs.hpp"
#include "report.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "stream.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace kv = dvv::kv;
namespace server = dvv::server;

// ---- the fixed deployment ---------------------------------------------------
//
// Set explicitly, so no DVV_* environment variable can change it.

constexpr const char* kMechanism = "dvv";
constexpr std::size_t kReplicas = 8;
constexpr std::size_t kReplication = 3;
constexpr std::size_t kShards = 2;

// ---- the load -----------------------------------------------------------------
//
// Two generator threads plus two shard threads keep a 4-core host busy
// without oversubscribing it.

constexpr std::size_t kConnections = 2;
constexpr std::size_t kWindow = 16;  ///< requests in flight per connection
constexpr std::size_t kValueBytes = 64;
/// setup_s is the median of at least kSetups set-ups, repeated while
/// they took less than kSetupSeconds in all (at most kMaxSetups), so a
/// millisecond set-up is still a steady median.
constexpr std::size_t kSetups = 3;
constexpr std::size_t kMaxSetups = 100;
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kIntervals = 20;  ///< percentile / trace intervals per window
constexpr std::size_t kCaptured = 4096;  ///< payloads kept per connection

// Why each mix exists: perfbench/README.md.
const Mix kMixes[] = {
    // name           keys     skew  clients read_only  blind think  count
    {"rw-uniform", 100'000, 0.0, 4, 0.0, 0.0, 0, 60'000},
    {"read-zipf", 100'000, 0.99, 4, 18.0 / 19.0, 0.0, 0, 120'000},
    {"hot-siblings", 32, 0.0, 256, 0.0, 0.1, 1024, 20'000},
};

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "dvvbench: %s\n", what);
  std::exit(2);
}

std::uint64_t client_id(std::size_t connection, std::size_t logical) {
  return connection * 65536 + logical;
}

std::string preload_value(const std::string& key) {
  std::string v = "p" + key;
  v.resize(kValueBytes, '.');
  return v;
}

/// Builds a store on the fixed deployment and checks that it is what
/// was asked for, whatever the environment says.
std::unique_ptr<kv::Store> open_store(dvv::net::TransportKind transport) {
  kv::StoreConfig config;
  config.mechanism = kMechanism;
  config.servers = kReplicas;
  config.replication = kReplication;
  config.storage.kind = dvv::store::BackendKind::kMem;
  config.transport.kind = transport;
  config.transport.threaded.shards = kShards;
  std::unique_ptr<kv::Store> store = kv::make_store(config);
  const bool threaded = transport == dvv::net::TransportKind::kThreaded;
  if (store == nullptr || store->mechanism_name() != kMechanism ||
      store->servers() != kReplicas ||
      store->preference_list("key-0").size() != kReplication ||
      store->shard_count() != (threaded ? kShards : 1) ||
      std::string_view(store->transport().name()) !=
          (threaded ? "threaded" : "inline") ||
      config.storage.kind != dvv::store::BackendKind::kMem) {
    die("the store does not match the fixed deployment");
  }
  return store;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU placement: the shard threads share two CPUs and the generator
/// threads two others.  Left to the scheduler, a generator sometimes
/// shares a shard's CPU for a whole run, and such a run's tail latency
/// is several times the others'.  Threads are pinned to a pair, not to
/// one CPU each, so that one can move off a CPU the host is stealing.
/// On hosts with fewer than four usable CPUs nothing is pinned.
class Placement {
 public:
  Placement() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    CPU_ZERO(&server_);
    CPU_ZERO(&generators_);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    std::size_t taken = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && taken < 4; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      CPU_SET(cpu, taken < 2 ? &server_ : &generators_);
      ++taken;
    }
    pinned_ = taken == 4;
  }

  /// Pins the calling thread to the shard CPUs.
  void pin_shard() const { pin(server_); }
  /// Pins the calling thread to the generator CPUs.
  void pin_generator() const { pin(generators_); }

 private:
  void pin(const cpu_set_t& set) const {
    if (pinned_) (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }

  cpu_set_t server_;
  cpu_set_t generators_;
  bool pinned_ = false;
};

const Placement& placement() {
  static const Placement p;
  return p;
}

/// Runs `fn(c)` on one generator thread per connection and joins them.
void on_each_connection(const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&fn, c] {
      placement().pin_generator();
      fn(c);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// The closed loop: keeps up to kWindow requests in flight while
/// more() allows, then drains.  receive() returns false when the
/// connection broke.
template <typename More, typename Send, typename Receive>
void closed_loop(More more, Send send, Receive receive) {
  std::size_t in_flight = 0;
  while (true) {
    while (in_flight < kWindow && more()) {
      send();
      ++in_flight;
    }
    if (in_flight == 0 || !receive()) return;
    --in_flight;
  }
}

/// Window bookkeeping shared by the generator threads.
struct Window {
  Clock::time_point start;
  Clock::time_point deadline;
  Clock::duration interval{};
  bool trace = false;

  /// Interval index of `t`, or nullopt outside the window.
  [[nodiscard]] std::optional<std::size_t> interval_of(Clock::time_point t) const {
    if (t < start || t >= deadline) return std::nullopt;
    return std::min<std::size_t>((t - start) / interval, kIntervals - 1);
  }
  /// Traced runs alternate: odd intervals traced, even ones not.
  [[nodiscard]] bool traced(std::size_t interval) const {
    return trace && interval % 2 == 1;
  }
};

/// One generator connection and everything it measured.
class Connection {
 public:
  Connection(std::uint16_t port, std::size_t index, const Mix& mix,
             std::uint64_t seed, const std::vector<std::string>& keys)
      : index_(index),
        keys_(keys),
        client_(port),
        stream_(mix, kWindow, seed, index, kConnections),
        book_(kWindow) {}

  /// Blind PUT of every key of the slice.
  void preload() {
    std::size_t next = 0;
    std::size_t answered = 0;
    closed_loop([&] { return next < keys_.size(); },
                [&] {
                  client_.send_put(next + 1, keys_[next], "",
                                   preload_value(keys_[next]),
                                   client_id(index_, 0));
                  ++next;
                  ++sent_;
                },
                [&] {
                  server::Response resp;
                  if (!client_.read_response(/*is_get=*/false, resp)) {
                    return broken();
                  }
                  // Answers come back in request order.
                  if (resp.status != server::ResponseStatus::kOk ||
                      resp.request_id != ++answered) {
                    ++failed_;
                  }
                  return true;
                });
  }

  /// The fixed-length phase: `ops` ops, drained.  Its GET answers give
  /// the causality metrics, which are therefore exact counts.
  void run_count_phase(std::uint64_t ops) {
    counting_ = true;
    closed_loop([&] { return stream_.produced() < ops; },
                [&] { send_op(Clock::now(), nullptr); },
                [&] { return receive_op(nullptr); });
    counting_ = false;
  }

  /// The measured window: sends until the deadline, then drains.
  void run_window(const Window& w) {
    std::this_thread::sleep_until(w.start);
    const double cpu0 = thread_cpu_seconds();
    bool open = true;
    Clock::time_point now;
    closed_loop(
        [&] {
          if (!open) return false;
          now = Clock::now();
          if (now < w.deadline) return true;
          open = false;
          cpu_seconds = thread_cpu_seconds() - cpu0;
          return false;
        },
        [&] { send_op(now, &w); }, [&] { return receive_op(&w); });
    if (open) cpu_seconds = thread_cpu_seconds() - cpu0;  // broke early
  }

  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool is_broken() const noexcept { return broken_; }
  /// Stream ops sent (preload excluded).
  [[nodiscard]] std::uint64_t stream_ops() const noexcept {
    return stream_.produced();
  }
  /// FNV-1a of every stream answer's payload, in op order.
  [[nodiscard]] const std::vector<std::uint64_t>& answers() const noexcept {
    return answers_;
  }
  void close() { client_.close(); }

  // Causality counts of the fixed-length phase.
  std::uint64_t gets = 0;
  std::uint64_t found_gets = 0;
  std::uint64_t siblings = 0;
  std::uint64_t token_bytes = 0;
  std::uint64_t get_resp_bytes = 0;

  // Ops answered in each interval of the window.
  std::uint64_t interval_ops[kIntervals] = {};
  std::uint64_t interval_puts[kIntervals] = {};
  IntervalLatencies get_latency{kIntervals};
  IntervalLatencies put_latency{kIntervals};

  // Generator spans over traced intervals (sums in µs).
  double send_us = 0.0;
  double wait_us = 0.0;
  double decode_us = 0.0;
  std::uint64_t sends_traced = 0;
  std::uint64_t receives_traced = 0;
  double cpu_seconds = 0.0;

  // Payloads kept for the parse/encode timings.
  std::vector<std::string> captured_requests;
  std::vector<server::Response> captured_get_responses;
  std::vector<server::Response> captured_put_responses;

 private:
  struct InFlight {
    std::uint64_t index;
    Op op;
    Clock::time_point sent;
  };

  bool broken() {
    broken_ = true;
    ++failed_;
    return false;
  }

  void send_op(Clock::time_point now, const Window* w) {
    const std::uint64_t i = stream_.produced();
    const Op op = stream_.next();
    const std::string& key = keys_[op.key];
    std::string_view token;
    std::string value;
    if (op.kind == OpKind::kPut) {
      if (const std::string* t = book_.token_for(i, op)) token = *t;
      value = value_for(index_, i, kValueBytes);
    }
    if (counting_ && captured_requests.size() < kCaptured) {
      std::string payload;
      if (op.kind == OpKind::kGet) {
        server::encode_get_request(payload, i + 1, key);
      } else {
        server::encode_put_request(payload, i + 1, key, token, value,
                                   client_id(index_, op.client));
      }
      captured_requests.push_back(std::move(payload));
    }
    if (op.kind == OpKind::kGet) {
      client_.send_get(i + 1, key);
    } else {
      client_.send_put(i + 1, key, token, value, client_id(index_, op.client));
    }
    ++sent_;
    if (w != nullptr) {
      const std::optional<std::size_t> k = w->interval_of(now);
      if (k.has_value() && w->traced(*k)) {
        send_us += micros(Clock::now() - now);
        ++sends_traced;
      }
    }
    in_flight_.push_back(InFlight{i, op, now});
  }

  bool receive_op(const Window* w) {
    const InFlight f = in_flight_.front();
    in_flight_.pop_front();
    const Clock::time_point wait0 = Clock::now();
    if (!client_.read_frame(payload_)) return broken();
    const Clock::time_point got = Clock::now();
    const bool is_get = f.op.kind == OpKind::kGet;
    const bool parsed = server::parse_response(
        payload_, is_get ? server::Opcode::kGet : server::Opcode::kPut, resp_);
    const Clock::time_point decoded = Clock::now();
    const bool ok = parsed && resp_.status == server::ResponseStatus::kOk &&
                    resp_.request_id == f.index + 1;
    if (!ok) ++failed_;
    answers_.push_back(fnv1a(payload_.data(), payload_.size()));
    if (is_get) book_.record(f.index, f.op, ok ? resp_.token_bytes : std::string());

    if (counting_) {
      if (is_get && ok) {
        ++gets;
        token_bytes += resp_.token_bytes.size();
        get_resp_bytes += payload_.size();
        if (resp_.found) {
          ++found_gets;
          siblings += resp_.values.size();
        }
      }
      auto& keep = is_get ? captured_get_responses : captured_put_responses;
      if (ok && keep.size() < kCaptured / 2) keep.push_back(resp_);
    }
    if (w != nullptr) {
      if (const std::optional<std::size_t> k = w->interval_of(got)) {
        const bool traced = w->traced(*k);
        ++interval_ops[*k];
        if (!is_get) ++interval_puts[*k];
        if (traced) {
          wait_us += micros(got - wait0);
          decode_us += micros(decoded - got);
          ++receives_traced;
        } else if (!w->trace) {
          const auto us = static_cast<float>(micros(got - f.sent));
          (is_get ? get_latency : put_latency).add(*k, us);
        }
      }
    }
    return true;
  }

  std::size_t index_;
  const std::vector<std::string>& keys_;
  server::Client client_;
  OpStream stream_;
  TokenBook<std::string> book_;
  std::deque<InFlight> in_flight_;
  std::string payload_;
  server::Response resp_;
  std::vector<std::uint64_t> answers_;
  std::uint64_t sent_ = 0;
  std::uint64_t failed_ = 0;
  bool broken_ = false;
  bool counting_ = false;
};

/// Per-op store call times of a replay.
struct ReplayTimes {
  std::vector<float> get_us;
  std::vector<float> put_us;
};

/// Replays, sequentially on `store`, connection `c`'s preload and the
/// first `ops` ops of its stream — the identical op stream, with tokens
/// chosen by the same rule from the replay's own answers.  Each answer
/// is encoded exactly as dvvd encodes it and compared with the live
/// answer's hash.  Times the first `timed_ops` stream ops into `times`
/// when given.  Returns the mismatches.
std::uint64_t replay(kv::Store& store, const Mix& mix, std::uint64_t seed,
                     std::size_t c, const std::vector<std::string>& keys,
                     const std::vector<std::uint64_t>& expected,
                     std::uint64_t ops, std::uint64_t timed_ops,
                     ReplayTimes* times) {
  std::uint64_t mismatches = 0;
  for (const std::string& key : keys) {
    const kv::StorePutResult r =
        store.put_direct(key, kv::client_actor(client_id(c, 0)),
                         kv::CausalToken{}, preload_value(key));
    if (!r.ok()) ++mismatches;
  }
  std::string payload;
  OpStream stream(mix, kWindow, seed, c, kConnections);
  TokenBook<std::string> book(kWindow);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const Op op = stream.next();
    const std::string& key = keys[op.key];
    const bool timed = times != nullptr && i < timed_ops;
    payload.clear();
    const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
    if (op.kind == OpKind::kGet) {
      const kv::StoreGetResult r = store.get_direct(key);
      if (timed) times->get_us.push_back(static_cast<float>(micros(Clock::now() - t0)));
      if (r.ok()) {
        server::encode_get_response(payload, i + 1, r.found, r.values, r.token);
      } else {
        server::encode_error_response(
            payload, server::ResponseStatus::kUnavailable, i + 1);
      }
      book.record(i, op, r.token.bytes());
    } else {
      const std::string* token = book.token_for(i, op);
      const kv::StorePutResult r = store.put_direct(
          key, kv::client_actor(client_id(c, op.client)),
          token == nullptr ? kv::CausalToken{} : kv::CausalToken::from_bytes(*token),
          value_for(c, i, kValueBytes));
      if (timed) times->put_us.push_back(static_cast<float>(micros(Clock::now() - t0)));
      if (r.ok()) {
        server::encode_put_response(payload, i + 1, r.receipt.replicated_to);
      } else {
        server::encode_error_response(
            payload, server::ResponseStatus::kUnavailable, i + 1);
      }
    }
    if (i >= expected.size() ||
        fnv1a(payload.data(), payload.size()) != expected[i]) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// Keys whose coordinator state differs between `a` and `b`.
std::uint64_t coordinator_mismatches(const kv::Store& a, const kv::Store& b,
                                     const std::vector<std::string>& keys) {
  std::uint64_t mismatches = 0;
  for (const std::string& key : keys) {
    const std::optional<kv::ReplicaId> coord = a.default_coordinator(key);
    if (!coord.has_value() || b.default_coordinator(key) != coord) {
      ++mismatches;
      continue;
    }
    const std::optional<std::string> state = a.encoded_state(*coord, key);
    if (!state.has_value() || state != b.encoded_state(*coord, key)) ++mismatches;
  }
  return mismatches;
}

/// Keys whose replicas disagree across the preference list.
std::uint64_t preference_disagreements(
    const kv::Store& store, const std::vector<std::vector<std::string>>& keys) {
  std::uint64_t disagreements = 0;
  for (const auto& slice : keys) {
    for (const std::string& key : slice) {
      const std::vector<kv::ReplicaId> pref = store.preference_list(key);
      const std::optional<std::string> first = store.encoded_state(pref.at(0), key);
      for (const kv::ReplicaId r : pref) {
        if (store.encoded_state(r, key) != first) {
          ++disagreements;
          break;
        }
      }
    }
  }
  return disagreements;
}

double p50(std::vector<float> xs) { return nearest_rank(xs, 0.5); }

/// Mean ns per call of parse_request over the captured request payloads.
double parse_ns(const std::vector<std::unique_ptr<Connection>>& conns) {
  std::uint64_t calls = 0;
  std::uint64_t rejects = 0;
  server::Request req;
  const Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < 20; ++rep) {
    for (const auto& conn : conns) {
      for (const std::string& payload : conn->captured_requests) {
        rejects += server::parse_request(payload, req) != server::RejectReason::kNone;
        ++calls;
      }
    }
  }
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  if (rejects != 0) die("a captured request failed to parse");
  return ns / static_cast<double>(calls);
}

/// Mean ns per call of encode_{get,put}_response over the captured
/// answers.
double encode_ns(const std::vector<std::unique_ptr<Connection>>& conns) {
  struct GetAnswer {
    bool found;
    std::vector<kv::Value> values;
    kv::CausalToken token;
  };
  std::vector<GetAnswer> gets;
  std::vector<std::uint64_t> puts;
  for (const auto& conn : conns) {
    for (const server::Response& r : conn->captured_get_responses) {
      gets.push_back(GetAnswer{r.found, r.values, kv::CausalToken::from_bytes(r.token_bytes)});
    }
    for (const server::Response& r : conn->captured_put_responses) {
      puts.push_back(r.replicated_to);
    }
  }
  std::uint64_t calls = 0;
  std::size_t bytes = 0;
  std::string out;
  const Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < 20; ++rep) {
    for (const GetAnswer& g : gets) {
      out.clear();
      server::encode_get_response(out, calls, g.found, g.values, g.token);
      bytes += out.size();
      ++calls;
    }
    for (const std::uint64_t replicated : puts) {
      out.clear();
      server::encode_put_response(out, calls, replicated);
      bytes += out.size();
      ++calls;
    }
  }
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  if (bytes == 0) die("no answers were captured");
  return ns / static_cast<double>(calls);
}

/// A served store with its generator connections.  Destruction closes
/// the connections, stops the server, then drops the store.
struct Deployment {
  std::unique_ptr<kv::Store> store;
  std::unique_ptr<server::Server> server;
  std::vector<std::unique_ptr<Connection>> conns;
};

/// Server start plus preload over sockets; appends its duration.
Deployment set_up(const Mix& mix, std::uint64_t seed,
                  const std::vector<std::vector<std::string>>& keys,
                  std::vector<double>& seconds) {
  const Clock::time_point t0 = Clock::now();
  Deployment d;
  d.store = open_store(dvv::net::TransportKind::kThreaded);
  d.server = std::make_unique<server::Server>(*d.store, server::ServerConfig{});
  d.server->start();
  if (d.server->shard_count() != kShards) die("server shard count mismatch");
  // Replica s lives in shard s, so run_at(s) runs on shard s's thread.
  for (std::size_t s = 0; s < kShards; ++s) {
    if (d.store->shard_of(s) != s) die("unexpected replica placement");
    d.store->run_at(s, [] { placement().pin_shard(); });
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    d.conns.push_back(
        std::make_unique<Connection>(d.server->port(), c, mix, seed, keys[c]));
  }
  on_each_connection([&](std::size_t c) { d.conns[c]->preload(); });
  seconds.push_back(seconds_since(t0));
  return d;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Args {
  const Mix* mix = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Mix& m : kMixes) {
        if (std::strcmp(m.name, value) == 0) args.mix = &m;
      }
      if (args.mix == nullptr) die("unknown --workload");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') args.seconds = 0.0;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        die("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else {
      die("unknown flag");
    }
  }
  if (argc % 2 != 1 || args.mix == nullptr || !have_seed ||
      !(args.seconds > 0.0 && args.seconds <= 600.0)) {
    die("usage: dvvbench --workload <rw-uniform|read-zipf|hot-siblings> "
        "--seed <n> --seconds <s> --trace <0|1>");
  }
  return args;
}

int run(const Args& args) {
  const Mix& mix = *args.mix;
  dvv::obs::set_metrics_enabled(false);

  std::vector<std::vector<std::string>> keys(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (std::size_t k = 0; k < mix.keys / kConnections; ++k) {
      keys[c].push_back(key_name(kConnections, c, k));
    }
  }
  std::printf("load: workload=%s seed=%llu connections=%zu window=%zu "
              "keys=%zu value_bytes=%zu seconds=%g trace=%d\n",
              mix.name, static_cast<unsigned long long>(args.seed),
              kConnections, kWindow, mix.keys, kValueBytes, args.seconds,
              args.trace ? 1 : 0);
  std::printf("stream_hash=%016llx (first %zu ops of each connection)\n",
              static_cast<unsigned long long>(stream_hash(
                  mix, kWindow, args.seed, kConnections, mix.count_ops)),
              mix.count_ops);

  // ---- set-up: server start plus preload over sockets.  This one
  // serves the run; the repeats for the median come after the checks,
  // so that they cannot disturb the measured window.
  std::vector<double> setup_seconds;
  Deployment live = set_up(mix, args.seed, keys, setup_seconds);
  kv::Store* store = live.store.get();
  server::Server* srv = live.server.get();
  std::vector<std::unique_ptr<Connection>>& conns = live.conns;
  std::printf("deployment: mechanism=%s replicas=%zu replication=%zu "
              "backend=mem transport=%s shards=%zu coordinator=W1\n",
              std::string(store->mechanism_name()).c_str(), store->servers(),
              store->preference_list(keys[0][0]).size(),
              store->transport().name(), store->shard_count());
  auto& transport = dynamic_cast<dvv::net::ThreadedTransport&>(store->transport());

  // ---- the fixed-length phase (also the warmup).
  const Clock::time_point count_t0 = Clock::now();
  on_each_connection([&](std::size_t c) { conns[c]->run_count_phase(mix.count_ops); });
  transport.quiesce();
  const kv::Footprint footprint = store->footprint();
  const double count_seconds = seconds_since(count_t0);

  // ---- the measured window.
  dvv::obs::registry().reset();
  Window window;
  window.trace = args.trace;
  window.start = Clock::now() + std::chrono::milliseconds(20);
  window.interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(args.seconds / kIntervals));
  window.deadline = window.start + window.interval * kIntervals;
  std::vector<float> hop_us;
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        placement().pin_generator();
        conns[c]->run_window(window);
      });
    }
    for (std::size_t k = 0; k < kIntervals; ++k) {
      const Clock::time_point end = window.start + window.interval * (k + 1);
      std::this_thread::sleep_until(window.start + window.interval * k);
      dvv::obs::set_metrics_enabled(window.traced(k));
      if (!window.traced(k)) {
        std::this_thread::sleep_until(end);
        continue;
      }
      // Round trip of an empty closure into each shard in turn.
      for (kv::ReplicaId r = 0; Clock::now() < end; r = (r + 1) % kShards) {
        const Clock::time_point t0 = Clock::now();
        store->run_at(r, [] {});
        hop_us.push_back(static_cast<float>(micros(Clock::now() - t0)));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    dvv::obs::set_metrics_enabled(false);
    for (std::thread& t : threads) t.join();
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // ---- checks on the live store, then the twin.
  const Clock::time_point checks_t0 = Clock::now();
  transport.quiesce();
  const dvv::obs::Registry& reg = dvv::obs::registry();
  const double msgs_sent = static_cast<double>(reg.counter_value("net.msgs_sent"));
  const double wire_bytes = static_cast<double>(reg.counter_value("net.wire_bytes_sent"));
  const double bytes_read = static_cast<double>(reg.counter_value("server.bytes_read"));
  const double bytes_written = static_cast<double>(reg.counter_value("server.bytes_written"));
  const double reads_paused = static_cast<double>(reg.counter_value("server.reads_paused"));
  const kv::DigestRepairReport aae = store->anti_entropy_digest();
  for (auto& conn : conns) conn->close();
  srv->stop();

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool broken = false;
  std::vector<std::uint64_t> ops(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    attempted += conns[c]->sent();
    failed += conns[c]->failed();
    broken = broken || conns[c]->is_broken();
    ops[c] = conns[c]->stream_ops();
  }
  // One inline twin per connection (their keys are disjoint), replayed
  // in parallel.
  std::vector<std::unique_ptr<kv::Store>> twins(kConnections);
  std::vector<std::uint64_t> twin_mismatches(kConnections, 0);
  std::vector<ReplayTimes> apply_times(kConnections);
  on_each_connection([&](std::size_t c) {
    twins[c] = open_store(dvv::net::TransportKind::kInline);
    twin_mismatches[c] =
        replay(*twins[c], mix, args.seed, c, keys[c], conns[c]->answers(),
               ops[c], mix.count_ops, args.trace ? &apply_times[c] : nullptr);
  });
  std::uint64_t answer_mismatches = 0;
  std::uint64_t state_mismatches = 0;
  ReplayTimes apply;
  for (std::size_t c = 0; c < kConnections; ++c) {
    answer_mismatches += twin_mismatches[c];
    state_mismatches += coordinator_mismatches(*store, *twins[c], keys[c]);
    twins[c].reset();
    apply.get_us.insert(apply.get_us.end(), apply_times[c].get_us.begin(),
                        apply_times[c].get_us.end());
    apply.put_us.insert(apply.put_us.end(), apply_times[c].put_us.begin(),
                        apply_times[c].put_us.end());
  }
  const std::uint64_t disagreements = preference_disagreements(*store, keys);
  failed += answer_mismatches + state_mismatches + disagreements +
            aae.stats.keys_shipped;
  const double checks_seconds = seconds_since(checks_t0);
  double setups_total = setup_seconds.front();
  while (setup_seconds.size() < kSetups ||
         (setups_total < kSetupSeconds && setup_seconds.size() < kMaxSetups)) {
    (void)set_up(mix, args.seed, keys, setup_seconds);
    setups_total += setup_seconds.back();
  }
  std::printf("phases: setups=%zu in %.2fs count=%.2fs checks=%.2fs\n",
              setup_seconds.size(), setups_total, count_seconds,
              checks_seconds);
  std::printf("checks: answers_mismatched=%llu coordinator_states_mismatched=%llu "
              "aae_keys_shipped=%zu preference_lists_disagreeing=%llu\n",
              static_cast<unsigned long long>(answer_mismatches),
              static_cast<unsigned long long>(state_mismatches),
              aae.stats.keys_shipped,
              static_cast<unsigned long long>(disagreements));

  std::uint64_t gets = 0, found = 0, sibs = 0, tok = 0, resp = 0;
  std::vector<double> interval_ops(kIntervals, 0.0);
  double traced_ops = 0.0;
  double traced_puts = 0.0;
  IntervalLatencies get_lat(kIntervals), put_lat(kIntervals);
  double send_us = 0, wait_us = 0, decode_us = 0, cpu = 0;
  std::uint64_t sends = 0, receives = 0;
  for (const auto& conn : conns) {
    gets += conn->gets;
    found += conn->found_gets;
    sibs += conn->siblings;
    tok += conn->token_bytes;
    resp += conn->get_resp_bytes;
    for (std::size_t k = 0; k < kIntervals; ++k) {
      interval_ops[k] += static_cast<double>(conn->interval_ops[k]);
      if (window.traced(k)) {
        traced_ops += static_cast<double>(conn->interval_ops[k]);
        traced_puts += static_cast<double>(conn->interval_puts[k]);
      }
    }
    get_lat.merge(conn->get_latency);
    put_lat.merge(conn->put_latency);
    send_us += conn->send_us;
    wait_us += conn->wait_us;
    decode_us += conn->decode_us;
    sends += conn->sends_traced;
    receives += conn->receives_traced;
    cpu += conn->cpu_seconds;
  }
  std::printf("causality (fixed-length phase, exact): gets=%llu found=%llu "
              "siblings=%llu token_bytes=%llu get_resp_bytes=%llu | footprint "
              "keys=%zu total_bytes=%zu metadata_bytes=%zu clock_entries=%zu\n",
              static_cast<unsigned long long>(gets),
              static_cast<unsigned long long>(found),
              static_cast<unsigned long long>(sibs),
              static_cast<unsigned long long>(tok),
              static_cast<unsigned long long>(resp), footprint.keys,
              footprint.total_bytes, footprint.metadata_bytes,
              footprint.clock_entries);
  const double error = error_rate(failed, attempted);
  std::printf("ops: attempted=%llu failed=%llu error_rate=%g\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), error);

  // Throughput per interval, kops/s, split by whether it was traced.
  const double interval_seconds = args.seconds / kIntervals;
  std::vector<double> untraced_kops;
  std::vector<double> traced_kops;
  for (std::size_t k = 0; k < kIntervals; ++k) {
    (window.traced(k) ? traced_kops : untraced_kops)
        .push_back(interval_ops[k] / interval_seconds / 1e3);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const Tail g = get_lat.tail();
    const Tail p = put_lat.tail();
    std::printf("latency samples: get=%zu put=%zu (quartiles of %zu and %zu "
                "interval percentiles); p95 get=%.1fus put=%.1fus; p99 "
                "get=%.1fus put=%.1fus\n",
                g.count, p.count, g.intervals, p.intervals, g.p95, p.p95, g.p99,
                p.p99);
    metrics = {
        {"throughput_kops", nearest_rank(untraced_kops, 1.0 - kCalmQuartile), "kops/s"},
        {"get_p50_us", g.p50, "us"},
        {"get_p90_us", g.p90, "us"},
        {"put_p50_us", p.p50, "us"},
        {"put_p90_us", p.p90, "us"},
        {"siblings_per_get", static_cast<double>(sibs) / static_cast<double>(found), "count"},
        {"token_bytes", static_cast<double>(tok) / static_cast<double>(gets), "B"},
        {"get_resp_bytes", static_cast<double>(resp) / static_cast<double>(gets), "B"},
        {"space_amp", space_amp(footprint.total_bytes, footprint.metadata_bytes), "ratio"},
        {"setup_s", median(setup_seconds), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
  } else {
    // The direct replay: the same stream on a fresh threaded store, no
    // sockets.
    ReplayTimes direct;
    {
      const std::unique_ptr<kv::Store> threaded =
          open_store(dvv::net::TransportKind::kThreaded);
      for (std::size_t c = 0; c < kConnections; ++c) {
        failed += replay(*threaded, mix, args.seed, c, keys[c],
                         conns[c]->answers(),
                         std::min<std::uint64_t>(ops[c], mix.count_ops),
                         mix.count_ops, &direct);
      }
    }
    const double untraced_tput = median(untraced_kops);
    metrics = {
        {"gen.send_us", send_us / static_cast<double>(sends), "us"},
        {"gen.wait_us", wait_us / static_cast<double>(receives), "us"},
        {"gen.decode_us", decode_us / static_cast<double>(receives), "us"},
        {"gen.busy_ratio", cpu / static_cast<double>(kConnections) / args.seconds, "ratio"},
        {"server.parse_ns", parse_ns(conns), "ns"},
        {"server.encode_ns", encode_ns(conns), "ns"},
        {"server.req_bytes", bytes_read / traced_ops, "B"},
        {"server.resp_bytes", bytes_written / traced_ops, "B"},
        {"server.reads_paused", reads_paused, "count"},
        {"net.hop_us", p50(hop_us), "us"},
        {"net.msgs_per_op", msgs_sent / traced_ops, "count"},
        {"net.wire_bytes_per_put", wire_bytes / traced_puts, "B"},
        {"kv.put_direct_us", p50(direct.put_us), "us"},
        {"kv.get_direct_us", p50(direct.get_us), "us"},
        {"kv.put_apply_us", p50(apply.put_us), "us"},
        {"kv.get_apply_us", p50(apply.get_us), "us"},
        {"kv.clock_entries_per_key",
         static_cast<double>(footprint.clock_entries) / static_cast<double>(footprint.keys),
         "count"},
        {"kv.meta_bytes_per_key",
         static_cast<double>(footprint.metadata_bytes) / static_cast<double>(footprint.keys),
         "B"},
        {"trace.overhead_pct",
         (untraced_tput - median(traced_kops)) / untraced_tput * 100.0, "%"},
    };
  }

  bool finite = true;
  for (const Metric& m : metrics) {
    std::printf("  %-26s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
    finite = finite && std::isfinite(m.value);
  }
  const bool correct = failed == 0 && !broken && finite;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = metrics[i].value;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), std::isfinite(v) ? v : 0.0, metrics[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
