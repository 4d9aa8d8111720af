// dvvd lifecycle tests: the socket server over real TCP connections.
//
// Every test talks to a live Server (ephemeral port, 4 shards, 8
// replicas) through the blocking Client — the same framing code the
// bench driver uses — or through send_raw() for hostile bytes.  The
// suite covers the connection-lifecycle edges the event loop must
// survive:
//
//   * frames split across arbitrarily many reads;
//   * a client disconnecting mid-request (torn frame, then EOF);
//   * oversized / zero length claims rejected before any allocation,
//     with the connection closed and OTHER connections unaffected;
//   * payload-level rejects (bad opcode, trailing junk, bad token)
//     answered with an error response on a stream that continues;
//   * pipelined FIFO response ordering with request-id echo;
//   * a slow reader pausing only itself, past the pause threshold too;
//   * the steady-state syscall budget: no more writes than responses,
//     no epoll interest change for a reader that keeps up.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kv/store.hpp"
#include "obs/obs.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace dvv {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kv::StoreConfig config;
    config.servers = 8;
    config.transport.kind = net::TransportKind::kThreaded;
    config.transport.threaded.shards = 4;
    store_ = kv::make_store("dvv", config);
    ASSERT_NE(store_, nullptr);
    server_ = std::make_unique<server::Server>(*store_, server::ServerConfig{});
    server_->start();
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }

  std::unique_ptr<kv::Store> store_;
  std::unique_ptr<server::Server> server_;
};

std::string framed_get(std::uint64_t request_id, std::string_view key) {
  std::string payload;
  server::encode_get_request(payload, request_id, key);
  std::string out;
  server::append_frame(out, payload);
  return out;
}

std::string framed_put(std::uint64_t request_id, std::string_view key,
                       std::string_view token, std::string_view value,
                       std::uint64_t client_id) {
  std::string payload;
  server::encode_put_request(payload, request_id, key, token, value, client_id);
  std::string out;
  server::append_frame(out, payload);
  return out;
}

TEST_F(ServerTest, GetPutTokenRoundTrip) {
  server::Client client(port());
  server::Response resp;

  // Blind put, then read back.
  ASSERT_TRUE(client.put("alpha", /*token=*/"", "v1", /*client_id=*/1, resp));
  EXPECT_EQ(resp.status, server::ResponseStatus::kOk);
  EXPECT_GE(resp.replicated_to, 1u);

  ASSERT_TRUE(client.get("alpha", resp));
  ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
  EXPECT_TRUE(resp.found);
  ASSERT_EQ(resp.values.size(), 1u);
  EXPECT_EQ(resp.values[0], "v1");
  ASSERT_FALSE(resp.token_bytes.empty());

  // Token round-trip: the returned context supersedes v1, so the next
  // read sees exactly the new value — the paper's client contract.
  const std::string token = resp.token_bytes;
  ASSERT_TRUE(client.put("alpha", token, "v2", 1, resp));
  EXPECT_EQ(resp.status, server::ResponseStatus::kOk);
  ASSERT_TRUE(client.get("alpha", resp));
  ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
  ASSERT_EQ(resp.values.size(), 1u);
  EXPECT_EQ(resp.values[0], "v2");
}

TEST_F(ServerTest, MissingKeyIsNotFound) {
  server::Client client(port());
  server::Response resp;
  ASSERT_TRUE(client.get("never-written", resp));
  ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
  EXPECT_FALSE(resp.found);
  EXPECT_TRUE(resp.values.empty());
}

TEST_F(ServerTest, BlindConcurrentWritesSurfaceAsSiblings) {
  server::Client client(port());
  server::Response resp;
  ASSERT_TRUE(client.put("clash", "", "from-a", 1, resp));
  ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
  ASSERT_TRUE(client.put("clash", "", "from-b", 2, resp));
  ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
  ASSERT_TRUE(client.get("clash", resp));
  ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
  // Two blind writes are concurrent: dvv keeps both as siblings.
  EXPECT_EQ(resp.values.size(), 2u);
}

TEST_F(ServerTest, FrameSplitAcrossManyReadsStillParses) {
  server::Client client(port());
  const std::string bytes = framed_put(7, "split-key", "", "split-value", 3);
  // One byte per write(): the decoder must reassemble across reads.
  for (char c : bytes) {
    client.send_raw(std::string_view(&c, 1));
  }
  server::Response resp;
  ASSERT_TRUE(client.read_response(/*is_get=*/false, resp));
  EXPECT_EQ(resp.status, server::ResponseStatus::kOk);
  EXPECT_EQ(resp.request_id, 7u);

  server::Response check;
  ASSERT_TRUE(client.get("split-key", check));
  ASSERT_EQ(check.values.size(), 1u);
  EXPECT_EQ(check.values[0], "split-value");
}

TEST_F(ServerTest, DisconnectMidRequestLeavesServerServing) {
  {
    server::Client torn(port());
    const std::string bytes = framed_put(1, "torn-key", "", "torn-value", 9);
    // Half a frame, then EOF: the server must discard the torn request
    // silently and reap the connection.
    torn.send_raw(std::string_view(bytes.data(), bytes.size() / 2));
    torn.shutdown_write();
    std::string payload;
    EXPECT_FALSE(torn.read_frame(payload));  // no response, clean close
  }
  // The shard that held the torn connection still serves new clients.
  server::Client client(port());
  server::Response resp;
  ASSERT_TRUE(client.put("after-torn", "", "ok", 1, resp));
  EXPECT_EQ(resp.status, server::ResponseStatus::kOk);
  // The torn half-frame was never executed.
  ASSERT_TRUE(client.get("torn-key", resp));
  EXPECT_FALSE(resp.found);
}

TEST_F(ServerTest, OversizedLengthClaimClosesConnectionOnly) {
  server::Client hostile(port());
  // A forged 16 MiB claim: must poison the stream (connection closed)
  // without the server buffering anything near the claim.
  const std::uint32_t claim = 16u << 20;
  std::string header;
  header.push_back(static_cast<char>(claim & 0xff));
  header.push_back(static_cast<char>((claim >> 8) & 0xff));
  header.push_back(static_cast<char>((claim >> 16) & 0xff));
  header.push_back(static_cast<char>((claim >> 24) & 0xff));
  header += "some bytes that never amount to the claim";
  hostile.send_raw(header);
  std::string payload;
  EXPECT_FALSE(hostile.read_frame(payload));  // server closed it

  // Other (and new) connections are untouched.
  server::Client client(port());
  server::Response resp;
  ASSERT_TRUE(client.put("after-oversize", "", "ok", 1, resp));
  EXPECT_EQ(resp.status, server::ResponseStatus::kOk);
}

TEST_F(ServerTest, ZeroLengthFrameClosesConnection) {
  server::Client hostile(port());
  hostile.send_raw(std::string(4, '\0'));  // length claim 0: malformed
  std::string payload;
  EXPECT_FALSE(hostile.read_frame(payload));

  server::Client client(port());
  server::Response resp;
  ASSERT_TRUE(client.get("anything", resp));
  EXPECT_EQ(resp.status, server::ResponseStatus::kOk);
}

TEST_F(ServerTest, BadOpcodeEarnsErrorAndStreamContinues) {
  server::Client client(port());
  std::string payload;
  server::append_varint(payload, 99);  // unknown opcode
  server::append_varint(payload, 42);  // request id
  std::string frame;
  server::append_frame(frame, payload);
  client.send_raw(frame);

  server::Response resp;
  ASSERT_TRUE(client.read_response(/*is_get=*/false, resp));
  EXPECT_EQ(resp.status, server::ResponseStatus::kBadRequest);

  // Same connection keeps working: payload rejects are not poison.
  ASSERT_TRUE(client.put("after-bad-opcode", "", "ok", 1, resp));
  EXPECT_EQ(resp.status, server::ResponseStatus::kOk);
}

TEST_F(ServerTest, TrailingBytesEarnErrorAndStreamContinues) {
  server::Client client(port());
  std::string payload;
  server::encode_get_request(payload, 5, "key");
  payload += "junk";  // bytes after the last field: strict reject
  std::string frame;
  server::append_frame(frame, payload);
  client.send_raw(frame);

  server::Response resp;
  ASSERT_TRUE(client.read_response(/*is_get=*/true, resp));
  EXPECT_EQ(resp.status, server::ResponseStatus::kBadRequest);
  EXPECT_EQ(resp.request_id, 5u);

  ASSERT_TRUE(client.get("key", resp));
  EXPECT_EQ(resp.status, server::ResponseStatus::kOk);
}

TEST_F(ServerTest, BadTokenPutEarnsBadTokenAndStreamContinues) {
  server::Client client(port());
  server::Response resp;
  // Structurally a fine PUT; the token bytes fail the store's strict
  // token decode — kBadToken, state untouched, stream continues.
  ASSERT_TRUE(client.put("tok-key", "not a real token", "v", 1, resp));
  EXPECT_EQ(resp.status, server::ResponseStatus::kBadToken);

  ASSERT_TRUE(client.get("tok-key", resp));
  ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
  EXPECT_FALSE(resp.found);  // the rejected put wrote nothing

  ASSERT_TRUE(client.put("tok-key", "", "v", 1, resp));
  EXPECT_EQ(resp.status, server::ResponseStatus::kOk);
}

TEST_F(ServerTest, PipelinedResponsesAreFifoWithIdEcho) {
  server::Client client(port());
  // Scatter keys across coordinators so cross-shard forwarding is in
  // play, then require strict FIFO release with id echo.
  constexpr std::uint64_t kCount = 64;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    client.send_put(/*request_id=*/1000 + i,
                    "pipe-" + std::to_string(i % 13), "",
                    "v" + std::to_string(i), /*client_id=*/i % 3);
  }
  for (std::uint64_t i = 0; i < kCount; ++i) {
    server::Response resp;
    ASSERT_TRUE(client.read_response(/*is_get=*/false, resp)) << i;
    EXPECT_EQ(resp.request_id, 1000 + i) << "response order broke at " << i;
    EXPECT_EQ(resp.status, server::ResponseStatus::kOk);
  }
}

TEST_F(ServerTest, ManyKeysCrossShardRoundTrips) {
  server::Client client(port());
  server::Response resp;
  // Enough distinct keys that every shard coordinates some of them.
  for (int i = 0; i < 40; ++i) {
    const std::string key = "fan-" + std::to_string(i);
    ASSERT_TRUE(client.put(key, "", "val-" + std::to_string(i), 1, resp));
    ASSERT_EQ(resp.status, server::ResponseStatus::kOk) << key;
  }
  for (int i = 0; i < 40; ++i) {
    const std::string key = "fan-" + std::to_string(i);
    ASSERT_TRUE(client.get(key, resp));
    ASSERT_EQ(resp.status, server::ResponseStatus::kOk) << key;
    ASSERT_EQ(resp.values.size(), 1u) << key;
    EXPECT_EQ(resp.values[0], "val-" + std::to_string(i));
  }
}

TEST_F(ServerTest, SlowReaderDoesNotStallOtherConnections) {
  // A connection that pipelines requests but never reads responses
  // accumulates outbuf server-side; other connections on the same
  // shards must keep round-tripping.
  server::Client slow(port());
  constexpr std::uint64_t kBacklog = 256;
  for (std::uint64_t i = 0; i < kBacklog; ++i) {
    slow.send_put(i, "slow-" + std::to_string(i % 7), "", "x", 1);
  }
  // Interleave: several fast clients complete full round trips while
  // the slow reader's responses sit unread.
  for (int c = 0; c < 4; ++c) {
    server::Client fast(port());
    server::Response resp;
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(fast.put("fast-" + std::to_string(c), "", "y", 2, resp));
      ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
      ASSERT_TRUE(fast.get("fast-" + std::to_string(c), resp));
      ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
    }
  }
  // The slow reader's responses were all preserved, in order.
  for (std::uint64_t i = 0; i < kBacklog; ++i) {
    server::Response resp;
    ASSERT_TRUE(slow.read_response(/*is_get=*/false, resp)) << i;
    EXPECT_EQ(resp.request_id, i);
  }
}

#if !defined(DVV_OBS_DISABLED)
/// Turns the global metrics registry on for one test and restores it.
struct MetricsOn {
  bool was_enabled = obs::registry().enabled();
  MetricsOn() { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(was_enabled); }
  MetricsOn(const MetricsOn&) = delete;
  MetricsOn& operator=(const MetricsOn&) = delete;
};

std::uint64_t counter(const char* name) {
  return obs::registry().counter_value(name);
}
#endif

TEST(ServerFlowControlTest, PausedReaderResumesAndGetsEveryResponseInOrder) {
#if defined(DVV_OBS_DISABLED)
  GTEST_SKIP() << "the pause is observed through server.reads_paused";
#else
  const MetricsOn metrics;
  kv::StoreConfig config;
  config.servers = 8;
  config.transport.kind = net::TransportKind::kThreaded;
  config.transport.threaded.shards = 4;
  auto store = kv::make_store("dvv", config);
  ASSERT_NE(store, nullptr);
  server::ServerConfig server_config;
  server_config.outbuf_pause_bytes = 4u << 10;
  server_config.outbuf_resume_bytes = 1u << 10;
  server::Server srv(*store, server_config);
  srv.start();

  const std::string big(256u << 10, 'b');
  server::Response resp;
  {
    server::Client writer(srv.port());
    ASSERT_TRUE(writer.put("big", "", big, 1, resp));
    ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
  }
  // Wave 1: 12 MiB of responses the slow client does not read — more
  // than the kernel's socket buffers hold, so the server's outbuf
  // passes the 4 KiB pause threshold and its reads of this
  // connection stop.
  const std::uint64_t paused_before = counter("server.reads_paused");
  server::Client slow(srv.port());
  constexpr std::uint64_t kWave = 48;
  for (std::uint64_t i = 0; i < kWave; ++i) slow.send_get(i, "big");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (counter("server.reads_paused") == paused_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(counter("server.reads_paused"), paused_before);
  // Wave 2 sits unread in the kernel while the connection is paused.
  for (std::uint64_t i = kWave; i < 2 * kWave; ++i) slow.send_get(i, "big");

  // Every other connection keeps round-tripping meanwhile.
  for (int c = 0; c < 4; ++c) {
    server::Client fast(srv.port());
    const std::string key = "fast-" + std::to_string(c);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(fast.put(key, "", "y", 2, resp));
      ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
      ASSERT_TRUE(fast.get(key, resp));
      ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
    }
  }
  // Draining resumes the reads: both waves arrive, complete and in
  // request order.
  for (std::uint64_t i = 0; i < 2 * kWave; ++i) {
    ASSERT_TRUE(slow.read_response(/*is_get=*/true, resp)) << i;
    ASSERT_EQ(resp.request_id, i);
    ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
    ASSERT_EQ(resp.values.size(), 1u);
    ASSERT_EQ(resp.values[0], big) << i;
  }
  srv.stop();
#endif
}

TEST_F(ServerTest, RoundTripsNeedNoInterestChangeAndOneWriteEach) {
#if defined(DVV_OBS_DISABLED)
  GTEST_SKIP() << "syscalls are counted by server.* metrics";
#else
  const MetricsOn metrics;
  server::Client client(port());
  const std::uint64_t interest_before = counter("server.interest_updates");
  const std::uint64_t writes_before = counter("server.write_calls");
  const std::uint64_t reads_before = counter("server.read_calls");
  const std::uint64_t responses_before = counter("server.responses_sent");
  server::Response resp;
  for (int i = 0; i < 50; ++i) {
    // Scattered keys: both inline and cross-shard completions.
    const std::string key = "rt-" + std::to_string(i % 10);
    ASSERT_TRUE(client.put(key, "", "v", 1, resp));
    ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
    ASSERT_TRUE(client.get(key, resp));
    ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
  }
  const std::uint64_t responses = counter("server.responses_sent") - responses_before;
  EXPECT_EQ(responses, 100u);
  EXPECT_EQ(counter("server.interest_updates"), interest_before);
  EXPECT_LE(counter("server.write_calls") - writes_before, responses);
  // One read() per request: a short read ends the readable event
  // instead of a second read() that only returns EAGAIN.
  EXPECT_LE(counter("server.read_calls") - reads_before, responses + 1);
#endif
}

TEST_F(ServerTest, ManyConcurrentClientConnections) {
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      server::Client client(port());
      server::Response resp;
      for (int i = 0; i < 16; ++i) {
        const std::string key = "conc-" + std::to_string(c);
        if (!client.put(key, "", "v" + std::to_string(i),
                        static_cast<std::uint64_t>(c), resp) ||
            resp.status != server::ResponseStatus::kOk) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        if (!client.get(key, resp) ||
            resp.status != server::ResponseStatus::kOk || !resp.found) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServerAdminTest, JoinLeaveRingInfoOverSocket) {
  // A store with headroom: 4 seed members over 8 provisioned replicas.
  kv::StoreConfig config;
  config.servers = 4;
  config.capacity = 8;
  config.transport.kind = net::TransportKind::kThreaded;
  config.transport.threaded.shards = 2;
  auto store = kv::make_store("dvv", config);
  ASSERT_NE(store, nullptr);
  server::Server srv(*store, server::ServerConfig{});
  srv.start();

  server::Client client(srv.port());
  server::Response resp;
  ASSERT_TRUE(client.ring_info(resp));
  ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
  EXPECT_EQ(resp.epoch, 0u);
  EXPECT_EQ(resp.members, (std::vector<std::uint64_t>{0, 1, 2, 3}));

  // Seed data, then grow the ring while the connection stays live.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(client.put("adm-" + std::to_string(i), "", "v", 1, resp));
    ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
  }
  ASSERT_TRUE(client.join(4, resp));
  ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
  EXPECT_EQ(resp.epoch, 1u);

  // Admin preconditions surface as kBadRequest, never an abort: joining
  // a member, leaving a non-member, naming a slot beyond capacity.
  ASSERT_TRUE(client.join(4, resp));
  EXPECT_EQ(resp.status, server::ResponseStatus::kBadRequest);
  ASSERT_TRUE(client.leave(7, resp));
  EXPECT_EQ(resp.status, server::ResponseStatus::kBadRequest);
  ASSERT_TRUE(client.join(99, resp));
  EXPECT_EQ(resp.status, server::ResponseStatus::kBadRequest);

  ASSERT_TRUE(client.leave(0, resp));
  ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
  EXPECT_EQ(resp.epoch, 2u);
  ASSERT_TRUE(client.ring_info(resp));
  EXPECT_EQ(resp.epoch, 2u);
  EXPECT_EQ(resp.members, (std::vector<std::uint64_t>{1, 2, 3, 4}));

  // Every pre-churn write is still served under the new ring — the
  // join/leave responses arrived only after the rebalance completed.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(client.get("adm-" + std::to_string(i), resp));
    ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
    EXPECT_TRUE(resp.found) << i;
  }
  srv.stop();
}

TEST_F(ServerTest, StopWhileClientsConnectedShutsDownCleanly) {
  server::Client a(port());
  server::Client b(port());
  server::Response resp;
  ASSERT_TRUE(a.put("pre-stop", "", "v", 1, resp));
  ASSERT_EQ(resp.status, server::ResponseStatus::kOk);
  // Leave b idle and a with buffered kernel bytes; stop() must close
  // both and quiesce without deadlock.
  b.send_raw(framed_get(1, "pre-stop"));
  server_->stop();
  std::string payload;
  EXPECT_FALSE(a.read_frame(payload));
}

}  // namespace
}  // namespace dvv
