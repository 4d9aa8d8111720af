// dvv/server/server.cpp
//
// See server.hpp for the thread model.  Everything in this file runs on
// a shard's event-loop thread except start()/stop(), which are
// control-plane (single caller, before/after the loops live).
#include "server/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace dvv::server {

namespace {

// epoll user-data tags for the two non-connection fds; connection ids
// start at 1 and never collide.
constexpr std::uint64_t kWakeId = ~std::uint64_t{0};
constexpr std::uint64_t kListenId = ~std::uint64_t{0} - 1;

void write_wake(int fd) {
  const std::uint64_t one = 1;
  // EAGAIN means the counter is saturated — the loop is already awake.
  [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
}

void drain_wake(int fd) {
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t n = ::read(fd, &count, sizeof(count));
}

}  // namespace

Server::Server(kv::Store& store, ServerConfig config)
    : store_(store), config_(config) {}

Server::~Server() { stop(); }

void Server::start() {
  DVV_ASSERT_MSG(!started_, "server: start() is not re-entrant");
  transport_ = dynamic_cast<net::ThreadedTransport*>(&store_.transport());
  DVV_ASSERT_MSG(transport_ != nullptr,
                 "server: the store must run on a ThreadedTransport "
                 "(StoreConfig.transport.kind = kThreaded)");
  const std::size_t shards = transport_->shards();

  loops_.clear();
  for (std::size_t s = 0; s < shards; ++s) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    DVV_ASSERT_MSG(loop->epoll_fd >= 0, "server: epoll_create1 failed");
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    DVV_ASSERT_MSG(loop->wake_fd >= 0, "server: eventfd failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeId;
    DVV_ASSERT(::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev) ==
               0);
    // The transport calls this when an enqueue finds the inbox empty,
    // possibly from another shard's thread or a client thread — an
    // eventfd write is async-safe to the loop.  run_loop drains the
    // eventfd before it pumps, as the edge-triggered wake requires.
    // Must be installed before the store carries any traffic.
    transport_->set_wake_hook(s, [fd = loop->wake_fd] { write_wake(fd); });
    loops_.push_back(std::move(loop));
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  DVV_ASSERT_MSG(listen_fd_ >= 0, "server: socket() failed");
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  DVV_ASSERT_MSG(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "server: bind failed");
  DVV_ASSERT(::listen(listen_fd_, config_.backlog) == 0);
  socklen_t len = sizeof(addr);
  DVV_ASSERT(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                           &len) == 0);
  port_ = ntohs(addr.sin_port);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  DVV_ASSERT(::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) ==
             0);

  stopping_.store(false, std::memory_order_release);
  halt_.store(false, std::memory_order_release);
  for (std::size_t s = 0; s < shards; ++s) {
    loops_[s]->thread = std::thread([this, s] { run_loop(s); });
  }
  admin_halt_ = false;
  admin_thread_ = std::thread([this] { run_admin(); });
  started_ = true;
}

void Server::stop() {
  if (!started_) return;
  // Phase 0: retire the admin thread while the shard loops are still
  // pumping — a job mid-flight may be blocked in a stop-the-world
  // section that needs the loops to run its parker closures.  Queued
  // jobs it never reached are dropped; their connections are about to
  // close anyway.
  {
    std::lock_guard<std::mutex> lock(admin_mu_);
    admin_halt_ = true;
  }
  admin_cv_.notify_all();
  if (admin_thread_.joinable()) admin_thread_.join();
  // Phase 1: stop accepting and drop every connection (the loops do it
  // on wake), then drain the transport to quiescence — the loops keep
  // pumping their shards while we block here, so every in-flight
  // replication message and cross-shard closure completes.
  stopping_.store(true, std::memory_order_release);
  for (const auto& loop : loops_) write_wake(loop->wake_fd);
  transport_->quiesce();
  // Phase 2: nothing can be in flight any more (no connections, no
  // queued work); release the loops and join.
  halt_.store(true, std::memory_order_release);
  for (const auto& loop : loops_) write_wake(loop->wake_fd);
  for (const auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  for (const auto& loop : loops_) {
    ::close(loop->wake_fd);
    ::close(loop->epoll_fd);
  }
  loops_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  started_ = false;
}

void Server::run_loop(std::size_t shard) {
  Loop& loop = *loops_[shard];
  epoll_event events[64];
  bool closed_for_stop = false;
  while (!halt_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(loop.epoll_fd, events, 64, -1);
    if (n < 0) {
      DVV_ASSERT_MSG(errno == EINTR, "server: epoll_wait failed");
      continue;
    }
    if (stopping_.load(std::memory_order_acquire) && !closed_for_stop) {
      closed_for_stop = true;
      if (shard == 0 && listen_fd_ >= 0) {
        (void)::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
      }
      while (!loop.conns.empty()) {
        close_connection(shard, loop.conns.begin()->first);
      }
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kWakeId) {
        drain_wake(loop.wake_fd);
        (void)transport_->pump_shard(shard);
        continue;
      }
      if (id == kListenId) {
        if (!closed_for_stop) handle_accept(shard);
        continue;
      }
      auto it = loop.conns.find(id);
      if (it == loop.conns.end()) continue;  // closed earlier this batch
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_connection(shard, id);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) mark_dirty(loop, it->second);
      if ((events[i].events & EPOLLIN) != 0) handle_readable(shard, id);
    }
    flush_dirty(shard);
  }
}

void Server::handle_accept(std::size_t shard) {
  obs::ServerMetrics& met = obs::server_metrics();
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error: nothing to adopt
    }
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    met.connections_accepted.inc();
    // Round-robin shard assignment; a non-local target adopts the fd in
    // its own serial domain via a posted closure.
    const std::size_t target =
        next_conn_shard_.fetch_add(1, std::memory_order_relaxed) %
        loops_.size();
    if (target == shard) {
      adopt_connection(shard, fd);
    } else {
      transport_->post(target,
                       [this, target, fd] { adopt_connection(target, fd); });
    }
  }
}

void Server::adopt_connection(std::size_t shard, int fd) {
  if (stopping_.load(std::memory_order_acquire)) {
    ::close(fd);
    return;
  }
  Loop& loop = *loops_[shard];
  const std::uint64_t id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  Connection& conn = loop.conns[id];
  conn.fd = fd;
  conn.id = id;
  conn.events = EPOLLIN;
  epoll_event ev{};
  ev.events = conn.events;
  ev.data.u64 = id;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    loop.conns.erase(id);
    ::close(fd);
  }
}

void Server::close_connection(std::size_t shard, std::uint64_t conn_id) {
  Loop& loop = *loops_[shard];
  auto it = loop.conns.find(conn_id);
  if (it == loop.conns.end()) return;
  (void)::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  loop.conns.erase(it);
  obs::server_metrics().connections_closed.inc();
}

void Server::handle_readable(std::size_t shard, std::uint64_t conn_id) {
  Loop& loop = *loops_[shard];
  obs::ServerMetrics& met = obs::server_metrics();
  char buf[65536];
  while (true) {
    auto it = loop.conns.find(conn_id);
    if (it == loop.conns.end()) return;
    Connection& conn = it->second;
    if (conn.reads_paused) return;  // flow control kicked in mid-batch
    met.read_calls.inc();
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n == 0) {
      close_connection(shard, conn_id);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_connection(shard, conn_id);
      return;
    }
    met.bytes_read.inc(static_cast<std::uint64_t>(n));
    conn.decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    std::string payload;
    while (conn.decoder.next(payload)) {
      handle_frame(shard, conn, std::move(payload));
      if (conn.broken) {
        close_connection(shard, conn_id);
        return;
      }
    }
    if (conn.decoder.poisoned()) {
      // Frame-level malformation: byte alignment is gone, the stream
      // cannot continue.  (An oversized length claim lands here BEFORE
      // any payload allocation — FrameDecoder never buffers the claim.)
      met.decode_reject.inc();
      met.reject_oversized_frame.inc();
      close_connection(shard, conn_id);
      return;
    }
    // Answer this read's requests before the next read, not at the end
    // of the turn: a pipelining client refills its window from these
    // answers while we go on reading, instead of idling until the
    // socket runs dry.
    if (conn.dirty) {
      flush(conn);
      if (conn.broken) {
        close_connection(shard, conn_id);
        return;
      }
    }
    // A short read drained the socket: another read() would only see
    // EAGAIN.  The connection's EPOLLIN is level-triggered, so bytes
    // that arrive later (and EOF) wake the loop again.
    if (static_cast<std::size_t>(n) < sizeof(buf)) return;
  }
}

void Server::handle_frame(std::size_t shard, Connection& conn,
                          std::string payload) {
  obs::ServerMetrics& met = obs::server_metrics();
  const std::uint64_t seq = conn.next_arrival_seq++;
  Request req;
  const RejectReason reject = parse_request(payload, req);
  if (reject != RejectReason::kNone) {
    // Payload-level malformation: answer with an error response (echo
    // the request id when the parse got that far; 0 otherwise) and keep
    // the stream — the next frame boundary is intact.
    met.decode_reject.inc();
    switch (reject) {
      case RejectReason::kBadOpcode: met.reject_bad_opcode.inc(); break;
      case RejectReason::kTrailingBytes: met.reject_trailing_bytes.inc(); break;
      default: met.reject_bad_fields.inc(); break;
    }
    std::string resp;
    encode_error_response(resp, ResponseStatus::kBadRequest, req.request_id);
    complete(shard, conn.id, seq, std::move(resp));
    return;
  }
  if (req.opcode != Opcode::kGet && req.opcode != Opcode::kPut) {
    // Admin plane: park the job for the admin thread — a membership
    // transition stops the world, which this shard thread cannot do to
    // itself.  The reorder buffer keeps the connection's FIFO contract
    // while the job is in flight.
    {
      std::lock_guard<std::mutex> lock(admin_mu_);
      admin_jobs_.push_back(AdminJob{shard, conn.id, seq, std::move(req)});
    }
    admin_cv_.notify_one();
    return;
  }
  const std::optional<kv::ReplicaId> coord = store_.default_coordinator(req.key);
  if (!coord.has_value()) {
    std::string resp;
    encode_error_response(resp, ResponseStatus::kUnavailable, req.request_id);
    complete(shard, conn.id, seq, std::move(resp));
    return;
  }
  const std::size_t owner = store_.shard_of(*coord);
  if (owner == shard) {
    std::string resp;
    execute(req, resp);
    complete(shard, conn.id, seq, std::move(resp));
    return;
  }
  // Cross-shard: run the operation in the coordinator's serial domain,
  // then post the encoded response back to this connection's shard.
  // Both hops are non-blocking posts — a shard thread never waits on
  // another shard.  The connection travels as its id, not a pointer:
  // it may be gone by the time the response returns (complete drops).
  const std::uint64_t conn_id = conn.id;
  transport_->post(owner, [this, shard, conn_id, seq, req = std::move(req)] {
    std::string resp;
    execute(req, resp);
    transport_->post(shard,
                     [this, shard, conn_id, seq, resp = std::move(resp)] {
                       complete(shard, conn_id, seq, std::move(resp));
                     });
  });
}

void Server::execute(const Request& req, std::string& out) {
  obs::ServerMetrics& met = obs::server_metrics();
  if (req.opcode == Opcode::kGet) {
    met.requests_get.inc();
    const kv::StoreGetResult r = store_.get(req.key);
    if (r.status == kv::StoreStatus::kOk) {
      encode_get_response(out, req.request_id, r.found, r.values, r.token);
    } else {
      encode_error_response(out, ResponseStatus::kUnavailable, req.request_id);
    }
    return;
  }
  met.requests_put.inc();
  const kv::CausalToken token = kv::CausalToken::from_bytes(req.token_bytes);
  kv::WriteOptions opts;
  opts.write_quorum = 1;
  const kv::StorePutResult r =
      store_.put(req.key, kv::client_actor(req.client_id), token, req.value, opts);
  switch (r.status) {
    case kv::StoreStatus::kOk:
      encode_put_response(out, req.request_id, r.receipt.replicated_to);
      break;
    case kv::StoreStatus::kBadToken:
      met.decode_reject.inc();
      met.reject_bad_token.inc();
      encode_error_response(out, ResponseStatus::kBadToken, req.request_id);
      break;
    case kv::StoreStatus::kUnavailable:
      encode_error_response(out, ResponseStatus::kUnavailable, req.request_id);
      break;
  }
}

void Server::run_admin() {
  while (true) {
    AdminJob job;
    {
      std::unique_lock<std::mutex> lock(admin_mu_);
      admin_cv_.wait(lock, [this] { return admin_halt_ || !admin_jobs_.empty(); });
      if (admin_halt_) return;
      job = std::move(admin_jobs_.front());
      admin_jobs_.pop_front();
    }
    std::string resp;
    execute_admin(job.req, resp);
    const std::size_t shard = job.shard;
    const std::uint64_t conn_id = job.conn_id;
    const std::uint64_t seq = job.seq;
    transport_->post(shard, [this, shard, conn_id, seq,
                             resp = std::move(resp)]() mutable {
      complete(shard, conn_id, seq, std::move(resp));
    });
  }
}

void Server::execute_admin(const Request& req, std::string& out) {
  obs::server_metrics().requests_admin.inc();
  switch (req.opcode) {
    case Opcode::kJoin:
    case Opcode::kLeave: {
      const auto node = static_cast<kv::ReplicaId>(req.node);
      const bool ok = req.opcode == Opcode::kJoin ? store_.join_node(node)
                                                  : store_.leave_node(node);
      if (!ok) {
        encode_error_response(out, ResponseStatus::kBadRequest, req.request_id);
        return;
      }
      // Drive the transfers to completion before answering: the epoch
      // in the response is fully owned, not merely announced.  The
      // drain runs at one stop-the-world point (Store::
      // complete_rebalance) — client traffic resumes once the ring has
      // fully flipped.
      (void)store_.complete_rebalance();
      encode_member_change_response(out, req.request_id, store_.ring_epoch());
      return;
    }
    case Opcode::kRingInfo:
      encode_ring_info_response(out, req.request_id, store_.ring_epoch(),
                                store_.members());
      return;
    default:
      encode_error_response(out, ResponseStatus::kBadRequest, req.request_id);
      return;
  }
}

void Server::complete(std::size_t shard, std::uint64_t conn_id,
                      std::uint64_t seq, std::string payload) {
  Loop& loop = *loops_[shard];
  auto it = loop.conns.find(conn_id);
  if (it == loop.conns.end()) return;  // client went away mid-request
  Connection& conn = it->second;
  conn.done.emplace(seq, std::move(payload));
  release_ready(shard, conn);
}

void Server::release_ready(std::size_t shard, Connection& conn) {
  obs::ServerMetrics& met = obs::server_metrics();
  // Release responses in request order: the reorder buffer absorbs
  // cross-shard completion skew so pipelined clients see FIFO.
  bool released = false;
  while (!conn.done.empty() && conn.done.begin()->first == conn.next_send_seq) {
    append_frame(conn.outbuf, conn.done.begin()->second);
    conn.done.erase(conn.done.begin());
    ++conn.next_send_seq;
    met.responses_sent.inc();
    released = true;
  }
  if (!released) return;
  mark_dirty(*loops_[shard], conn);
  // The write waits for the batch (see server.hpp), unless the backlog
  // already passed the pause threshold: then flush now, so flow
  // control pauses this connection's reads before the read loop parses
  // another of its requests.
  if (!conn.broken &&
      conn.outbuf.size() - conn.out_pos > config_.outbuf_pause_bytes) {
    flush(conn);
  }
}

void Server::mark_dirty(Loop& loop, Connection& conn) {
  if (conn.dirty) return;
  conn.dirty = true;
  loop.dirty.push_back(conn.id);
}

void Server::flush_dirty(std::size_t shard) {
  Loop& loop = *loops_[shard];
  for (const std::uint64_t id : loop.dirty) {
    auto it = loop.conns.find(id);
    if (it == loop.conns.end()) continue;  // closed since it was marked
    Connection& conn = it->second;
    conn.dirty = false;
    if (!conn.broken) flush(conn);
    if (conn.broken) {
      close_connection(shard, id);
      continue;
    }
    update_interest(shard, conn);
  }
  loop.dirty.clear();
}

void Server::flush(Connection& conn) {
  obs::ServerMetrics& met = obs::server_metrics();
  while (conn.out_pos < conn.outbuf.size()) {
    met.write_calls.inc();
    const ssize_t n = ::write(conn.fd, conn.outbuf.data() + conn.out_pos,
                              conn.outbuf.size() - conn.out_pos);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn.broken = true;  // closed at the next safe point
      return;
    }
    met.bytes_written.inc(static_cast<std::uint64_t>(n));
    conn.out_pos += static_cast<std::size_t>(n);
  }
  if (conn.out_pos == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_pos = 0;
  } else if (conn.out_pos >= conn.outbuf.size() / 2) {
    conn.outbuf.erase(0, conn.out_pos);
    conn.out_pos = 0;
  }
  const std::size_t pending = conn.outbuf.size() - conn.out_pos;
  if (!conn.reads_paused && pending > config_.outbuf_pause_bytes) {
    // Slow reader: stop reading THIS connection until the kernel drains
    // its outbuf.  Everything else on the shard keeps being served.
    conn.reads_paused = true;
    met.reads_paused.inc();
  } else if (conn.reads_paused && pending < config_.outbuf_resume_bytes) {
    conn.reads_paused = false;
  }
}

void Server::update_interest(std::size_t shard, Connection& conn) {
  const std::uint32_t events =
      (conn.reads_paused ? 0U : static_cast<std::uint32_t>(EPOLLIN)) |
      (conn.out_pos < conn.outbuf.size() ? static_cast<std::uint32_t>(EPOLLOUT)
                                         : 0U);
  if (events == conn.events) return;  // the steady state: no syscall
  conn.events = events;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = conn.id;
  (void)::epoll_ctl(loops_[shard]->epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  obs::server_metrics().interest_updates.inc();
}

}  // namespace dvv::server
