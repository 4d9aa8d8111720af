// dvv/net/threaded_transport.cpp
//
// See the header for the sharding, quiescence and drive-mode contracts.
// Threading rules enforced here:
//
//   * a frame is serialized on the SENDING thread into a plain owned
//     string — pooled buffers are thread_local and must never cross;
//   * per-shard stats blocks are written either under the shard's inbox
//     mutex (send-side fields) or by the owning shard thread
//     (delivery-side fields) — distinct fields, no overlap;
//   * the in-flight count is incremented before enqueue and decremented
//     (release) after the sink returns, so a zero read (acquire) means
//     every delivery effect is visible to the quiescent observer.
#include "net/threaded_transport.hpp"

#include <optional>
#include <utility>
#include <variant>

#include "codec/wire.hpp"
#include "util/assert.hpp"

namespace dvv::net {

ThreadedTransport::ThreadedTransport(ThreadedTransportConfig config) {
  DVV_ASSERT_MSG(config.shards >= 1, "net: threaded transport needs >= 1 shard");
  shards_.reserve(config.shards);
  for (std::size_t i = 0; i < config.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ThreadedTransport::~ThreadedTransport() { stop(); }

bool ThreadedTransport::on_shard_thread() const noexcept {
  const std::thread::id self = std::this_thread::get_id();
  for (const auto& shard : shards_) {
    if (shard->worker.joinable() && shard->worker.get_id() == self) return true;
  }
  return false;
}

void ThreadedTransport::start() {
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_ || hosted_) return;
  started_ = true;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->worker = std::thread([this, i] { worker_loop(i); });
  }
}

void ThreadedTransport::stop() {
  {
    const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (!started_) return;
    started_ = false;
  }
  for (const auto& shard : shards_) {
    {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      shard->stopping = true;
    }
    shard->ready.notify_all();
  }
  for (const auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
    shard->stopping = false;
    shard->worker = std::thread();
  }
}

void ThreadedTransport::set_wake_hook(std::size_t shard,
                                      std::function<void()> hook) {
  DVV_ASSERT(shard < shards_.size());
  {
    const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    DVV_ASSERT_MSG(!started_,
                   "net: install wake hooks before the first send/post");
    hosted_ = true;
  }
  const std::lock_guard<std::mutex> lock(shards_[shard]->mutex);
  shards_[shard]->wake_hook = std::move(hook);
}

void ThreadedTransport::enqueue(std::size_t index, Entry entry, bool count_sent) {
  Shard& shard = *shards_[index];
  // Count BEFORE enqueue: a cascade's child entry is in the count
  // before the parent's decrement, so in-flight can only read 0 when
  // the whole causal tree has run.
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const bool edge = shard.inbox.empty();
    if (count_sent) {
      ++shard.local.sent;
      shard.local.wire_bytes += entry.bytes.size();
    }
    shard.inbox.push_back(std::move(entry));
    if (shard.wake_hook) {
      // Hosted: wake only on the empty -> non-empty edge.  An entry
      // pushed onto a non-empty inbox rides the wake its first entry
      // raised: the host drains its wake before pump_shard swaps the
      // inbox, so the pump that wake leads to takes this entry too.
      // The hook runs under the lock so no pump can retire the entry
      // (and let the host shut down) before the wake lands.
      if (edge) shard.wake_hook();  // must be async-safe (eventfd write)
      return;
    }
  }
  shard.ready.notify_one();
  start();  // lazy self-hosted spin-up (idempotent)
}

void ThreadedTransport::send(NodeId from, NodeId to,
                             const std::shared_ptr<const Message>& msg,
                             const std::shared_ptr<const void>& decoded,
                             std::size_t size_hint) {
  // Byte-faithful like SimTransport: the frame crosses as its real
  // codec encoding and the sender's decoded alias never crosses a
  // thread boundary.
  (void)decoded;
  Entry entry;
  entry.from = from;
  entry.to = to;
  // encode_into targets a thread_local scratch Writer, so concurrent
  // senders each use their own; the result is a plain owned string the
  // receiving shard can free without touching our pools.
  encode_into(*msg, entry.bytes);
  DVV_ASSERT_MSG(size_hint == 0 || entry.bytes.size() == size_hint,
                 "net: sender's size hint disagrees with the real encoding");
  const std::size_t index = shard_of(to);
  if (met_.msgs_sent.armed()) {
    met_.msgs_sent.inc();
    met_.sent_by_type[msg->index()].inc();
    met_.wire_bytes_sent.inc(entry.bytes.size());
  }
  if (!link_up(from, to)) {
    Shard& shard = *shards_[index];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.local.sent;
    shard.local.wire_bytes += entry.bytes.size();
    ++shard.local.partition_dropped;
    met_.partition_dropped.inc();
    return;
  }
  entry.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  enqueue(index, std::move(entry), /*count_sent=*/true);
}

void ThreadedTransport::inject_raw(NodeId from, NodeId to, std::string bytes) {
  Entry entry;
  entry.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  entry.from = from;
  entry.to = to;
  entry.bytes = std::move(bytes);
  enqueue(shard_of(to), std::move(entry), /*count_sent=*/false);
}

void ThreadedTransport::post(std::size_t shard, std::function<void()> task) {
  DVV_ASSERT(shard < shards_.size());
  Entry entry;
  entry.task = std::move(task);
  enqueue(shard, std::move(entry), /*count_sent=*/false);
}

void ThreadedTransport::run_on(std::size_t shard,
                               const std::function<void()>& task) {
  struct Done {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
  } done;
  post(shard, [&task, &done] {
    task();
    const std::lock_guard<std::mutex> lock(done.mutex);
    done.done = true;
    done.cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(done.mutex);
  done.cv.wait(lock, [&done] { return done.done; });
}

void ThreadedTransport::process(Shard& shard, Entry& entry) {
  if (entry.task) {
    entry.task();
    return;
  }
  // Strict delivery decode over the received bytes — exactly the
  // SimTransport boundary: frames this transport encoded always parse;
  // injected hostile bytes are counted and dropped.
  std::optional<MessageView> view = decode_view_or_reject(entry.bytes);
  if (!view.has_value()) {
    ++shard.local.decode_rejected;
    return;
  }
  DVV_ASSERT_MSG(sink_ != nullptr, "net: transport has no delivery sink");
  if (std::holds_alternative<BatchView>(*view)) {
    // An injected composite frame (this transport never coalesces):
    // deliver as a batch envelope, metered per sub-message.
    shard.batch_views.clear();
    const bool ok = try_decode_batch_views(entry.bytes, shard.batch_views);
    DVV_ASSERT_MSG(ok, "net: accepted batch frame failed sub-view decode");
    const BatchView& batch = std::get<BatchView>(*view);
    codec::StrictReader frames(batch.frames.data(), batch.frames.size());
    for (const MessageView& sub : shard.batch_views) {
      std::string_view frame;
      const bool framed = frames.bytes_view(frame);
      DVV_ASSERT(framed);
      ++shard.local.delivered;
      if (met_.msgs_delivered.armed()) {
        met_.msgs_delivered.inc();
        met_.delivered_by_type[sub.index()].inc();
        met_.wire_bytes_delivered.inc(frame.size());
      }
    }
    Envelope envelope;
    envelope.seq = entry.seq;
    envelope.from = entry.from;
    envelope.to = entry.to;
    envelope.wire_bytes = entry.bytes.size();
    envelope.batch = std::span<const MessageView>(shard.batch_views);
    sink_(envelope);
    return;
  }
  ++shard.local.delivered;
  if (met_.msgs_delivered.armed()) {
    met_.msgs_delivered.inc();
    met_.delivered_by_type[view->index()].inc();
    met_.wire_bytes_delivered.inc(entry.bytes.size());
  }
  Envelope envelope;
  envelope.seq = entry.seq;
  envelope.from = entry.from;
  envelope.to = entry.to;
  envelope.wire_bytes = entry.bytes.size();
  envelope.view = &*view;
  sink_(envelope);
}

std::size_t ThreadedTransport::pump_shard(std::size_t index) {
  DVV_ASSERT(index < shards_.size());
  Shard& shard = *shards_[index];
  std::deque<Entry> batch;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    batch.swap(shard.inbox);
  }
  std::size_t processed = 0;
  for (Entry& entry : batch) {
    process(shard, entry);
    ++processed;
    // Decrement AFTER the sink returned: everything this delivery sent
    // onward is already counted, so 0 means fully quiescent.
    if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const std::lock_guard<std::mutex> lock(quiesce_mutex_);
      quiesce_cv_.notify_all();
    }
  }
  return processed;
}

void ThreadedTransport::worker_loop(std::size_t index) {
  Shard& shard = *shards_[index];
  while (true) {
    std::deque<Entry> batch;
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      shard.ready.wait(lock, [&shard] {
        return shard.stopping || !shard.inbox.empty();
      });
      if (shard.stopping && shard.inbox.empty()) return;
      // Batched dequeue: one lock round per run of entries, not per
      // entry (the lock-amortization half of PR 8's batching story).
      batch.swap(shard.inbox);
    }
    for (Entry& entry : batch) {
      process(shard, entry);
      if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const std::lock_guard<std::mutex> lock(quiesce_mutex_);
        quiesce_cv_.notify_all();
      }
    }
  }
}

void ThreadedTransport::quiesce() {
  DVV_ASSERT_MSG(!on_shard_thread(),
                 "net: quiesce from a shard thread would self-deadlock");
  std::unique_lock<std::mutex> lock(quiesce_mutex_);
  quiesce_cv_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

std::size_t ThreadedTransport::pump() {
  // The workers deliver; a control-plane pump just waits for them.
  quiesce();
  return 0;
}

void ThreadedTransport::settle() {
  if (on_shard_thread()) return;  // a sink must not wait on itself
  quiesce();
}

bool ThreadedTransport::idle() const noexcept {
  return in_flight_.load(std::memory_order_acquire) == 0;
}

std::size_t ThreadedTransport::in_flight() const noexcept {
  return in_flight_.load(std::memory_order_acquire);
}

const TransportStats& ThreadedTransport::stats() const noexcept {
  // Exact at quiescence: the acquire read in idle()/quiesce() ordered
  // every shard's last stats write before this aggregation.
  aggregated_ = TransportStats{};
  for (const auto& shard : shards_) {
    const TransportStats& s = shard->local;
    aggregated_.sent += s.sent;
    aggregated_.delivered += s.delivered;
    aggregated_.dropped += s.dropped;
    aggregated_.duplicated += s.duplicated;
    aggregated_.partition_dropped += s.partition_dropped;
    aggregated_.wire_bytes += s.wire_bytes;
    aggregated_.decode_rejected += s.decode_rejected;
  }
  return aggregated_;
}

}  // namespace dvv::net
