#include "aets/net/epoch_stream.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "aets/net/frame_io.h"
#include "aets/obs/metrics.h"

namespace aets {
namespace net {

namespace {

/// Capacity of the per-subscriber staging channel between the shipper and
/// the writer thread. When a subscriber's TCP window AND this queue are both
/// full, the shipper's Send fails and the epoch is recovered later by NACK —
/// a slow subscriber never backpressures commit.
constexpr size_t kSubscriberQueue = 256;

}  // namespace

EpochStreamServer::EpochStreamServer(LogShipper* shipper)
    : shipper_(shipper) {}

EpochStreamServer::~EpochStreamServer() { Stop(); }

void EpochStreamServer::SetChannelFactoryForTest(ChannelFactory factory) {
  channel_factory_ = std::move(factory);
}

Status EpochStreamServer::Start(uint16_t port) {
  if (accept_thread_.joinable()) {
    return Status::InvalidArgument("server already started");
  }
  Result<TcpListener> listener = TcpListener::Bind(port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  stop_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void EpochStreamServer::Stop() {
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    // Closing the staging channels unblocks subscriber writers parked in
    // Receive(); control sessions notice stop_ within an idle slice.
    for (auto& channel : channels_) channel->Close();
    sessions.swap(sessions_);
  }
  for (auto& session : sessions) {
    if (session->thread.joinable()) session->thread.join();
  }
  // Sessions are gone; detach whatever channels they left behind so the
  // shipper holds no pointer into this (about-to-shrink) server. Only after
  // the detach is destroying them safe — the shipper may be mid-fan-out.
  std::lock_guard<std::mutex> lk(sessions_mu_);
  for (auto& channel : channels_) shipper_->DetachChannel(channel.get());
  channels_.clear();
}

void EpochStreamServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    Result<TcpSocket> accepted = listener_.Accept(kIdleSliceMs);
    if (!accepted.ok()) {
      if (accepted.status().IsTimedOut()) {
        ReapFinishedSessions();
        continue;
      }
      return;  // listener closed or broken
    }
    auto session = std::make_unique<Session>();
    Session* raw = session.get();
    // The socket moves into the thread; shared_ptr keeps the lambda copyable
    // requirements away (std::thread moves it).
    auto socket = std::make_shared<TcpSocket>(std::move(*accepted));
    raw->thread = std::thread([this, raw, socket] {
      RunSession(std::move(*socket));
      raw->done.store(true, std::memory_order_release);
    });
    std::lock_guard<std::mutex> lk(sessions_mu_);
    sessions_.push_back(std::move(session));
  }
}

void EpochStreamServer::ReapFinishedSessions() {
  std::vector<std::unique_ptr<Session>> finished;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (auto& session : sessions_) {
      if (session->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(session));
      }
    }
    sessions_.erase(std::remove(sessions_.begin(), sessions_.end(), nullptr),
                    sessions_.end());
  }
  for (auto& session : finished) {
    if (session->thread.joinable()) session->thread.join();
  }
}

void EpochStreamServer::RunSession(TcpSocket socket) {
  FrameDecoder decoder;
  Frame hello_frame;
  // A connection that never says hello is dropped after one I/O window —
  // an anonymous idle socket must not pin a session thread.
  Status s = ReadFrame(&socket, &decoder, kIoTimeoutMs,
                       /*idle_timeout_ms=*/kIoTimeoutMs, stop_, &hello_frame);
  if (!s.ok() || hello_frame.type != FrameType::kHello) return;
  Result<HelloBody> hello = DecodeHelloBody(hello_frame.body);
  if (!hello.ok()) return;
  if (hello->shard >= static_cast<uint32_t>(shipper_->shard_count())) {
    WriteFrame(&socket, FrameType::kError, "no such shard", kIoTimeoutMs);
    return;
  }
  if (hello->role == HelloRole::kSubscribe) {
    RunSubscriber(std::move(socket), hello->shard);
  } else {
    control_accepted_.fetch_add(1, std::memory_order_relaxed);
    // The decoder moves along with the socket: a pipelined first request may
    // already sit (whole or partial) in its buffer after the Hello read.
    RunControl(std::move(socket), std::move(decoder), hello->shard);
  }
}

void EpochStreamServer::RunSubscriber(TcpSocket socket, uint32_t shard) {
  static obs::Counter* streamed = obs::GetCounter("net.epochs_streamed");
  EpochChannel* channel = nullptr;
  {
    std::unique_ptr<EpochChannel> fresh =
        channel_factory_ ? channel_factory_(kSubscriberQueue)
                         : std::make_unique<EpochChannel>(kSubscriberQueue);
    std::lock_guard<std::mutex> lk(sessions_mu_);
    if (stop_.load(std::memory_order_relaxed)) return;
    channels_.push_back(std::move(fresh));
    channel = channels_.back().get();
  }
  // From here every epoch the shipper delivers to this lane lands in
  // `channel`; epochs shipped before this attach are the subscriber's gap to
  // NACK (exactly the restart/reconnect semantics).
  shipper_->AttachShardChannel(static_cast<int>(shard), channel);
  subscribers_accepted_.fetch_add(1, std::memory_order_relaxed);
  if (shipper_->finished()) {
    // The stream ended before this subscriber attached (a reconnect landing
    // after Finish): Finish() cannot have closed a channel it never saw, so
    // close it here or the writer below would wait forever. finished_ flips
    // under the same lock attach takes, so this check cannot miss the cut.
    channel->Close();
  }
  std::string wire;  // reused: one payload copy per epoch, no allocation
  while (auto epoch = channel->Receive()) {
    if (stop_.load(std::memory_order_relaxed)) break;
    wire.clear();
    EncodeEpochFrame(FrameType::kEpoch, *epoch, &wire);
    Status s = socket.WriteAll(wire.data(), wire.size(), kIoTimeoutMs);
    if (!s.ok()) {
      // Dead or wedged subscriber. Close the staging channel so the
      // shipper's Sends fail fast (counted as send_failures / dropped —
      // the epochs stay fetchable); the subscriber recovers by
      // reconnecting and NACKing.
      channel->Close();
      while (channel->TryReceive()) {
      }
      ReleaseSubscriberChannel(channel);
      return;
    }
    streamed->Add(1);
  }
  // Channel closed and drained. Only the shipper's own Finish() means the
  // stream is complete; a stopping server just drops the connection and the
  // subscriber recovers by reconnecting.
  if (shipper_->finished()) {
    WriteFrame(&socket, FrameType::kStreamEnd, "", kIoTimeoutMs);
  }
  ReleaseSubscriberChannel(channel);
}

void EpochStreamServer::ReleaseSubscriberChannel(EpochChannel* channel) {
  // Detach first: once DetachChannel returns the shipper can no longer be
  // mid-Send on this channel, so dropping the owning pointer is safe.
  shipper_->DetachChannel(channel);
  std::lock_guard<std::mutex> lk(sessions_mu_);
  for (auto it = channels_.begin(); it != channels_.end(); ++it) {
    if (it->get() == channel) {
      channels_.erase(it);
      return;
    }
  }
}

void EpochStreamServer::RunControl(TcpSocket socket, FrameDecoder decoder,
                                   uint32_t shard) {
  static obs::Counter* fetches = obs::GetCounter("net.nack_fetches_served");
  EpochSource* source = shipper_->shard_source(static_cast<int>(shard));
  std::string body;
  while (!stop_.load(std::memory_order_relaxed)) {
    Frame request;
    // Idle control connections are normal (NACKs are rare) — wait forever.
    Status s = ReadFrame(&socket, &decoder, kIoTimeoutMs,
                         /*idle_timeout_ms=*/-1, stop_, &request);
    if (!s.ok()) return;  // EOF, reset, stall, or corrupt framing
    body.clear();
    switch (request.type) {
      case FrameType::kFetch: {
        Result<FetchBody> fetch = DecodeFetchBody(request.body);
        if (!fetch.ok()) return;
        fetches->Add(1);
        if (auto epoch = source->FetchEpoch(fetch->epoch_id)) {
          EncodeEpochFrame(FrameType::kFetchOk, *epoch, &body);
          s = socket.WriteAll(body.data(), body.size(), kIoTimeoutMs);
        } else {
          EpochIdsBody ids{source->NextEpochId(), source->FloorEpochId()};
          EncodeEpochIdsBody(ids, &body);
          s = WriteFrame(&socket, FrameType::kFetchMiss, body, kIoTimeoutMs);
        }
        break;
      }
      case FrameType::kMeta: {
        EpochIdsBody ids{source->NextEpochId(), source->FloorEpochId()};
        EncodeEpochIdsBody(ids, &body);
        s = WriteFrame(&socket, FrameType::kMetaOk, body, kIoTimeoutMs);
        break;
      }
      default:
        return;  // protocol violation; drop the connection
    }
    if (!s.ok()) return;
  }
}

EpochStreamClient::EpochStreamClient(std::string host, uint16_t port,
                                     uint32_t shard, EpochChannel* sink,
                                     EpochStreamClientOptions options)
    : host_(std::move(host)),
      port_(port),
      shard_(shard),
      sink_(sink),
      options_(options),
      exported_("", {{"net.epochs_received", &epochs_received_},
                     {"net.reconnects", &reconnects_}}) {}

EpochStreamClient::~EpochStreamClient() { Stop(); }

Status EpochStreamClient::ConnectAndHello(TcpSocket* socket) {
  Result<TcpSocket> conn = TcpSocket::Connect(host_, port_, kIoTimeoutMs);
  if (!conn.ok()) return conn.status();
  HelloBody hello{HelloRole::kSubscribe, shard_};
  std::string body;
  EncodeHelloBody(hello, &body);
  Status s = WriteFrame(&*conn, FrameType::kHello, body, kIoTimeoutMs);
  if (!s.ok()) return s;
  *socket = std::move(*conn);
  return Status::OK();
}

Status EpochStreamClient::Start() {
  if (reader_thread_.joinable()) {
    return Status::InvalidArgument("client already started");
  }
  TcpSocket socket;
  Status s = ConnectAndHello(&socket);
  if (!s.ok()) return s;
  {
    std::lock_guard<std::mutex> lk(socket_mu_);
    socket_ = std::move(socket);
  }
  stop_.store(false, std::memory_order_release);
  reader_thread_ = std::thread([this] { ReadLoop(); });
  return Status::OK();
}

void EpochStreamClient::Stop() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(socket_mu_);
    socket_.ShutdownBoth();
  }
  // Closing the sink first unblocks a reader parked in a full sink's Send
  // (Send then fails and the loop exits) — join cannot hang on a stalled
  // consumer.
  if (!clean_end_.load(std::memory_order_acquire)) sink_->Close();
  if (reader_thread_.joinable()) reader_thread_.join();
}

void EpochStreamClient::ReadLoop() {
  FrameDecoder decoder;
  while (!stop_.load(std::memory_order_relaxed)) {
    Frame frame;
    Status s;
    {
      // Stop() shuts the fd down rather than racing this loop for the
      // socket; the read re-checks stop_ every idle slice, so the lock is
      // never held for long. An idle stream is normal (quiet primary still
      // heartbeats, but a paused one may not) — wait forever.
      std::lock_guard<std::mutex> lk(socket_mu_);
      s = ReadFrame(&socket_, &decoder, kIoTimeoutMs,
                    /*idle_timeout_ms=*/-1, stop_, &frame);
    }
    if (s.ok()) {
      switch (frame.type) {
        case FrameType::kEpoch: {
          Result<ShippedEpoch> epoch = DecodeEpochBody(frame.body);
          if (!epoch.ok()) {
            s = epoch.status();  // falls through to reconnect below
            break;
          }
          epochs_received_.fetch_add(1, std::memory_order_relaxed);
          // A full sink blocks here, which stops reading, which closes the
          // TCP window — backpressure without unbounded buffering. A closed
          // sink means the consumer is gone; just stop.
          if (!sink_->Send(std::move(*epoch))) return;
          break;
        }
        case FrameType::kStreamEnd:
          clean_end_.store(true, std::memory_order_release);
          sink_->Close();
          return;
        default:
          s = Status::Corruption("unexpected frame type on epoch stream");
          break;
      }
      if (s.ok()) continue;
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    // Any failure — reset, mid-frame EOF, stall, corrupt framing — lands
    // here: drop the connection and the torn frame, reconnect with bounded
    // backoff, and let the replayer NACK whatever the wire swallowed.
    decoder.Reset();
    bool connected = false;
    for (int attempt = 1; attempt <= options_.max_reconnects; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          options_.reconnect_backoff_ms * attempt));
      if (stop_.load(std::memory_order_relaxed)) return;
      TcpSocket fresh;
      if (ConnectAndHello(&fresh).ok()) {
        std::lock_guard<std::mutex> lk(socket_mu_);
        socket_ = std::move(fresh);
        connected = true;
        reconnects_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
    if (!connected) {
      // Reconnect budget exhausted: declare the stream dead. Closing the
      // sink hands control to the replayer's final drain, whose NACK source
      // decides whether the history is recoverable.
      sink_->Close();
      return;
    }
  }
}

}  // namespace net
}  // namespace aets
