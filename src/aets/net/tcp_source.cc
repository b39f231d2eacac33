#include "aets/net/tcp_source.h"

#include <algorithm>
#include <utility>

#include "aets/net/frame_io.h"

namespace aets {
namespace net {

namespace {

/// RPC attempts per call (each failed attempt reconnects first). A call that
/// exhausts the budget reports "miss"/cached — the ReplayerBase retry
/// protocol (ReplayRecoveryOptions::max_retries) decides when a persistent
/// miss becomes a latched loss.
constexpr int kMaxAttempts = 3;

}  // namespace

TcpEpochSource::TcpEpochSource(std::string host, uint16_t port, uint32_t shard,
                               TcpEpochSourceOptions options)
    : host_(std::move(host)),
      port_(port),
      shard_(shard),
      options_(options),
      exported_("", {{"net.nack_rpc_failures", &rpc_failures_}}) {}

TcpEpochSource::~TcpEpochSource() {
  stop_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lk(mu_);
  socket_.Close();
}

Status TcpEpochSource::EnsureConnectedLocked() const {
  if (socket_.valid()) return Status::OK();
  Result<TcpSocket> conn = TcpSocket::Connect(host_, port_, kIoTimeoutMs);
  if (!conn.ok()) return conn.status();
  socket_ = std::move(*conn);
  decoder_.Reset();
  HelloBody hello{HelloRole::kControl, shard_};
  std::string body;
  EncodeHelloBody(hello, &body);
  Status s = WriteFrame(&socket_, FrameType::kHello, body,
                        options_.io_timeout_ms);
  if (!s.ok()) socket_.Close();
  return s;
}

Status TcpEpochSource::RoundTripLocked(FrameType request_type,
                                       std::string_view body,
                                       Frame* reply) const {
  Status last = Status::Internal("no RPC attempt made");
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (stop_.load(std::memory_order_relaxed)) {
      return Status::Aborted("source shut down");
    }
    Status s = EnsureConnectedLocked();
    if (s.ok()) {
      s = WriteFrame(&socket_, request_type, body, options_.io_timeout_ms);
    }
    if (s.ok()) {
      // The control protocol is strict request/reply, so the reply deadline
      // doubles as the idle bound.
      s = ReadFrame(&socket_, &decoder_, options_.io_timeout_ms,
                    /*idle_timeout_ms=*/options_.io_timeout_ms, stop_, reply);
    }
    if (s.ok()) return Status::OK();
    // Failed exchange: the stream may hold half a reply — reconnect rather
    // than resynchronize.
    socket_.Close();
    decoder_.Reset();
    rpc_failures_.fetch_add(1, std::memory_order_relaxed);
    last = std::move(s);
  }
  return last;
}

void TcpEpochSource::RefreshIdsLocked(const EpochIdsBody& ids) const {
  // Monotone ratchet: a reply reordered behind a newer one must not move
  // the replayer's view of the stream backwards.
  cached_next_ = std::max(cached_next_, ids.next_epoch);
  cached_floor_ = std::max(cached_floor_, ids.floor_epoch);
}

Status TcpEpochSource::MetaLocked() const {
  Frame reply;
  Status s = RoundTripLocked(FrameType::kMeta, "", &reply);
  if (!s.ok()) return s;
  if (reply.type != FrameType::kMetaOk) {
    return Status::Corruption("unexpected reply to kMeta");
  }
  Result<EpochIdsBody> ids = DecodeEpochIdsBody(reply.body);
  if (!ids.ok()) return ids.status();
  RefreshIdsLocked(*ids);
  return Status::OK();
}

Status TcpEpochSource::Connect() {
  std::lock_guard<std::mutex> lk(mu_);
  Status s = EnsureConnectedLocked();
  if (!s.ok()) return s;
  return MetaLocked();
}

std::optional<ShippedEpoch> TcpEpochSource::FetchEpoch(EpochId id) {
  std::lock_guard<std::mutex> lk(mu_);
  std::string body;
  EncodeFetchBody(FetchBody{id}, &body);
  Frame reply;
  Status s = RoundTripLocked(FrameType::kFetch, body, &reply);
  if (!s.ok()) return std::nullopt;  // transient: the replayer retries
  switch (reply.type) {
    case FrameType::kFetchOk: {
      Result<ShippedEpoch> epoch = DecodeEpochBody(reply.body);
      if (!epoch.ok()) return std::nullopt;
      return std::move(*epoch);
    }
    case FrameType::kFetchMiss: {
      if (Result<EpochIdsBody> ids = DecodeEpochIdsBody(reply.body);
          ids.ok()) {
        RefreshIdsLocked(*ids);
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

EpochId TcpEpochSource::NextEpochId() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Best effort refresh; on failure the (monotone) cache answers. A stale
  // next id can only under-report the stream end, which ends the final
  // drain early at the already-applied prefix — safe, and the reconnecting
  // stream client extends it on the next pass.
  MetaLocked();
  return cached_next_;
}

EpochId TcpEpochSource::FloorEpochId() const {
  std::lock_guard<std::mutex> lk(mu_);
  MetaLocked();
  return cached_floor_;
}

}  // namespace net
}  // namespace aets
