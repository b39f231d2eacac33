#ifndef AETS_NET_EPOCH_STREAM_H_
#define AETS_NET_EPOCH_STREAM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "aets/common/status.h"
#include "aets/net/frame.h"
#include "aets/net/socket.h"
#include "aets/obs/metrics.h"
#include "aets/replication/channel.h"
#include "aets/replication/log_shipper.h"

namespace aets {
namespace net {

/// The primary-side network endpoint: accepts connections, reads one Hello
/// frame, then serves either role:
///
///   kSubscribe — attaches a fresh bounded EpochChannel to the shipper's
///     lane for the requested shard and streams every delivered epoch as a
///     kEpoch frame. A write timeout or reset closes the channel (the
///     shipper counts the failures; the data stays NACK-able) and ends the
///     session — recovery is the subscriber's reconnect.
///   kControl — a synchronous RPC loop serving the NACK protocol over the
///     wire: kFetch -> kFetchOk/kFetchMiss, kMeta -> kMetaOk. This is the
///     transport behind TcpEpochSource.
///
/// Each subscriber's staging channel is owned by the server and detached
/// from the shipper (LogShipper::DetachChannel) before it is destroyed —
/// when the subscriber dies, when its stream completes, or at Stop() — so a
/// server may be torn down and replaced while the shipper keeps running.
class EpochStreamServer {
 public:
  explicit EpochStreamServer(LogShipper* shipper);
  ~EpochStreamServer();

  EpochStreamServer(const EpochStreamServer&) = delete;
  EpochStreamServer& operator=(const EpochStreamServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral, see port()) and starts the
  /// accept loop.
  Status Start(uint16_t port);
  uint16_t port() const { return listener_.port(); }

  /// Stops accepting, tears down every session, joins all threads. Epochs
  /// still queued for a subscriber are dropped (NACK-recoverable).
  void Stop();

  /// Test seam: wraps each subscriber's staging channel (e.g. in a
  /// FaultInjectingChannel) so link faults can be injected between the
  /// shipper and the wire. Call before Start().
  using ChannelFactory =
      std::function<std::unique_ptr<EpochChannel>(size_t capacity)>;
  void SetChannelFactoryForTest(ChannelFactory factory);

  /// Subscribers whose staging channel is attached to the shipper: every
  /// epoch shipped after this count moves reaches them on the live stream.
  uint64_t subscribers_accepted() const {
    return subscribers_accepted_.load(std::memory_order_relaxed);
  }
  uint64_t control_accepted() const {
    return control_accepted_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void RunSession(TcpSocket socket);
  void RunSubscriber(TcpSocket socket, uint32_t shard);
  /// `decoder` is the session decoder, carried over from the Hello read: a
  /// pipelined client may land its first request in the same TCP segment as
  /// the Hello, and those buffered bytes must not be dropped.
  void RunControl(TcpSocket socket, FrameDecoder decoder, uint32_t shard);
  void ReapFinishedSessions();
  /// Detaches `channel` from the shipper, then drops the owning entry.
  void ReleaseSubscriberChannel(EpochChannel* channel);

  LogShipper* shipper_;
  ChannelFactory channel_factory_;
  TcpListener listener_;
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> subscribers_accepted_{0};
  std::atomic<uint64_t> control_accepted_{0};

  std::mutex sessions_mu_;
  struct Session {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::vector<std::unique_ptr<Session>> sessions_;
  /// Live subscribers' staging channels — see class comment for lifetime.
  std::vector<std::unique_ptr<EpochChannel>> channels_;
};

struct EpochStreamClientOptions {
  /// Consecutive failed reconnect attempts before the stream is declared
  /// dead and the sink channel is closed (the replayer then final-drains
  /// through its NACK source — which may itself still reconnect).
  int max_reconnects = 8;
  /// Base sleep between reconnect attempts; grows linearly per attempt.
  int reconnect_backoff_ms = 20;
};

/// The backup-side subscriber: connects, sends Hello(kSubscribe, shard), and
/// pumps every kEpoch frame into `sink` — the same EpochChannel the replayer
/// drains, so the socket is invisible to the replay path. Frame corruption,
/// resets, and mid-frame EOFs all funnel into one recovery: drop the
/// connection (and any torn frame), reconnect with bounded backoff, and let
/// the replayer NACK the gap. kStreamEnd closes the sink, which triggers the
/// replayer's final drain.
class EpochStreamClient {
 public:
  EpochStreamClient(std::string host, uint16_t port, uint32_t shard,
                    EpochChannel* sink, EpochStreamClientOptions options = {});
  ~EpochStreamClient();

  EpochStreamClient(const EpochStreamClient&) = delete;
  EpochStreamClient& operator=(const EpochStreamClient&) = delete;

  /// Connects (failing fast if the server is unreachable) and starts the
  /// reader thread.
  Status Start();

  /// Tears the connection down and joins. Closes the sink if the stream did
  /// not already end cleanly.
  void Stop();

  /// True once kStreamEnd was received (the shipper finished).
  bool clean_end() const { return clean_end_.load(std::memory_order_acquire); }
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  uint64_t epochs_received() const {
    return epochs_received_.load(std::memory_order_relaxed);
  }

 private:
  Status ConnectAndHello(TcpSocket* socket);
  void ReadLoop();

  const std::string host_;
  const uint16_t port_;
  const uint32_t shard_;
  EpochChannel* sink_;
  EpochStreamClientOptions options_;

  std::mutex socket_mu_;  // guards socket_ between ReadLoop and Stop
  TcpSocket socket_;
  std::thread reader_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> clean_end_{false};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> epochs_received_{0};
  obs::ExportedCounters exported_;
};

}  // namespace net
}  // namespace aets

#endif  // AETS_NET_EPOCH_STREAM_H_
