#ifndef AETS_NET_TCP_SOURCE_H_
#define AETS_NET_TCP_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "aets/common/status.h"
#include "aets/net/frame.h"
#include "aets/net/socket.h"
#include "aets/obs/metrics.h"
#include "aets/replication/epoch_source.h"

namespace aets {
namespace net {

struct TcpEpochSourceOptions {
  int io_timeout_ms = 5'000;
};

/// EpochSource over the EpochStreamServer's control connection: FetchEpoch
/// is a synchronous kFetch -> kFetchOk/kFetchMiss RPC, NextEpochId and
/// FloorEpochId a kMeta -> kMetaOk RPC. This is the NACK path of a backup
/// in another process — the replayer plugs it in via SetEpochSource and the
/// recovery protocol is unchanged from the in-process shipper source.
///
/// Failure semantics: a timed-out or reset RPC surfaces as a fetch miss
/// (nullopt) or as the cached ids — never a crash and never a fabricated
/// epoch. Cached next/floor only ratchet upward, so a dead link can stall
/// progress reporting but cannot un-ship history. kFetchMiss replies carry
/// the server's next/floor ids, keeping the cache fresh enough for the
/// replayer's below-floor (kBelowCheckpoint) classification to fire with
/// the in-process semantics.
class TcpEpochSource : public EpochSource {
 public:
  TcpEpochSource(std::string host, uint16_t port, uint32_t shard,
                 TcpEpochSourceOptions options = {});
  ~TcpEpochSource() override;

  TcpEpochSource(const TcpEpochSource&) = delete;
  TcpEpochSource& operator=(const TcpEpochSource&) = delete;

  /// Eagerly connects and primes the id cache with one kMeta RPC (fail-fast
  /// configuration check; FetchEpoch also connects lazily).
  Status Connect();

  std::optional<ShippedEpoch> FetchEpoch(EpochId id) override;
  EpochId NextEpochId() const override;
  EpochId FloorEpochId() const override;

  uint64_t rpc_failures() const {
    return rpc_failures_.load(std::memory_order_relaxed);
  }

 private:
  /// One request/reply exchange with reconnect-on-failure; `mu_` held.
  /// Const because the id accessors RPC too — all I/O state is mutable.
  Status RoundTripLocked(FrameType request_type, std::string_view body,
                         Frame* reply) const;
  Status EnsureConnectedLocked() const;
  void RefreshIdsLocked(const EpochIdsBody& ids) const;
  Status MetaLocked() const;

  const std::string host_;
  const uint16_t port_;
  const uint32_t shard_;
  const TcpEpochSourceOptions options_;

  mutable std::mutex mu_;  // serializes RPCs (const methods do RPC too)
  mutable TcpSocket socket_;
  mutable FrameDecoder decoder_;
  mutable EpochId cached_next_ = 0;
  mutable EpochId cached_floor_ = 0;
  mutable std::atomic<uint64_t> rpc_failures_{0};
  std::atomic<bool> stop_{false};
  obs::ExportedCounters exported_;
};

}  // namespace net
}  // namespace aets

#endif  // AETS_NET_TCP_SOURCE_H_
