#ifndef AETS_NET_QUERY_SERVER_H_
#define AETS_NET_QUERY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "aets/common/queue.h"
#include "aets/common/status.h"
#include "aets/net/frame.h"
#include "aets/net/socket.h"
#include "aets/obs/metrics.h"
#include "aets/replay/replayer.h"
#include "aets/replay/snapshot_coordinator.h"

namespace aets {
namespace net {

struct QueryServerOptions {
  /// Concurrent session threads — the serving parallelism.
  int max_sessions = 64;
  /// Accepted-but-unclaimed connections. When every session thread is busy
  /// AND this queue is full, new connections get kBusy and are closed
  /// (net.admission_rejects) — load sheds at the door instead of queueing
  /// unboundedly or stalling the accept loop.
  size_t admission_queue = 64;
  int io_timeout_ms = 5'000;
};

/// The analytic serving path (DESIGN.md §12): answers snapshot scans from
/// many concurrent client connections against a live backup while replay
/// advances underneath.
///
/// Session protocol: any number of kQuery frames per connection, one
/// kQueryOk each. Every query pins its own timestamp: with a
/// GlobalSnapshotCoordinator attached, a SnapshotHandle holds the pinned
/// timestamp out of the GC horizon (the cross-shard exactness guarantee of
/// §11); without one, the backup's GlobalVisibleTs() is used. A requested
/// timestamp above the safe frontier is clamped — the reply's pinned_ts
/// reports what was actually served.
///
/// Pin bounding: when the backup maintains a columnar projection for the
/// table (DESIGN.md §13), the pin is held only while the residual rows are
/// copied out of the version chains; the bulk of the scan then walks
/// immutable chunk data with the pin already released, so a slow reader
/// cannot wedge the GC horizon. The row-store fallback still holds the pin
/// for the whole walk (it reads version chains throughout), releasing it
/// before the reply is written to the socket.
///
/// Replay isolation: sessions only read MVCC snapshots and never touch the
/// replay threads; a slow client parks its own session thread in a bounded
/// write (then loses the connection), so epoch shipping and replay cannot
/// be stalled from the query side.
class QueryServer {
 public:
  /// `backup` and `coordinator` (nullable) must outlive the server.
  QueryServer(Replayer* backup, GlobalSnapshotCoordinator* coordinator,
              QueryServerOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  Status Start(uint16_t port);
  uint16_t port() const { return listener_.port(); }
  void Stop();

  uint64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }
  uint64_t admission_rejects() const {
    return admission_rejects_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void SessionLoop();
  void ServeOne(TcpSocket socket);
  Status ExecuteQuery(const QueryBody& query, QueryReplyBody* reply);

  Replayer* backup_;
  GlobalSnapshotCoordinator* coordinator_;
  QueryServerOptions options_;
  TcpListener listener_;
  std::thread accept_thread_;
  std::vector<std::thread> session_threads_;
  BlockingQueue<TcpSocket> admission_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> admission_rejects_{0};
  obs::ExportedCounters exported_;
};

/// Blocking client for the QueryServer protocol — the test rig, the bench
/// driver, and `replica client` all speak through this.
class QueryClient {
 public:
  struct ScanResult {
    /// True when the server shed the connection at admission (kBusy). The
    /// connection is gone; reconnect to retry.
    bool busy = false;
    Timestamp pinned_ts = kInvalidTimestamp;
    uint64_t digest = 0;
    uint64_t row_count = 0;
    std::map<int64_t, Row> rows;
  };

  static Result<QueryClient> Connect(const std::string& host, uint16_t port,
                                     int io_timeout_ms = 5'000);

  QueryClient(QueryClient&&) = default;
  QueryClient& operator=(QueryClient&&) = default;

  /// One snapshot scan. `snapshot_ts` 0 = latest safe snapshot.
  Result<ScanResult> Scan(TableId table, Timestamp snapshot_ts = 0,
                          bool want_rows = false);

  void Close() { socket_.Close(); }

 private:
  QueryClient(TcpSocket socket, int io_timeout_ms)
      : socket_(std::move(socket)), io_timeout_ms_(io_timeout_ms) {}

  TcpSocket socket_;
  FrameDecoder decoder_;
  int io_timeout_ms_;
};

}  // namespace net
}  // namespace aets

#endif  // AETS_NET_QUERY_SERVER_H_
