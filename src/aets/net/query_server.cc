#include "aets/net/query_server.h"

#include <algorithm>
#include <utility>

#include "aets/common/clock.h"
#include "aets/net/frame_io.h"
#include "aets/obs/metrics.h"
#include "aets/storage/column_store.h"
#include "aets/storage/memtable.h"
#include "aets/storage/table_store.h"

namespace aets {
namespace net {

namespace {
const std::atomic<bool> kNeverStop{false};
}  // namespace

QueryServer::QueryServer(Replayer* backup,
                         GlobalSnapshotCoordinator* coordinator,
                         QueryServerOptions options)
    : backup_(backup),
      coordinator_(coordinator),
      options_(options),
      admission_(options.admission_queue),
      exported_("", {{"net.queries_served", &queries_served_},
                     {"net.admission_rejects", &admission_rejects_}}) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start(uint16_t port) {
  if (accept_thread_.joinable()) {
    return Status::InvalidArgument("server already started");
  }
  if (options_.max_sessions < 1) {
    return Status::InvalidArgument("max_sessions must be >= 1");
  }
  Result<TcpListener> listener = TcpListener::Bind(port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  stop_.store(false, std::memory_order_release);
  session_threads_.reserve(static_cast<size_t>(options_.max_sessions));
  for (int i = 0; i < options_.max_sessions; ++i) {
    session_threads_.emplace_back([this] { SessionLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void QueryServer::Stop() {
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  admission_.Close();  // wakes session threads; queued sockets just close
  for (auto& thread : session_threads_) {
    if (thread.joinable()) thread.join();
  }
  session_threads_.clear();
}

void QueryServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    Result<TcpSocket> accepted = listener_.Accept(kIdleSliceMs);
    if (!accepted.ok()) {
      if (accepted.status().IsTimedOut()) continue;
      return;
    }
    TcpSocket socket = std::move(*accepted);
    // The size check keeps the socket intact on the reject path (TryPush
    // consumes its argument even on failure); this loop is the only
    // producer, so the queue cannot grow between check and push.
    bool admitted = admission_.Size() < options_.admission_queue &&
                    admission_.TryPush(std::move(socket));
    if (!admitted) {
      // Full house: shed the connection with an explicit busy signal (a
      // short best-effort write — the accept loop must not park behind a
      // dead client).
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      WriteFrame(&socket, FrameType::kBusy, "", /*io_timeout_ms=*/50);
    }
  }
}

void QueryServer::SessionLoop() {
  static obs::Gauge* active = obs::GetGauge("net.active_sessions");
  while (auto socket = admission_.Pop()) {
    if (stop_.load(std::memory_order_relaxed)) return;
    active->Add(1);
    ServeOne(std::move(*socket));
    active->Add(-1);
  }
}

void QueryServer::ServeOne(TcpSocket socket) {
  static Histogram* query_us = obs::GetHistogram("net.query_us");
  FrameDecoder decoder;
  std::string body;
  for (;;) {
    Frame request;
    // The idle bound doubles as the session lifetime limit: a connection
    // with no query for a full window yields its session slot.
    Status s = ReadFrame(&socket, &decoder, options_.io_timeout_ms,
                         /*idle_timeout_ms=*/options_.io_timeout_ms, stop_,
                         &request);
    if (!s.ok()) return;  // EOF, idle, reset, or corrupt framing
    if (request.type != FrameType::kQuery) return;
    Result<QueryBody> query = DecodeQueryBody(request.body);
    if (!query.ok()) return;
    int64_t start_us = MonotonicMicros();
    QueryReplyBody reply;
    s = ExecuteQuery(*query, &reply);
    body.clear();
    if (s.ok()) {
      EncodeQueryReplyBody(reply, &body);
      s = WriteFrame(&socket, FrameType::kQueryOk, body,
                     options_.io_timeout_ms);
    } else {
      body.assign(s.message());
      s = WriteFrame(&socket, FrameType::kError, body, options_.io_timeout_ms);
    }
    if (!s.ok()) return;  // slow or gone reader: drop the session
    queries_served_.fetch_add(1, std::memory_order_relaxed);
    query_us->Record(MonotonicMicros() - start_us);
  }
}

Status QueryServer::ExecuteQuery(const QueryBody& query,
                                 QueryReplyBody* reply) {
  // Pin first, then read: the handle keeps every version the snapshot can
  // see out of the GC horizon while we read version chains.
  SnapshotHandle handle;
  Timestamp safe = kInvalidTimestamp;
  if (coordinator_ != nullptr) {
    handle = coordinator_->AcquireSnapshot();
    safe = handle.ts();
  } else {
    safe = backup_->GlobalVisibleTs();
  }
  if (safe == kInvalidTimestamp) {
    // Nothing replayed yet: an empty-but-exact snapshot at ts 0.
    reply->pinned_ts = 0;
    return Status::OK();
  }
  Timestamp pinned =
      query.snapshot_ts == 0 ? safe : std::min<Timestamp>(query.snapshot_ts, safe);
  reply->pinned_ts = pinned;
  TableStore* store = backup_->StoreForTable(query.table_id);
  // Bounds-checked by hand: GetTable treats an unknown id as programmer
  // error, but here the id came off the wire.
  if (store == nullptr || query.table_id >= store->num_tables()) {
    return Status::NotFound("no such table: " + std::to_string(query.table_id));
  }
  const storage::ColumnStore* columns =
      backup_->ColumnStoreForTable(query.table_id);
  if (columns != nullptr) {
    storage::ColumnSnapshot snap = columns->SnapshotAt(query.table_id, pinned);
    if (snap.valid()) {
      // Bounded pin: only the residual top-up reads version chains. Once it
      // is copied out, the snapshot is immutable chunk data plus owned rows,
      // so the GC pin can be dropped before the (client-paced) walk below.
      snap.LoadResidual();
      handle.Release();
      reply->digest = snap.Digest();
      if (query.want_rows) {
        snap.ScanRows([&](int64_t key, const Row& row) {
          reply->rows.emplace(key, row);
          return true;
        });
        reply->row_count = reply->rows.size();
      } else {
        reply->row_count = snap.RowCount();
      }
      return Status::OK();
    }
  }
  const Memtable* table = store->GetTable(query.table_id);
  reply->digest = table->DigestAt(pinned);
  if (query.want_rows) {
    table->ScanVisible(pinned, [&](int64_t key, const Row& row) {
      reply->rows.emplace(key, row);
      return true;
    });
    reply->row_count = reply->rows.size();
  } else {
    reply->row_count = table->VisibleRowCount(pinned);
  }
  return Status::OK();
}

Result<QueryClient> QueryClient::Connect(const std::string& host,
                                         uint16_t port, int io_timeout_ms) {
  Result<TcpSocket> conn = TcpSocket::Connect(host, port, io_timeout_ms);
  if (!conn.ok()) return conn.status();
  return QueryClient(std::move(*conn), io_timeout_ms);
}

Result<QueryClient::ScanResult> QueryClient::Scan(TableId table,
                                                  Timestamp snapshot_ts,
                                                  bool want_rows) {
  QueryBody query;
  query.snapshot_ts = snapshot_ts;
  query.table_id = table;
  query.want_rows = want_rows;
  std::string body;
  EncodeQueryBody(query, &body);
  Status s = WriteFrame(&socket_, FrameType::kQuery, body, io_timeout_ms_);
  if (!s.ok()) return s;
  Frame reply;
  s = ReadFrame(&socket_, &decoder_, io_timeout_ms_,
                /*idle_timeout_ms=*/io_timeout_ms_, kNeverStop, &reply);
  if (!s.ok()) return s;
  ScanResult result;
  switch (reply.type) {
    case FrameType::kBusy:
      result.busy = true;
      return result;
    case FrameType::kQueryOk: {
      Result<QueryReplyBody> decoded = DecodeQueryReplyBody(reply.body);
      if (!decoded.ok()) return decoded.status();
      result.pinned_ts = decoded->pinned_ts;
      result.digest = decoded->digest;
      result.row_count = decoded->row_count;
      result.rows = std::move(decoded->rows);
      return result;
    }
    case FrameType::kError:
      return Status::Aborted("server error: " + reply.body);
    default:
      return Status::Corruption("unexpected reply frame type");
  }
}

}  // namespace net
}  // namespace aets
