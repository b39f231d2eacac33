#ifndef AETS_PRIMARY_PRIMARY_DB_H_
#define AETS_PRIMARY_PRIMARY_DB_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "aets/catalog/catalog.h"
#include "aets/common/clock.h"
#include "aets/common/result.h"
#include "aets/log/epoch.h"
#include "aets/log/record.h"
#include "aets/storage/table_store.h"

namespace aets {

/// A buffered read-write transaction on the primary. Writes accumulate in the
/// transaction and only reach the primary's state (and the value log) at
/// commit time.
class PrimaryTxn {
 public:
  void Insert(TableId table, int64_t row_key, std::vector<ColumnValue> values);
  void Update(TableId table, int64_t row_key, std::vector<ColumnValue> values);
  void Delete(TableId table, int64_t row_key);

  size_t num_writes() const { return writes_.size(); }

 private:
  friend class PrimaryDb;

  struct Write {
    LogRecordType type;
    TableId table;
    int64_t row_key;
    std::vector<ColumnValue> values;
  };
  std::vector<Write> writes_;
};

/// What PrimaryDb::Commit returns: the identity the commit was assigned.
/// The transaction's log is not part of it — it goes to the commit sink.
struct CommitInfo {
  TxnId txn_id = kInvalidTxnId;
  Timestamp commit_ts = kInvalidTimestamp;
};

/// The primary-node OLTP engine. It stands in for the MySQL primary of the
/// paper's testbed: it executes read-write transactions against its own
/// MVCC TableStore, assigns monotonically increasing transaction IDs that
/// define the commit order, and emits SiloR-style value logs. A commit sink
/// (the LogShipper) receives each committed TxnLog in commit order.
class PrimaryDb {
 public:
  /// `clock` is the shared timestamp oracle; queries on the backup draw
  /// their snapshot timestamps from the same clock.
  PrimaryDb(const Catalog* catalog, LogicalClock* clock);

  PrimaryDb(const PrimaryDb&) = delete;
  PrimaryDb& operator=(const PrimaryDb&) = delete;

  PrimaryTxn Begin() const { return PrimaryTxn(); }

  /// Commits `txn`: assigns txn id + commit timestamp, applies the writes to
  /// the primary state, counts them per table, and moves the TxnLog into the
  /// commit sink — the log exists once and is never copied; without a sink
  /// it is dropped. Returns only the assigned id and timestamp, so a caller
  /// that wants the records installs a sink. Empty transactions are
  /// rejected.
  Result<CommitInfo> Commit(PrimaryTxn&& txn);

  /// Registers the commit-order consumer (at most one; typically the
  /// LogShipper). Must be set before the first commit that should ship.
  void SetCommitSink(std::function<void(TxnLog)> sink);

  /// Reads from the primary's own state (used by tests to cross-check the
  /// backup and by the paper's "route fresh queries to primary" discussion).
  std::optional<Row> Read(TableId table, int64_t row_key, Timestamp ts) const;

  /// Issues a timestamp that is safe to ship as a heartbeat: holding the
  /// commit mutex guarantees no commit is in flight, so every transaction
  /// with commit_ts below the returned value has already reached the commit
  /// sink, and every future commit will be above it.
  Timestamp AcquireHeartbeatTs();

  const TableStore& store() const { return store_; }
  /// DML records committed so far, per table (the paper's Table I log
  /// statistics). Tables never written are absent.
  std::map<TableId, uint64_t> DmlCountsByTable() const;
  LogicalClock* clock() const { return clock_; }

  TxnId last_committed_txn() const {
    return next_txn_id_.load(std::memory_order_relaxed) - 1;
  }
  Timestamp last_commit_ts() const {
    return last_commit_ts_.load(std::memory_order_relaxed);
  }

 private:
  const Catalog* catalog_;
  LogicalClock* clock_;
  TableStore store_;
  std::function<void(TxnLog)> sink_;

  mutable std::mutex commit_mu_;  // serializes commit order
  std::vector<uint64_t> dml_by_table_;  // guarded by commit_mu_
  std::atomic<TxnId> next_txn_id_{1};
  std::atomic<Lsn> next_lsn_{1};
  std::atomic<Timestamp> last_commit_ts_{kInvalidTimestamp};
};

}  // namespace aets

#endif  // AETS_PRIMARY_PRIMARY_DB_H_
