// Checkpoint/restore tests: image round-trips, corruption detection, and
// resuming replay from a checkpoint mid-stream.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "aets/common/rng.h"
#include "aets/log/codec.h"
#include "aets/primary/primary_db.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replication/durable_source.h"
#include "aets/replication/log_shipper.h"
#include "aets/storage/checkpoint.h"

namespace aets {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Catalog* MakeCatalog(int num_tables) {
  auto* catalog = new Catalog();
  for (int t = 0; t < num_tables; ++t) {
    AETS_CHECK(catalog
                   ->RegisterTable("t" + std::to_string(t),
                                   Schema::Of({{"a", ColumnType::kInt64},
                                               {"b", ColumnType::kString}}))
                   .ok());
  }
  return catalog;
}

void FillRandom(PrimaryDb* db, int num_tables, int num_txns, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < num_txns; ++i) {
    PrimaryTxn txn = db->Begin();
    int writes = static_cast<int>(rng.UniformInt(1, 4));
    for (int w = 0; w < writes; ++w) {
      TableId table = static_cast<TableId>(rng.UniformInt(0, num_tables - 1));
      if (rng.Bernoulli(0.1)) {
        txn.Delete(table, rng.UniformInt(0, 60));
      } else {
        txn.Insert(table, rng.UniformInt(0, 60),
                   {{0, Value(static_cast<int64_t>(i))},
                    {1, Value(rng.AlphaString(3, 10))}});
      }
    }
    ASSERT_TRUE(db->Commit(std::move(txn)).ok());
  }
}

TEST(CheckpointTest, RoundTripPreservesSnapshot) {
  std::unique_ptr<Catalog> catalog(MakeCatalog(3));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  FillRandom(&db, 3, 400, 1);
  Timestamp ts = db.last_commit_ts();

  std::string path = TempPath("ckpt_roundtrip");
  ASSERT_TRUE(Checkpointer::Write(db.store(), ts, /*next_epoch=*/7, path).ok());

  TableStore restored(*catalog);
  auto info = Checkpointer::Restore(path, &restored);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->snapshot_ts, ts);
  EXPECT_EQ(info->next_epoch_id, 7u);
  EXPECT_EQ(info->num_rows, db.store().VisibleRowCount(ts));
  EXPECT_EQ(restored.DigestAt(ts), db.store().DigestAt(ts));
  // Any later snapshot reads the same image (no post-snapshot versions).
  EXPECT_EQ(restored.DigestAt(ts + 100), db.store().DigestAt(ts));
}

TEST(CheckpointTest, SnapshotIsolation) {
  // The image reflects the requested snapshot, not later writes.
  std::unique_ptr<Catalog> catalog(MakeCatalog(1));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  PrimaryTxn txn1 = db.Begin();
  txn1.Insert(0, 1, {{0, Value(int64_t{1})}});
  Timestamp early = db.Commit(std::move(txn1))->commit_ts;
  PrimaryTxn txn2 = db.Begin();
  txn2.Insert(0, 2, {{0, Value(int64_t{2})}});
  ASSERT_TRUE(db.Commit(std::move(txn2)).ok());

  std::string path = TempPath("ckpt_snapshot");
  ASSERT_TRUE(Checkpointer::Write(db.store(), early, 0, path).ok());
  TableStore restored(*catalog);
  ASSERT_TRUE(Checkpointer::Restore(path, &restored).ok());
  EXPECT_EQ(restored.GetTable(0)->VisibleRowCount(early + 10), 1u);
}

TEST(CheckpointTest, DetectsCorruptionAndTruncation) {
  std::unique_ptr<Catalog> catalog(MakeCatalog(2));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  FillRandom(&db, 2, 100, 2);
  std::string path = TempPath("ckpt_corrupt");
  ASSERT_TRUE(
      Checkpointer::Write(db.store(), db.last_commit_ts(), 1, path).ok());

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  {  // bad magic
    std::string bad = bytes;
    bad[0] = 'X';
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bad;
    out.close();
    TableStore store(*catalog);
    EXPECT_TRUE(Checkpointer::Restore(path, &store).status().IsCorruption());
  }
  {  // flipped byte in a row record
    std::string bad = bytes;
    bad[bad.size() / 2] ^= 0x20;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bad;
    out.close();
    TableStore store(*catalog);
    EXPECT_FALSE(Checkpointer::Restore(path, &store).ok());
  }
  {  // truncated body
    std::string bad = bytes.substr(0, bytes.size() - 13);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bad;
    out.close();
    TableStore store(*catalog);
    EXPECT_FALSE(Checkpointer::Restore(path, &store).ok());
  }
  {  // table count mismatch
    std::unique_ptr<Catalog> other(MakeCatalog(5));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    out.close();
    TableStore store(*other);
    EXPECT_TRUE(
        Checkpointer::Restore(path, &store).status().IsInvalidArgument());
  }
}

TEST(CheckpointTest, BodyCorruptionIsACorruptionStatus) {
  // v2's whole-body CRC: damage anywhere past the header must be reported
  // as Corruption (v1 restored silently when a frame still parsed).
  std::unique_ptr<Catalog> catalog(MakeCatalog(1));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  FillRandom(&db, 1, 50, 6);
  std::string path = TempPath("ckpt_bodycrc");
  ASSERT_TRUE(
      Checkpointer::Write(db.store(), db.last_commit_ts(), 1, path).ok());

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() - 1] ^= 0x01;  // last body byte
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  out.close();

  TableStore store(*catalog);
  Status status = Checkpointer::Restore(path, &store).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("body"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsVersion1Images) {
  // Hand-build a v1 image (no body CRC). The v1 reader is retired: such an
  // image is NotSupported, never restored through the record checksums.
  struct V1Header {
    char magic[8];
    uint32_t version;
    uint32_t crc;
    uint64_t snapshot_ts;
    uint64_t next_epoch_id;
    uint64_t num_rows;
    uint64_t num_tables;
  };
  std::unique_ptr<Catalog> catalog(MakeCatalog(1));
  const Timestamp snapshot_ts = 5;

  std::string body;
  LogCodec::Encode(
      LogRecord::Dml(LogRecordType::kInsert, /*lsn=*/1, /*txn=*/1, snapshot_ts,
                     /*table=*/0, /*key=*/7,
                     {{0, Value(int64_t{42})}, {1, Value(std::string("x"))}}),
      &body);

  V1Header header{};
  std::memcpy(header.magic, "AETSCKPT", 8);
  header.version = 1;
  header.snapshot_ts = snapshot_ts;
  header.next_epoch_id = 3;
  header.num_rows = 1;
  header.num_tables = 1;
  header.crc = Crc32c(&header.snapshot_ts,
                      sizeof(V1Header) - offsetof(V1Header, snapshot_ts));

  std::string path = TempPath("ckpt_v1");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
  }

  TableStore store(*catalog);
  Status status = Checkpointer::Restore(path, &store).status();
  EXPECT_TRUE(status.IsNotSupported()) << status.ToString();
  EXPECT_EQ(store.GetTable(0)->VisibleRowCount(snapshot_ts), 0u);
  std::remove(path.c_str());
}

TEST(CheckpointTest, UnknownVersionIsNotSupported) {
  std::unique_ptr<Catalog> catalog(MakeCatalog(1));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  FillRandom(&db, 1, 10, 7);
  std::string path = TempPath("ckpt_version");
  ASSERT_TRUE(
      Checkpointer::Write(db.store(), db.last_commit_ts(), 0, path).ok());

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[8] = 9;  // version field follows the 8-byte magic
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  out.close();

  TableStore store(*catalog);
  EXPECT_TRUE(Checkpointer::Restore(path, &store).status().IsNotSupported());
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  std::unique_ptr<Catalog> catalog(MakeCatalog(1));
  TableStore store(*catalog);
  EXPECT_TRUE(Checkpointer::Restore(TempPath("no_such_ckpt"), &store)
                  .status()
                  .IsNotFound());
}

TEST(CheckpointTest, ReplayerResumeFromCheckpoint) {
  // Replay half the stream, checkpoint, bootstrap a fresh replayer from the
  // image, feed it only the remaining epochs: final state must match a
  // replayer that saw everything.
  constexpr int kTables = 3;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/16);
  EpochChannel recorder(0);
  shipper.AttachChannel(&recorder);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  FillRandom(&db, kTables, 600, 3);
  shipper.Finish();

  std::vector<ShippedEpoch> epochs;
  while (auto e = recorder.TryReceive()) epochs.push_back(std::move(*e));
  ASSERT_GT(epochs.size(), 4u);
  size_t half = epochs.size() / 2;

  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;

  // Phase 1: replay the first half, checkpoint, discard the replayer.
  std::string path = TempPath("ckpt_resume");
  {
    EpochChannel channel(0);
    for (size_t i = 0; i < half; ++i) channel.Send(epochs[i]);
    channel.Close();
    AetsReplayer first(catalog.get(), &channel, options);
    ASSERT_TRUE(first.Start().ok());
    first.Stop();
    ASSERT_TRUE(first.error().ok());
    ASSERT_TRUE(first.WriteCheckpoint(path).ok());
    EXPECT_EQ(first.next_expected_epoch(), half);
  }

  // Phase 2: bootstrap a fresh replayer and feed the remainder.
  EpochChannel channel(0);
  for (size_t i = half; i < epochs.size(); ++i) channel.Send(epochs[i]);
  channel.Close();
  AetsReplayer resumed(catalog.get(), &channel, options);
  ASSERT_TRUE(resumed.Bootstrap(path).ok());
  ASSERT_TRUE(resumed.Start().ok());
  resumed.Stop();
  ASSERT_TRUE(resumed.error().ok()) << resumed.error().ToString();

  Timestamp final_ts = db.last_commit_ts();
  EXPECT_EQ(resumed.store()->DigestAt(final_ts),
            db.store().DigestAt(final_ts));
  EXPECT_EQ(resumed.GlobalVisibleTs(), final_ts);
  std::remove(path.c_str());
}

TEST(CheckpointTest, WriteCommitsAtomicallyViaRename) {
  // The image appears under its final name only; no .tmp staging file may
  // survive a successful Write, and rewriting an existing image replaces it
  // whole (a reader never sees a half-written file at the committed path).
  std::unique_ptr<Catalog> catalog(MakeCatalog(2));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  FillRandom(&db, 2, 200, 8);

  std::string dir = TempPath("ckpt_atomic_dir");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  std::string path = dir + "/image";
  Timestamp mid = db.last_commit_ts();
  ASSERT_TRUE(Checkpointer::Write(db.store(), mid, 1, path).ok());
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string(), "image")
        << "staging file left behind: " << entry.path();
  }

  // Overwrite with a later snapshot: the committed file must read back as
  // exactly the new image.
  FillRandom(&db, 2, 200, 9);
  Timestamp late = db.last_commit_ts();
  ASSERT_TRUE(Checkpointer::Write(db.store(), late, 2, path).ok());
  TableStore restored(*catalog);
  auto info = Checkpointer::Restore(path, &restored);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->snapshot_ts, late);
  EXPECT_EQ(info->next_epoch_id, 2u);
  EXPECT_EQ(restored.DigestAt(late), db.store().DigestAt(late));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, WriteToUnreachableDirectoryFailsCleanly) {
  std::unique_ptr<Catalog> catalog(MakeCatalog(1));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  FillRandom(&db, 1, 10, 10);
  Status status = Checkpointer::Write(db.store(), db.last_commit_ts(), 0,
                                      TempPath("no_such_dir") + "/image");
  EXPECT_FALSE(status.ok());
}

TEST(CheckpointTest, CheckpointFileHelpersOrderNewestFirst) {
  // ListCheckpointFiles drives recovery's "newest image first" candidate
  // loop; the zero-padded hex names must sort by epoch, not string length.
  std::string dir = TempPath("ckpt_helpers_dir");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  for (EpochId id : {3u, 300u, 27u}) {
    std::ofstream out(CheckpointPathFor(dir, id));
    out << "stub";
  }
  std::ofstream(dir + "/seg-0000000000000000.log") << "not a checkpoint";

  auto files = ListCheckpointFiles(dir);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0], CheckpointPathFor(dir, 300));
  EXPECT_EQ(files[1], CheckpointPathFor(dir, 27));
  EXPECT_EQ(files[2], CheckpointPathFor(dir, 3));

  // Pruning keeps the newest images and tolerates keep > count.
  PruneCheckpoints(dir, 2);
  files = ListCheckpointFiles(dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], CheckpointPathFor(dir, 300));
  EXPECT_EQ(files[1], CheckpointPathFor(dir, 27));
  PruneCheckpoints(dir, 10);
  EXPECT_EQ(ListCheckpointFiles(dir).size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, BootstrapRejectsUsedReplayer) {
  std::unique_ptr<Catalog> catalog(MakeCatalog(1));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  FillRandom(&db, 1, 20, 4);
  std::string path = TempPath("ckpt_guard");
  ASSERT_TRUE(
      Checkpointer::Write(db.store(), db.last_commit_ts(), 0, path).ok());

  EpochChannel channel(0);
  channel.Send(MakeHeartbeatEpoch(0, 1));
  channel.Close();
  AetsOptions options;
  options.replay_threads = 1;
  AetsReplayer replayer(catalog.get(), &channel, options);
  ASSERT_TRUE(replayer.Start().ok());
  replayer.Stop();
  // Already processed epochs: bootstrap must refuse.
  EXPECT_TRUE(replayer.Bootstrap(path).IsInvalidArgument());
}

// ChooseRestartPoint: the recovery policy every backup lane restarts
// through. Images are real checkpoints; `restore` restores each candidate
// into a fresh store, the way a restarting replayer bootstraps.
class RestartPointTest : public ::testing::Test {
 protected:
  RestartPointTest()
      : catalog_(MakeCatalog(2)),
        db_(catalog_.get(), &clock_),
        dir_(TempPath("restart_point_dir")) {
    std::filesystem::remove_all(dir_);
    AETS_CHECK(std::filesystem::create_directories(dir_));
    FillRandom(&db_, 2, 50, 11);
  }
  ~RestartPointTest() override { std::filesystem::remove_all(dir_); }

  // Writes an image named for `named_epoch` whose header says `next_epoch`
  // (the two differ only for a misnamed file).
  void WriteImage(EpochId named_epoch, EpochId next_epoch) {
    ASSERT_TRUE(Checkpointer::Write(db_.store(), db_.last_commit_ts(),
                                    next_epoch,
                                    CheckpointPathFor(dir_, named_epoch))
                    .ok());
  }
  void WriteImage(EpochId next_epoch) { WriteImage(next_epoch, next_epoch); }

  void Corrupt(EpochId named_epoch) {
    std::string path = CheckpointPathFor(dir_, named_epoch);
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(-1, std::ios::end);
    char last = static_cast<char>(f.get());
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(last ^ 0x01));  // last body byte
  }

  Result<RestartPoint> Choose(EpochId log_first, EpochId log_next) {
    return ChooseRestartPoint(
        dir_, log_first, log_next,
        [this](const std::string& image) -> Result<EpochId> {
          restored_.push_back(image);
          TableStore store(*catalog_);
          auto info = Checkpointer::Restore(image, &store);
          if (!info.ok()) return info.status();
          return info->next_epoch_id;
        });
  }

  std::unique_ptr<Catalog> catalog_;
  LogicalClock clock_;
  PrimaryDb db_;
  std::string dir_;
  std::vector<std::string> restored_;  // every image `restore` was asked for
};

TEST_F(RestartPointTest, NewestImageWins) {
  for (EpochId id : {4u, 9u, 15u}) WriteImage(id);
  auto point = Choose(/*log_first=*/0, /*log_next=*/20);
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  EXPECT_EQ(point->image, CheckpointPathFor(dir_, 15));
  EXPECT_EQ(point->next_epoch, 15u);
  EXPECT_TRUE(point->rejected.empty());
  EXPECT_EQ(restored_.size(), 1u);
}

TEST_F(RestartPointTest, CorruptNewestImageFallsBackToTheNextOne) {
  for (EpochId id : {4u, 9u, 15u}) WriteImage(id);
  Corrupt(15);
  auto point = Choose(0, 20);
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  EXPECT_EQ(point->image, CheckpointPathFor(dir_, 9));
  EXPECT_EQ(point->next_epoch, 9u);
  ASSERT_EQ(point->rejected.size(), 1u);
  EXPECT_EQ(point->rejected[0].rfind(CheckpointPathFor(dir_, 15), 0), 0u);
  // The last restore is the chosen image: a caller bootstrapping inside
  // `restore` is left holding the right backup.
  EXPECT_EQ(restored_.back(), point->image);
}

TEST_F(RestartPointTest, ImageAheadOfTheLogIsSkipped) {
  // A damaged log tail ends at epoch 12: restoring image 15 would fake
  // epochs 12..14, which the log cannot replay.
  for (EpochId id : {4u, 9u, 15u}) WriteImage(id);
  auto point = Choose(0, 12);
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  EXPECT_EQ(point->next_epoch, 9u);
  ASSERT_EQ(point->rejected.size(), 1u);
  EXPECT_NE(point->rejected[0].find("ahead"), std::string::npos);
  // next_epoch == log_next is inside the range: nothing left to replay.
  auto exact = Choose(0, 15);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->next_epoch, 15u);
}

TEST_F(RestartPointTest, ImageBelowTheTruncationFloorIsSkipped) {
  // The file named for epoch 15 holds an image of epoch 3: the policy
  // trusts the restored header, not the name, and 3 cannot bridge a log
  // truncated at 10. The older, correctly named image 11 can.
  WriteImage(11);
  WriteImage(/*named_epoch=*/15, /*next_epoch=*/3);
  auto point = Choose(/*log_first=*/10, /*log_next=*/20);
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  EXPECT_EQ(point->image, CheckpointPathFor(dir_, 11));
  ASSERT_EQ(point->rejected.size(), 1u);
  EXPECT_NE(point->rejected[0].find("below the truncation floor"),
            std::string::npos);
  // The floor itself is inside the range.
  EXPECT_EQ(Choose(11, 20)->next_epoch, 11u);
}

TEST_F(RestartPointTest, TruncatedLogWithoutABridgingImageIsAnError) {
  for (EpochId id : {4u, 9u}) WriteImage(id);
  auto point = Choose(/*log_first=*/10, /*log_next=*/20);
  ASSERT_FALSE(point.ok());
  EXPECT_TRUE(point.status().IsBelowCheckpoint()) << point.status().ToString();
  EXPECT_EQ(restored_.size(), 2u);  // every candidate was tried first

  // No image at all: still an error, never a cold replay from epoch 0.
  std::filesystem::remove_all(dir_);
  EXPECT_TRUE(Choose(10, 20).status().IsBelowCheckpoint());
}

TEST_F(RestartPointTest, EmptyDirectoryWithAnUntruncatedLogIsAColdStart) {
  auto point = Choose(/*log_first=*/0, /*log_next=*/7);
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  EXPECT_TRUE(point->image.empty());
  EXPECT_EQ(point->next_epoch, 0u);
  EXPECT_TRUE(restored_.empty());
  // Same when every image is unusable but the log is whole.
  WriteImage(9);
  Corrupt(9);
  auto cold = Choose(0, 7);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(cold->image.empty());
  EXPECT_EQ(cold->rejected.size(), 1u);
}

}  // namespace
}  // namespace aets
