// Durable segment store (DESIGN.md §10): frame round-trips, rollover and
// manifest handling, torn-tail truncation on reopen, the damage-provenance
// rule (sealed-segment or manifest damage is Corruption, never a silent
// truncation), disk-full degradation through the write fault hook, and a
// seeded kill-at-any-byte chaos sweep.
//
// This binary has its own main(): `--chaos_iters=N` (or AETS_CHAOS_ITERS)
// scales the chaos sweep for the nightly run.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "aets/log/codec.h"
#include "aets/log/epoch.h"
#include "aets/log/record.h"
#include "aets/log/shipped_epoch.h"
#include "aets/storage/segment_store.h"
#include "test_seed.h"

static int g_chaos_iters = 2;

namespace aets {
namespace {

namespace fs = std::filesystem;

SegmentStoreOptions DirOptions(const std::string& dir) {
  SegmentStoreOptions options;
  options.dir = dir;
  return options;
}

std::string FreshDir(const char* name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  return dir;
}

// One data epoch with `txns` single-insert transactions; payload size scales
// with `value_len` so tests can steer rollover behavior.
ShippedEpoch MakeEpoch(EpochId id, Timestamp ts, int txns = 1,
                       size_t value_len = 8) {
  Epoch epoch;
  epoch.epoch_id = id;
  for (int t = 0; t < txns; ++t) {
    TxnLog txn;
    txn.txn_id = static_cast<TxnId>(id * 100 + t + 1);
    txn.commit_ts = ts + t;
    txn.records = {
        LogRecord::Begin(1, txn.txn_id, txn.commit_ts),
        LogRecord::Dml(LogRecordType::kInsert, 2, txn.txn_id, txn.commit_ts,
                       0, static_cast<int64_t>(t),
                       {{0, Value(std::string(value_len, 'x'))}}),
        LogRecord::Commit(3, txn.txn_id, txn.commit_ts)};
    epoch.txns.push_back(std::move(txn));
  }
  return EncodeEpoch(epoch);
}

void ExpectSameEpoch(const ShippedEpoch& got, const ShippedEpoch& want) {
  EXPECT_EQ(got.epoch_id, want.epoch_id);
  EXPECT_EQ(got.num_txns, want.num_txns);
  EXPECT_EQ(got.num_records, want.num_records);
  EXPECT_EQ(got.first_txn, want.first_txn);
  EXPECT_EQ(got.last_txn, want.last_txn);
  EXPECT_EQ(got.max_commit_ts, want.max_commit_ts);
  EXPECT_EQ(got.heartbeat_ts, want.heartbeat_ts);
  EXPECT_EQ(got.payload_crc, want.payload_crc);
  ASSERT_TRUE(got.payload != nullptr);
  ASSERT_TRUE(want.payload != nullptr);
  EXPECT_EQ(*got.payload, *want.payload);
  EXPECT_TRUE(got.PayloadIntact());
}

std::string NewestSegment(const std::string& dir) {
  std::string newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0 && name > newest) newest = name;
  }
  return dir + "/" + newest;
}

void FlipByte(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char b;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0xFF);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
}

TEST(SegmentStoreTest, RoundTripAcrossReopen) {
  std::string dir = FreshDir("segstore_roundtrip");
  std::vector<ShippedEpoch> epochs;
  for (EpochId id = 0; id < 10; ++id) {
    if (id % 4 == 3) {
      epochs.push_back(MakeHeartbeatEpoch(id, 1000 + id));
    } else {
      epochs.push_back(MakeEpoch(id, 10 * id + 1, /*txns=*/3));
    }
  }
  {
    auto store = SegmentStore::Open(DirOptions(dir));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE((*store)->empty());
    for (const auto& e : epochs) {
      ASSERT_TRUE((*store)->Append(e).ok());
    }
    EXPECT_EQ((*store)->next_epoch(), 10u);
    for (const auto& want : epochs) {
      auto got = (*store)->Read(want.epoch_id);
      ASSERT_TRUE(got.has_value()) << want.epoch_id;
      ExpectSameEpoch(*got, want);
    }
    EXPECT_FALSE((*store)->Read(10).has_value());
    EXPECT_GT((*store)->bytes_written(), 0u);
  }
  // Reopen: the index rebuilds from the files alone.
  auto reopened = SegmentStore::Open(DirOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->first_epoch(), 0u);
  EXPECT_EQ((*reopened)->next_epoch(), 10u);
  EXPECT_EQ((*reopened)->torn_frames_truncated(), 0u);
  for (const auto& want : epochs) {
    auto got = (*reopened)->Read(want.epoch_id);
    ASSERT_TRUE(got.has_value()) << want.epoch_id;
    ExpectSameEpoch(*got, want);
  }
  // And appending continues the sequence.
  ShippedEpoch next = MakeEpoch(10, 500);
  ASSERT_TRUE((*reopened)->Append(next).ok());
  auto got = (*reopened)->Read(10);
  ASSERT_TRUE(got.has_value());
  ExpectSameEpoch(*got, next);
}

TEST(SegmentStoreTest, RolloverSealsFixedSizeSegments) {
  std::string dir = FreshDir("segstore_rollover");
  SegmentStoreOptions options;
  options.dir = dir;
  options.segment_max_bytes = 2048;
  auto store = SegmentStore::Open(options);
  ASSERT_TRUE(store.ok());
  for (EpochId id = 0; id < 40; ++id) {
    ASSERT_TRUE((*store)->Append(MakeEpoch(id, id + 1, 2, 64)).ok());
  }
  EXPECT_GT((*store)->num_segments(), 3u);
  for (EpochId id = 0; id < 40; ++id) {
    EXPECT_TRUE((*store)->Read(id).has_value()) << id;
  }
  // Reopen sees the same segmentation and the same epochs.
  auto reopened = SegmentStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_segments(), (*store)->num_segments());
  EXPECT_EQ((*reopened)->next_epoch(), 40u);
  for (EpochId id = 0; id < 40; ++id) {
    EXPECT_TRUE((*reopened)->Read(id).has_value()) << id;
  }
}

TEST(SegmentStoreTest, AppendEnforcesTheEpochSequence) {
  std::string dir = FreshDir("segstore_sequence");
  auto store = SegmentStore::Open(DirOptions(dir));
  ASSERT_TRUE(store.ok());
  // First append sets the base: a store can start mid-sequence.
  ASSERT_TRUE((*store)->Append(MakeEpoch(5, 51)).ok());
  EXPECT_EQ((*store)->first_epoch(), 5u);
  Status s = (*store)->Append(MakeEpoch(9, 91));  // gap
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  ASSERT_TRUE((*store)->Append(MakeEpoch(6, 61)).ok());
  EXPECT_EQ((*store)->next_epoch(), 7u);
  EXPECT_FALSE((*store)->Read(4).has_value());
}

TEST(SegmentStoreTest, TornTailIsTruncatedOnReopen) {
  std::string dir = FreshDir("segstore_torn");
  {
    auto store = SegmentStore::Open(DirOptions(dir));
    ASSERT_TRUE(store.ok());
    for (EpochId id = 0; id < 6; ++id) {
      ASSERT_TRUE((*store)->Append(MakeEpoch(id, id + 1)).ok());
    }
  }
  // A torn write: garbage bytes past the last complete frame.
  {
    std::ofstream f(NewestSegment(dir), std::ios::binary | std::ios::app);
    f.write("\x13garbage-torn-tail\x37", 19);
  }
  auto reopened = SegmentStore::Open(DirOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->next_epoch(), 6u);
  EXPECT_EQ((*reopened)->torn_frames_truncated(), 1u);
  for (EpochId id = 0; id < 6; ++id) {
    EXPECT_TRUE((*reopened)->Read(id).has_value()) << id;
  }
  // The tail is clean again: appends continue where the damage was cut.
  ASSERT_TRUE((*reopened)->Append(MakeEpoch(6, 7)).ok());
  auto third = SegmentStore::Open(DirOptions(dir));
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ((*third)->next_epoch(), 7u);
}

TEST(SegmentStoreTest, BadFrameInNewestSegmentDropsTheSuffix) {
  std::string dir = FreshDir("segstore_midflip");
  {
    auto store = SegmentStore::Open(DirOptions(dir));
    ASSERT_TRUE(store.ok());
    for (EpochId id = 0; id < 8; ++id) {
      ASSERT_TRUE((*store)->Append(MakeEpoch(id, id + 1)).ok());
    }
  }
  // Flip a byte mid-file: the scan keeps the clean prefix and discards the
  // rest — a shorter durable history, never a wrong one.
  std::string seg = NewestSegment(dir);
  FlipByte(seg, fs::file_size(seg) / 2);
  auto reopened = SegmentStore::Open(DirOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_LT((*reopened)->next_epoch(), 8u);
  EXPECT_GT((*reopened)->torn_frames_truncated(), 0u);
  for (EpochId id = 0; id < (*reopened)->next_epoch(); ++id) {
    EXPECT_TRUE((*reopened)->Read(id).has_value()) << id;
  }
}

TEST(SegmentStoreTest, CrcValidMalformedBodyIsAMissNotACrash) {
  // CRC32C detects damage but does not authenticate: a frame whose checksum
  // matches a body that does not decode must be reported, never abort.
  std::string dir = FreshDir("segstore_bad_body");
  {
    auto store = SegmentStore::Open(DirOptions(dir));
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(MakeHeartbeatEpoch(0, 1000)).ok());
  }
  const std::string seg = NewestSegment(dir);
  std::string raw;
  {
    std::ifstream in(seg, std::ios::binary);
    raw.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(raw.size(), kCrcFrameHeaderBytes + kEpochBodyHeaderBytes);
  // payload_len sits at body offset 60; claim 3 bytes the body lacks, then
  // re-seal the frame so only the body decoder can tell.
  const uint32_t bad_len = 3;
  std::memcpy(&raw[kCrcFrameHeaderBytes + 60], &bad_len, sizeof(bad_len));
  const uint32_t crc = Crc32c(raw.data() + kCrcFrameHeaderBytes,
                              raw.size() - kCrcFrameHeaderBytes);
  std::memcpy(&raw[0], &crc, sizeof(crc));
  {
    std::ofstream out(seg, std::ios::binary | std::ios::trunc);
    out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
  }
  auto reopened = SegmentStore::Open(DirOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->next_epoch(), 1u);
  EXPECT_FALSE((*reopened)->Read(0).has_value());
}

TEST(SegmentStoreTest, SealedSegmentDamageIsCorruption) {
  std::string dir = FreshDir("segstore_sealed");
  SegmentStoreOptions options;
  options.dir = dir;
  options.segment_max_bytes = 512;
  {
    auto store = SegmentStore::Open(options);
    ASSERT_TRUE(store.ok());
    for (EpochId id = 0; id < 20; ++id) {
      ASSERT_TRUE((*store)->Append(MakeEpoch(id, id + 1, 1, 64)).ok());
    }
    ASSERT_GT((*store)->num_segments(), 1u);
  }
  // Damage the OLDEST segment: those bytes were sealed and fsynced;
  // truncating them away would silently rewrite durable history.
  std::string oldest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) != 0) continue;
    if (oldest.empty() || name < oldest) oldest = name;
  }
  FlipByte(dir + "/" + oldest, 20);
  auto reopened = SegmentStore::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
}

TEST(SegmentStoreTest, ManifestDamageIsCorruption) {
  std::string dir = FreshDir("segstore_manifest");
  {
    auto store = SegmentStore::Open(DirOptions(dir));
    ASSERT_TRUE(store.ok());
    for (EpochId id = 0; id < 4; ++id) {
      ASSERT_TRUE((*store)->Append(MakeEpoch(id, id + 1)).ok());
    }
  }
  FlipByte(dir + "/MANIFEST", 12);  // inside the manifest checksum
  auto reopened = SegmentStore::Open(DirOptions(dir));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
}

TEST(SegmentStoreTest, SegmentsWithoutManifestAreCorruption) {
  std::string dir = FreshDir("segstore_nomanifest");
  {
    auto store = SegmentStore::Open(DirOptions(dir));
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(MakeEpoch(0, 1)).ok());
  }
  fs::remove(dir + "/MANIFEST");
  auto reopened = SegmentStore::Open(DirOptions(dir));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
}

TEST(SegmentStoreTest, DiskFullFailsTheAppendNotTheStore) {
  std::string dir = FreshDir("segstore_diskfull");
  SegmentStoreOptions options;
  options.dir = dir;
  bool full = false;
  options.write_fault_hook = [&full](size_t) {
    return full ? Status::Internal("injected: disk full") : Status::OK();
  };
  auto store = SegmentStore::Open(options);
  ASSERT_TRUE(store.ok());
  for (EpochId id = 0; id < 4; ++id) {
    ASSERT_TRUE((*store)->Append(MakeEpoch(id, id + 1)).ok());
  }
  full = true;
  ShippedEpoch blocked = MakeEpoch(4, 5);
  EXPECT_FALSE((*store)->Append(blocked).ok());
  // The store is consistent at its previous prefix, and the failed append
  // is retryable once space frees up.
  EXPECT_EQ((*store)->next_epoch(), 4u);
  EXPECT_TRUE((*store)->Read(3).has_value());
  full = false;
  ASSERT_TRUE((*store)->Append(blocked).ok());
  EXPECT_EQ((*store)->next_epoch(), 5u);
  auto reopened = SegmentStore::Open(DirOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->next_epoch(), 5u);
}

TEST(SegmentStoreTest, TruncateBelowDropsSealedPrefixAndSurvivesReopen) {
  std::string dir = FreshDir("segstore_truncate");
  SegmentStoreOptions options;
  options.dir = dir;
  options.segment_max_bytes = 1024;
  auto store = SegmentStore::Open(options);
  ASSERT_TRUE(store.ok());
  for (EpochId id = 0; id < 40; ++id) {
    ASSERT_TRUE((*store)->Append(MakeEpoch(id, id + 1, 2, 64)).ok());
  }
  size_t segments_before = (*store)->num_segments();
  ASSERT_GT(segments_before, 3u);
  uint64_t disk_before = (*store)->disk_bytes();

  ASSERT_TRUE((*store)->TruncateBelow(20).ok());
  EpochId first = (*store)->first_epoch();
  EXPECT_GT(first, 0u);
  EXPECT_LE(first, 20u);
  EXPECT_EQ((*store)->next_epoch(), 40u);
  EXPECT_EQ((*store)->truncations(), 1u);
  EXPECT_GT((*store)->segments_deleted(), 0u);
  EXPECT_GT((*store)->bytes_reclaimed(), 0u);
  EXPECT_LT((*store)->disk_bytes(), disk_before);
  for (EpochId id = 0; id < first; ++id) {
    EXPECT_FALSE((*store)->Read(id).has_value()) << id;
  }
  for (EpochId id = first; id < 40; ++id) {
    auto got = (*store)->Read(id);
    ASSERT_TRUE(got.has_value()) << id;
    EXPECT_TRUE(got->PayloadIntact());
  }

  // Reopen sees the truncated store, not the dropped prefix, and appends
  // continue the sequence.
  auto reopened = SegmentStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->first_epoch(), first);
  EXPECT_EQ((*reopened)->next_epoch(), 40u);
  EXPECT_FALSE((*reopened)->Read(first - 1).has_value());
  ASSERT_TRUE((*reopened)->Append(MakeEpoch(40, 41)).ok());
  for (EpochId id = first; id < 41; ++id) {
    EXPECT_TRUE((*reopened)->Read(id).has_value()) << id;
  }
}

TEST(SegmentStoreTest, TruncateBelowKeepsTheNewestSegment) {
  std::string dir = FreshDir("segstore_truncate_all");
  SegmentStoreOptions options;
  options.dir = dir;
  options.segment_max_bytes = 1024;
  auto store = SegmentStore::Open(options);
  ASSERT_TRUE(store.ok());
  for (EpochId id = 0; id < 30; ++id) {
    ASSERT_TRUE((*store)->Append(MakeEpoch(id, id + 1, 2, 64)).ok());
  }
  // Floor past the end: everything sealed goes, the append head stays.
  ASSERT_TRUE((*store)->TruncateBelow((*store)->next_epoch()).ok());
  EXPECT_EQ((*store)->num_segments(), 1u);
  EXPECT_EQ((*store)->next_epoch(), 30u);
  EpochId first = (*store)->first_epoch();
  for (EpochId id = first; id < 30; ++id) {
    EXPECT_TRUE((*store)->Read(id).has_value()) << id;
  }
  ASSERT_TRUE((*store)->Append(MakeEpoch(30, 31)).ok());
  auto reopened = SegmentStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->first_epoch(), first);
  EXPECT_EQ((*reopened)->next_epoch(), 31u);
}

TEST(SegmentStoreTest, TruncateBelowInsideFirstSegmentIsANoOp) {
  std::string dir = FreshDir("segstore_truncate_noop");
  auto store = SegmentStore::Open(DirOptions(dir));
  ASSERT_TRUE(store.ok());
  for (EpochId id = 0; id < 6; ++id) {
    ASSERT_TRUE((*store)->Append(MakeEpoch(id, id + 1)).ok());
  }
  // Everything lives in one segment: nothing is wholly below the floor.
  ASSERT_TRUE((*store)->TruncateBelow(4).ok());
  EXPECT_EQ((*store)->first_epoch(), 0u);
  EXPECT_EQ((*store)->truncations(), 0u);
  EXPECT_EQ((*store)->segments_deleted(), 0u);
  for (EpochId id = 0; id < 6; ++id) {
    EXPECT_TRUE((*store)->Read(id).has_value()) << id;
  }
}

// Kill-at-any-point over the truncation sequence: the fault hook aborts at
// step 0 (before the manifest rewrite) and at every unlink boundary after
// it. Whatever the crash window, reopen must land on a consistent store —
// never Corruption, never a resurrected pre-floor epoch — and a re-issued
// TruncateBelow must finish the job.
TEST(SegmentStoreChaosTest, KillAnywhereInTruncationReopensConsistently) {
  for (int iter = 0; iter < g_chaos_iters; ++iter) {
    uint64_t seed = test::DeriveSeed(1700u + static_cast<uint64_t>(iter));
    const int total = 24 + static_cast<int>(seed % 16);
    const EpochId floor = static_cast<EpochId>(total / 2);
    bool exhausted = false;
    for (int step = 0; !exhausted; ++step) {
      std::string dir = FreshDir("segstore_truncchaos");
      SegmentStoreOptions options;
      options.dir = dir;
      options.segment_max_bytes = 1024 + (seed % 2048);
      options.truncate_fault_hook = [step](int at) {
        return at == step ? Status::Internal("injected crash") : Status::OK();
      };
      auto store = SegmentStore::Open(options);
      ASSERT_TRUE(store.ok());
      for (EpochId id = 0; id < static_cast<EpochId>(total); ++id) {
        int txns = 1 + static_cast<int>((seed >> (id % 32)) % 3);
        ASSERT_TRUE((*store)->Append(MakeEpoch(id, id + 1, txns, 48)).ok());
      }
      EpochId first_before = (*store)->first_epoch();
      Status ts = (*store)->TruncateBelow(floor);
      // Once the step index runs past the last unlink the hook never fires
      // and the truncation completes — that bounds the sweep.
      exhausted = ts.ok();
      (*store).reset();  // the "crash": drop the process state, keep the dir

      options.truncate_fault_hook = nullptr;
      auto reopened = SegmentStore::Open(options);
      ASSERT_TRUE(reopened.ok()) << "iter " << iter << " step " << step << ": "
                                 << reopened.status().ToString();
      EpochId first = (*reopened)->first_epoch();
      // Either crash window: the floor segment's start when the manifest
      // rewrite landed, the old base when the crash beat it.
      if (step == 0 && !exhausted) {
        EXPECT_EQ(first, first_before) << "iter " << iter;
      } else {
        EXPECT_GT(first, first_before) << "iter " << iter << " step " << step;
        EXPECT_LE(first, floor) << "iter " << iter << " step " << step;
      }
      EXPECT_EQ((*reopened)->next_epoch(), static_cast<EpochId>(total));
      for (EpochId id = first; id < static_cast<EpochId>(total); ++id) {
        auto got = (*reopened)->Read(id);
        ASSERT_TRUE(got.has_value())
            << "iter " << iter << " step " << step << " epoch " << id;
        EXPECT_TRUE(got->PayloadIntact());
      }
      for (EpochId id = 0; id < first; ++id) {
        EXPECT_FALSE((*reopened)->Read(id).has_value())
            << "iter " << iter << " step " << step << " resurrected " << id;
      }
      // Reopen swept the orphans the interrupted unlink pass left behind:
      // no segment file on disk may start below the manifest's first entry
      // (the file names encode their first epoch as 16 hex digits).
      for (const auto& entry : fs::directory_iterator(dir)) {
        std::string name = entry.path().filename().string();
        if (name.rfind("seg-", 0) != 0) continue;
        EpochId file_first =
            static_cast<EpochId>(std::strtoull(name.substr(4, 16).c_str(),
                                               nullptr, 16));
        EXPECT_GE(file_first, first)
            << "iter " << iter << " step " << step << " orphan " << name;
      }
      // Re-issued truncation completes and leaves the same floor invariant.
      ASSERT_TRUE((*reopened)->TruncateBelow(floor).ok());
      EXPECT_LE((*reopened)->first_epoch(), floor);
      ASSERT_TRUE((*reopened)
                      ->Append(MakeEpoch(static_cast<EpochId>(total),
                                         static_cast<Timestamp>(total) + 1))
                      .ok());
    }
  }
}

// Kill-at-any-byte: truncate the newest segment at a random offset (what a
// crash mid-write leaves behind) and demand reopen always lands on a clean
// prefix that can keep appending.
TEST(SegmentStoreChaosTest, RandomTruncationAlwaysLeavesACleanPrefix) {
  for (int iter = 0; iter < g_chaos_iters * 8; ++iter) {
    uint64_t seed = test::DeriveSeed(900u + static_cast<uint64_t>(iter));
    std::string dir = FreshDir("segstore_chaos");
    SegmentStoreOptions options;
    options.dir = dir;
    options.segment_max_bytes = 1024 + (seed % 4096);
    int total = 12 + static_cast<int>(seed % 24);
    {
      auto store = SegmentStore::Open(options);
      ASSERT_TRUE(store.ok());
      for (EpochId id = 0; id < static_cast<EpochId>(total); ++id) {
        int txns = 1 + static_cast<int>((seed >> (id % 32)) % 3);
        ASSERT_TRUE((*store)->Append(MakeEpoch(id, id + 1, txns)).ok());
      }
    }
    std::string seg = NewestSegment(dir);
    size_t size = fs::file_size(seg);
    fs::resize_file(seg, (seed >> 17) % (size + 1));

    auto reopened = SegmentStore::Open(options);
    ASSERT_TRUE(reopened.ok())
        << "iter " << iter << ": " << reopened.status().ToString();
    EpochId next = (*reopened)->next_epoch();
    EXPECT_LE(next, static_cast<EpochId>(total));
    for (EpochId id = 0; id < next; ++id) {
      auto got = (*reopened)->Read(id);
      ASSERT_TRUE(got.has_value()) << "iter " << iter << " epoch " << id;
      EXPECT_EQ(got->epoch_id, id);
      EXPECT_TRUE(got->PayloadIntact());
    }
    // The truncated store must accept the regenerated sequence from `next`.
    for (EpochId id = next; id < static_cast<EpochId>(total); ++id) {
      ASSERT_TRUE((*reopened)->Append(MakeEpoch(id, id + 1)).ok());
    }
    EXPECT_EQ((*reopened)->next_epoch(), static_cast<EpochId>(total));
  }
}

}  // namespace
}  // namespace aets

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  aets::test::InitSeedFromArgs(&argc, argv);
  aets::test::InstallSeedBanner();
  if (const char* env = std::getenv("AETS_CHAOS_ITERS")) {
    g_chaos_iters = std::max(1, std::atoi(env));
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--chaos_iters=";
    if (arg.rfind(prefix, 0) == 0) {
      g_chaos_iters = std::max(1, std::atoi(arg.c_str() + prefix.size()));
    }
  }
  return RUN_ALL_TESTS();
}
