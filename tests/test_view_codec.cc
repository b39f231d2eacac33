// Zero-copy decode tests: DecodeView must agree with the owning Decode on
// every record (all value types, NULLs, empty strings, wide rows), reject
// the same truncations/corruptions, and PackedDelta must round-trip through
// both the wire form and ColumnValue vectors, including the GC fold.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aets/common/rng.h"
#include "aets/log/codec.h"
#include "aets/log/record.h"
#include "aets/storage/memtable.h"
#include "aets/storage/packed_delta.h"
#include "aets/storage/version_chain.h"

namespace aets {
namespace {

Value RandomValue(Rng* rng) {
  switch (rng->UniformInt(0, 4)) {
    case 0:
      return Value(static_cast<int64_t>(rng->Next()));
    case 1:
      return Value(rng->Gaussian(0, 1e9));
    case 2:
      return Value(rng->AlphaString(1, 64));
    case 3:
      return Value(std::string());  // empty string, distinct from NULL
    default:
      return Value::Null();
  }
}

LogRecord RandomDml(Rng* rng, int num_cols) {
  std::vector<ColumnValue> values;
  values.reserve(static_cast<size_t>(num_cols));
  for (int c = 0; c < num_cols; ++c) {
    values.push_back(
        {static_cast<ColumnId>(rng->UniformInt(0, 1000)), RandomValue(rng)});
  }
  auto type = static_cast<LogRecordType>(
      rng->UniformInt(static_cast<int>(LogRecordType::kInsert),
                      static_cast<int>(LogRecordType::kDelete)));
  return LogRecord::Dml(type, rng->Next(), rng->Next(), rng->Next(),
                        static_cast<TableId>(rng->UniformInt(0, 64)),
                        static_cast<int64_t>(rng->Next()), std::move(values),
                        rng->Next(), rng->Next());
}

// Property: for every record the view decode and the owning decode agree
// field-for-field, Materialize() reproduces the original record exactly, and
// both decoders consume the same number of bytes.
class ViewCodecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ViewCodecFuzzTest, DecodeViewAgreesWithDecode) {
  Rng rng(GetParam());
  std::vector<LogRecord> records;
  for (int i = 0; i < 150; ++i) {
    int kind = static_cast<int>(rng.UniformInt(0, 4));
    if (kind == 0) {
      records.push_back(LogRecord::Begin(rng.Next(), rng.Next(), rng.Next()));
    } else if (kind == 1) {
      records.push_back(LogRecord::Commit(rng.Next(), rng.Next(), rng.Next()));
    } else if (kind == 2) {
      records.push_back(
          LogRecord::Heartbeat(rng.Next(), rng.Next(), rng.Next()));
    } else {
      // Column counts spanning 0 (empty delta) through 64 (wide rows).
      records.push_back(
          RandomDml(&rng, static_cast<int>(rng.UniformInt(0, 64))));
    }
  }
  std::string buf = LogCodec::EncodeAll(records);

  size_t view_offset = 0;
  size_t own_offset = 0;
  for (const LogRecord& expected : records) {
    auto view = LogCodec::DecodeView(buf, &view_offset);
    auto owned = LogCodec::Decode(buf, &own_offset);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    ASSERT_TRUE(owned.ok()) << owned.status().ToString();
    EXPECT_EQ(view_offset, own_offset);

    EXPECT_EQ(view->type, expected.type);
    EXPECT_EQ(view->lsn, expected.lsn);
    EXPECT_EQ(view->txn_id, expected.txn_id);
    EXPECT_EQ(view->timestamp, expected.timestamp);
    if (expected.is_dml()) {
      EXPECT_EQ(view->table_id, expected.table_id);
      EXPECT_EQ(view->row_key, expected.row_key);
      EXPECT_EQ(view->prev_txn_id, expected.prev_txn_id);
      EXPECT_EQ(view->row_seq, expected.row_seq);
      ASSERT_EQ(view->num_values, expected.values.size());
      // Walk the zero-copy reader against the owned values.
      DeltaReader reader = view->values();
      for (const ColumnValue& cv : expected.values) {
        ColumnId col;
        ValueView vv;
        ASSERT_TRUE(reader.Next(&col, &vv));
        EXPECT_EQ(col, cv.column_id);
        EXPECT_TRUE(vv.Equals(cv.value));
      }
      ColumnId col;
      ValueView vv;
      EXPECT_FALSE(reader.Next(&col, &vv));
    }
    EXPECT_EQ(view->Materialize(), expected);
    EXPECT_EQ(*owned, expected);
  }
  EXPECT_EQ(view_offset, buf.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewCodecFuzzTest,
                         ::testing::Values(7, 11, 19, 23, 31, 41));

TEST(ViewCodecTest, ValueWireSizeIsExactForEveryTag) {
  // PackedDelta sizes its buffer from ValueWireSize; the append and parse
  // paths must agree with it byte for byte.
  for (const Value& v : {Value(), Value(int64_t{-7}), Value(2.5),
                         Value(std::string("wire")), Value(std::string())}) {
    std::string buf = "prefix";
    AppendValueWire(v, &buf);
    ASSERT_EQ(buf.size(), 6 + ValueWireSize(v)) << v.ToString();
    ValueView view;
    const char* end = buf.data() + buf.size();
    EXPECT_EQ(ParseValueWire(buf.data() + 6, end, &view), end)
        << v.ToString();
    EXPECT_TRUE(view.Equals(v)) << v.ToString();
  }
}

TEST(ViewCodecTest, ViewBytesAliasInputBuffer) {
  LogRecord rec = LogRecord::Dml(LogRecordType::kUpdate, 1, 2, 3, 4, 5,
                                 {{0, Value("payload")}});
  std::string buf;
  LogCodec::Encode(rec, &buf);
  size_t offset = 0;
  auto view = LogCodec::DecodeView(buf, &offset);
  ASSERT_TRUE(view.ok());
  ASSERT_FALSE(view->value_bytes.empty());
  // Zero-copy: the view's slice must point into the encode buffer itself.
  EXPECT_GE(view->value_bytes.data(), buf.data());
  EXPECT_LE(view->value_bytes.data() + view->value_bytes.size(),
            buf.data() + buf.size());
}

TEST(ViewCodecTest, DetectsTruncationEverywhere) {
  LogRecord rec = LogRecord::Dml(
      LogRecordType::kInsert, 10, 20, 30, 1, 99,
      {{0, Value(int64_t{7})}, {1, Value("abc")}, {2, Value::Null()}});
  std::string buf;
  LogCodec::Encode(rec, &buf);
  // Every strict prefix must fail; none may crash or read past the end.
  for (size_t len = 0; len < buf.size(); ++len) {
    size_t offset = 0;
    auto view = LogCodec::DecodeView(std::string_view(buf.data(), len),
                                     &offset);
    EXPECT_FALSE(view.ok()) << "prefix of " << len << " bytes accepted";
  }
}

TEST(ViewCodecTest, DetectsBitFlips) {
  std::string buf;
  LogCodec::Encode(LogRecord::Dml(LogRecordType::kUpdate, 1, 2, 3, 4, 5,
                                  {{0, Value("hello")}, {3, Value(2.5)}}),
                   &buf);
  for (size_t i = 8; i < buf.size(); i += 5) {
    std::string corrupted = buf;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x10);
    size_t offset = 0;
    auto view = LogCodec::DecodeView(corrupted, &offset);
    EXPECT_FALSE(view.ok()) << "flip at " << i << " not detected";
    EXPECT_TRUE(view.status().IsCorruption());
  }
}

TEST(PackedDeltaTest, FromWireEqualsFromColumnValues) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    LogRecord rec = RandomDml(&rng, static_cast<int>(rng.UniformInt(0, 32)));
    std::string buf;
    LogCodec::Encode(rec, &buf);
    size_t offset = 0;
    auto view = LogCodec::DecodeView(buf, &offset);
    ASSERT_TRUE(view.ok());

    PackedDelta from_wire =
        PackedDelta::FromWire(view->num_values, view->value_bytes);
    PackedDelta from_values = PackedDelta::FromColumnValues(rec.values);
    EXPECT_EQ(from_wire, from_values);
    EXPECT_EQ(from_wire.count(), rec.values.size());
    EXPECT_EQ(from_wire.ToColumnValues(), rec.values);
    EXPECT_EQ(from_wire.Clone(), from_wire);
  }
}

TEST(PackedDeltaTest, EmptyDeltaAllocatesNothing) {
  PackedDelta empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.count(), 0u);
  PackedDelta from_empty = PackedDelta::FromColumnValues({});
  EXPECT_TRUE(from_empty.empty());
  EXPECT_EQ(empty, from_empty);
  FlatRow row;
  empty.ApplyTo(&row);
  EXPECT_TRUE(row.empty());
}

TEST(PackedDeltaTest, ApplyToUpsertsInColumnOrder) {
  FlatRow row;
  PackedDelta::FromColumnValues(
      {{5, Value("five")}, {1, Value(int64_t{1})}, {5, Value("FIVE")}})
      .ApplyTo(&row);
  ASSERT_EQ(row.size(), 2u);
  // Later entries for the same column win; iteration is column-sorted.
  EXPECT_EQ(row.at(1).as_int64(), 1);
  EXPECT_EQ(row.at(5).as_string(), "FIVE");
  auto it = row.begin();
  EXPECT_EQ(it->first, 1u);
  EXPECT_EQ((++it)->first, 5u);
}

// GC fold: after TruncateBefore the base version carries one PackedDelta
// equal to the fold of every truncated delta, and reads above the watermark
// are byte-identical to the untruncated chain.
TEST(PackedDeltaTest, TruncateBeforeFoldsPackedDeltas) {
  Rng rng(1234);
  MemNode node(1);
  MemNode reference(1);
  Timestamp ts = 0;
  for (int i = 0; i < 40; ++i) {
    ts += 1 + static_cast<Timestamp>(rng.UniformInt(0, 3));
    std::vector<ColumnValue> delta;
    int n = static_cast<int>(rng.UniformInt(1, 5));
    for (int c = 0; c < n; ++c) {
      delta.push_back(
          {static_cast<ColumnId>(rng.UniformInt(0, 10)), RandomValue(&rng)});
    }
    for (MemNode* target : {&node, &reference}) {
      VersionCell cell;
      cell.commit_ts = ts;
      cell.txn_id = static_cast<TxnId>(i + 1);
      cell.delta = PackedDelta::FromColumnValues(delta);
      target->AppendVersion(std::move(cell));
    }
  }
  Timestamp watermark = ts / 2;
  node.TruncateBefore(watermark);
  for (Timestamp probe = watermark; probe <= ts + 1; ++probe) {
    auto got = node.ReadVisible(probe);
    auto want = reference.ReadVisible(probe);
    ASSERT_EQ(got.has_value(), want.has_value()) << "ts " << probe;
    if (got.has_value()) {
      EXPECT_EQ(*got, *want) << "ts " << probe;
    }
  }
}

}  // namespace
}  // namespace aets
