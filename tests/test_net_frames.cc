// Deterministic wire-protocol suite for the network tier (DESIGN.md §12):
// FrameCodec round-trip fuzz under chunked delivery, hostile-input rejection
// (truncation, oversize, bit flips, magic/version mismatch) that must yield
// Corruption and never a crash or a silently resynchronized frame, a
// loopback socket-pair harness with partial writes and mid-frame
// disconnects, and end-to-end TCP shipping through EpochStreamServer /
// EpochStreamClient / TcpEpochSource with injected link faults recovered by
// NACK — the socket twin of the in-process chaos suite.
//
// This binary has its own main(): `--chaos_iters=N` (or AETS_CHAOS_ITERS)
// scales the fuzz and chaos sweeps for the nightly high-iteration run; the
// default keeps the suite CI-fast.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aets/baselines/serial_replayer.h"
#include "aets/common/rng.h"
#include "aets/log/codec.h"
#include "aets/net/epoch_stream.h"
#include "aets/net/frame.h"
#include "aets/net/frame_io.h"
#include "aets/net/socket.h"
#include "aets/net/tcp_source.h"
#include "aets/primary/primary_db.h"
#include "aets/replication/fault_injection.h"
#include "aets/replication/log_shipper.h"
#include "aets/storage/segment_store.h"
#include "test_seed.h"

static int g_chaos_iters = 2;

namespace aets {
namespace net {
namespace {

constexpr FrameType kAllTypes[] = {
    FrameType::kHello,   FrameType::kEpoch,     FrameType::kStreamEnd,
    FrameType::kFetch,   FrameType::kFetchOk,   FrameType::kFetchMiss,
    FrameType::kMeta,    FrameType::kMetaOk,    FrameType::kQuery,
    FrameType::kQueryOk, FrameType::kBusy,      FrameType::kError,
};

std::string RandomBody(Rng* rng, size_t max_len) {
  size_t len = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(max_len)));
  std::string body(len, '\0');
  for (char& c : body) {
    c = static_cast<char>(rng->UniformInt(0, 255));
  }
  return body;
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

void RunRandomWorkload(PrimaryDb* db, int num_tables, int num_txns,
                       uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < num_txns; ++i) {
    PrimaryTxn txn = db->Begin();
    int writes = static_cast<int>(rng.UniformInt(1, 5));
    for (int w = 0; w < writes; ++w) {
      TableId table = static_cast<TableId>(rng.UniformInt(0, num_tables - 1));
      int64_t key = rng.UniformInt(0, 149);
      int kind = static_cast<int>(rng.UniformInt(0, 9));
      if (kind < 5) {
        txn.Insert(table, key,
                   {{0, Value(static_cast<int64_t>(i))},
                    {1, Value(rng.AlphaString(4, 12))}});
      } else if (kind < 9) {
        txn.Update(table, key, {{0, Value(static_cast<int64_t>(i * 10))}});
      } else {
        txn.Delete(table, key);
      }
    }
    ASSERT_TRUE(db->Commit(std::move(txn)).ok());
  }
}

ReplayRecoveryOptions FastRecovery() {
  ReplayRecoveryOptions options;
  options.max_retries = 32;
  options.max_pending = 4096;
  return options;
}

// ---------------------------------------------------------------------------
// FrameCodec: round trips.

TEST(FrameCodecTest, RoundTripFuzzSurvivesArbitraryChunking) {
  for (int iter = 0; iter < g_chaos_iters * 4; ++iter) {
    Rng rng(test::DeriveSeed(100 + static_cast<uint64_t>(iter)));
    std::vector<Frame> expected;
    std::string stream;
    int num_frames = static_cast<int>(rng.UniformInt(1, 48));
    for (int i = 0; i < num_frames; ++i) {
      Frame frame;
      frame.type = kAllTypes[rng.UniformInt(0, 11)];
      // Mostly small bodies, occasionally a big one to cross buffer
      // compaction boundaries.
      size_t max_len = rng.UniformInt(0, 9) == 0 ? (128u << 10) : 512u;
      frame.body = RandomBody(&rng, max_len);
      EncodeFrame(frame.type, frame.body, &stream);
      expected.push_back(std::move(frame));
    }

    FrameDecoder decoder;
    std::vector<Frame> decoded;
    size_t off = 0;
    while (off < stream.size()) {
      size_t chunk = static_cast<size_t>(rng.UniformInt(1, 97));
      chunk = std::min(chunk, stream.size() - off);
      decoder.Feed(stream.data() + off, chunk);
      off += chunk;
      for (;;) {
        Result<std::optional<Frame>> next = decoder.Next();
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        if (!next->has_value()) break;
        decoded.push_back(std::move(**next));
      }
    }
    ASSERT_EQ(decoded.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(decoded[i].type, expected[i].type) << "frame " << i;
      EXPECT_EQ(decoded[i].body, expected[i].body) << "frame " << i;
    }
    EXPECT_FALSE(decoder.mid_frame());
  }
}

TEST(FrameCodecTest, EpochBodyRoundTripsRealWorkloadEpochs) {
  std::unique_ptr<Catalog> catalog(MakeCatalog(2));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/8);
  EpochChannel recorder(0);
  shipper.AttachChannel(&recorder);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  RunRandomWorkload(&db, 2, 80, test::DeriveSeed(200));
  shipper.ShipHeartbeat(db.AcquireHeartbeatTs());
  shipper.Finish();

  int data_epochs = 0, heartbeats = 0;
  while (auto epoch = recorder.TryReceive()) {
    std::string body;
    EncodeEpochBody(*epoch, &body);
    Result<ShippedEpoch> decoded = DecodeEpochBody(body);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->epoch_id, epoch->epoch_id);
    EXPECT_EQ(decoded->heartbeat_ts, epoch->heartbeat_ts);
    EXPECT_EQ(decoded->max_commit_ts, epoch->max_commit_ts);
    EXPECT_EQ(decoded->num_txns, epoch->num_txns);
    EXPECT_EQ(decoded->num_records, epoch->num_records);
    EXPECT_EQ(decoded->first_txn, epoch->first_txn);
    EXPECT_EQ(decoded->last_txn, epoch->last_txn);
    EXPECT_EQ(decoded->payload_crc, epoch->payload_crc);
    EXPECT_EQ(decoded->ByteSize(), epoch->ByteSize());
    if (epoch->ByteSize() > 0) {
      EXPECT_EQ(*decoded->payload, *epoch->payload);
    }
    EXPECT_EQ(decoded->is_heartbeat(), epoch->is_heartbeat());
    EXPECT_TRUE(decoded->PayloadIntact());
    (epoch->is_heartbeat() ? heartbeats : data_epochs)++;

    // Truncating the body anywhere must be Corruption, never a partial
    // epoch.
    for (size_t cut : {size_t{0}, body.size() / 2, body.size() - 1}) {
      Result<ShippedEpoch> torn =
          DecodeEpochBody(std::string_view(body).substr(0, cut));
      EXPECT_FALSE(torn.ok());
      EXPECT_TRUE(torn.status().IsCorruption()) << torn.status().ToString();
    }
  }
  EXPECT_GT(data_epochs, 0);
  EXPECT_GT(heartbeats, 0);
}

// Golden bytes of the frozen formats (frame and segment version 1): a fixed
// data epoch and a heartbeat as a kEpoch body and as segment frames, and a
// query reply carrying all four value tags. Any change here is a format
// change and needs a version bump.
constexpr char kGoldenDataEpochBody[] =
    "050000000000000000000000000000008403000000000000010000000000000003000000"
    "000000004d000000000000004d000000000000006886afcf8c000000913092ef19000000"
    "0001000000000000004d000000000000008403000000000000621c129242000000020200"
    "0000000000004d0000000000000084030000000000000100000007000000000000000000"
    "000000000000000000000000000001000000012a00000000000000e108d5b01900000001"
    "03000000000000004d000000000000008403000000000000";
constexpr char kGoldenHeartbeatBody[] =
    "0600000000000000d204000000000000d204000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000000000";
// The u32 crc | u32 len header of each segment frame.
constexpr char kGoldenDataFrameHeader[] = "b936008ccc000000";
constexpr char kGoldenHeartbeatFrameHeader[] = "596cc30540000000";
constexpr char kGoldenQueryReplyBody[] =
    "37000000000000003412000000000000010000000000000001000000000000009cffffff"
    "ffffffff040000000000000001f7ffffffffffffff01000000020000000000000a400200"
    "0000030200000068690300000000";

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

ShippedEpoch GoldenDataEpoch() {
  Epoch epoch;
  epoch.epoch_id = 5;
  TxnLog txn;
  txn.txn_id = 77;
  txn.commit_ts = 900;
  txn.records = {LogRecord::Begin(1, 77, 900),
                 LogRecord::Dml(LogRecordType::kInsert, 2, 77, 900, 1, 7,
                                {{0, Value(int64_t{42})}}),
                 LogRecord::Commit(3, 77, 900)};
  epoch.txns.push_back(std::move(txn));
  return EncodeEpoch(epoch);
}

TEST(FrameCodecTest, EncodersMatchGoldenBytes) {
  const ShippedEpoch data = GoldenDataEpoch();
  const ShippedEpoch heartbeat = MakeHeartbeatEpoch(6, 1234);
  std::string body;
  EncodeEpochBody(data, &body);
  EXPECT_EQ(Hex(body), kGoldenDataEpochBody);
  body.clear();
  EncodeEpochBody(heartbeat, &body);
  EXPECT_EQ(Hex(body), kGoldenHeartbeatBody);

  // The segment store writes the same bodies, each in a CRC frame.
  const std::string dir =
      std::string(::testing::TempDir()) + "/net_golden_segments";
  std::filesystem::remove_all(dir);
  {
    SegmentStoreOptions options;
    options.dir = dir;
    auto store = SegmentStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Append(data).ok());
    ASSERT_TRUE((*store)->Append(heartbeat).ok());
  }
  std::ifstream in(dir + "/seg-0000000000000005.log", std::ios::binary);
  const std::string segment((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(Hex(segment), std::string(kGoldenDataFrameHeader) +
                              kGoldenDataEpochBody +
                              kGoldenHeartbeatFrameHeader +
                              kGoldenHeartbeatBody);
  std::filesystem::remove_all(dir);

  QueryReplyBody reply;
  reply.pinned_ts = 55;
  reply.digest = 0x1234;
  Row row;
  row.Set(0, Value(int64_t{-9}));
  row.Set(1, Value(3.25));
  row.Set(2, Value(std::string("hi")));
  row.Set(3, Value());
  reply.rows.emplace(-100, row);
  reply.row_count = 1;
  body.clear();
  EncodeQueryReplyBody(reply, &body);
  EXPECT_EQ(Hex(body), kGoldenQueryReplyBody);
}

TEST(FrameCodecTest, InPlaceEpochFrameMatchesFramedBody) {
  // The stream server frames epochs in place into one reused buffer; the
  // bytes must equal framing the separately encoded body, and a reused
  // buffer must carry no trace of the previous frame.
  std::string wire;
  for (const ShippedEpoch& epoch :
       {GoldenDataEpoch(), MakeHeartbeatEpoch(6, 1234), GoldenDataEpoch()}) {
    std::string body;
    EncodeEpochBody(epoch, &body);
    std::string expected;
    EncodeFrame(FrameType::kEpoch, body, &expected);
    wire.clear();
    EncodeEpochFrame(FrameType::kEpoch, epoch, &wire);
    EXPECT_EQ(Hex(wire), Hex(expected));
    FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.ok() && frame->has_value());
    EXPECT_EQ((*frame)->body, body);
  }
}

TEST(FrameCodecTest, ControlAndQueryBodiesRoundTrip) {
  for (HelloRole role : {HelloRole::kSubscribe, HelloRole::kControl}) {
    std::string body;
    EncodeHelloBody(HelloBody{role, 7}, &body);
    Result<HelloBody> hello = DecodeHelloBody(body);
    ASSERT_TRUE(hello.ok());
    EXPECT_EQ(hello->role, role);
    EXPECT_EQ(hello->shard, 7u);
  }
  {
    std::string body;
    EncodeFetchBody(FetchBody{0xDEADBEEFCAFEull}, &body);
    Result<FetchBody> fetch = DecodeFetchBody(body);
    ASSERT_TRUE(fetch.ok());
    EXPECT_EQ(fetch->epoch_id, 0xDEADBEEFCAFEull);
  }
  {
    std::string body;
    EncodeEpochIdsBody(EpochIdsBody{42, 17}, &body);
    Result<EpochIdsBody> ids = DecodeEpochIdsBody(body);
    ASSERT_TRUE(ids.ok());
    EXPECT_EQ(ids->next_epoch, 42u);
    EXPECT_EQ(ids->floor_epoch, 17u);
  }
  {
    std::string body;
    EncodeQueryBody(QueryBody{991, 3, true}, &body);
    Result<QueryBody> query = DecodeQueryBody(body);
    ASSERT_TRUE(query.ok());
    EXPECT_EQ(query->snapshot_ts, 991u);
    EXPECT_EQ(query->table_id, 3u);
    EXPECT_TRUE(query->want_rows);
  }
  {
    // A reply carrying every Value variant, including the empty string.
    QueryReplyBody reply;
    reply.pinned_ts = 55;
    reply.digest = 0x1234;
    Row row;
    row.Set(0, Value(int64_t{-9}));
    row.Set(1, Value(3.25));
    row.Set(2, Value(std::string("hello")));
    row.Set(3, Value(std::string()));
    row.Set(4, Value());
    reply.rows.emplace(-100, row);
    reply.rows.emplace(7, Row());
    reply.row_count = reply.rows.size();
    std::string body;
    EncodeQueryReplyBody(reply, &body);
    Result<QueryReplyBody> decoded = DecodeQueryReplyBody(body);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->pinned_ts, 55u);
    EXPECT_EQ(decoded->digest, 0x1234u);
    EXPECT_EQ(decoded->row_count, 2u);
    ASSERT_EQ(decoded->rows.size(), 2u);
    const Row& got = decoded->rows.at(-100);
    ASSERT_EQ(got.size(), 5u);
    EXPECT_EQ(got.at(0).as_int64(), -9);
    EXPECT_EQ(got.at(1).as_double(), 3.25);
    EXPECT_EQ(got.at(2).as_string(), "hello");
    EXPECT_EQ(got.at(3).as_string(), "");
    EXPECT_TRUE(got.at(4).is_null());
    EXPECT_EQ(decoded->rows.at(7).size(), 0u);

    // Exhaustion-checked: trailing garbage is Corruption, not ignored.
    body.push_back('\x01');
    Result<QueryReplyBody> extra = DecodeQueryReplyBody(body);
    EXPECT_FALSE(extra.ok());
    EXPECT_TRUE(extra.status().IsCorruption());
  }
}

// ---------------------------------------------------------------------------
// FrameCodec: hostile input. Every malformed stream must end in Corruption
// (or "need more bytes") — never a crash, never a silently decoded frame.

TEST(FrameCodecTest, TruncatedPrefixNeverYieldsAFrame) {
  std::string stream;
  EncodeFrame(FrameType::kQuery, "truncation probe", &stream);
  for (size_t len = 0; len < stream.size(); ++len) {
    FrameDecoder decoder;
    decoder.Feed(stream.data(), len);
    Result<std::optional<Frame>> next = decoder.Next();
    ASSERT_TRUE(next.ok()) << "prefix " << len << ": "
                           << next.status().ToString();
    EXPECT_FALSE(next->has_value()) << "prefix " << len;
    EXPECT_EQ(decoder.mid_frame(), len > 0) << "prefix " << len;
  }
}

TEST(FrameCodecTest, EveryBitFlipIsDetectedOrStallsNeverSilent) {
  Rng rng(test::DeriveSeed(300));
  std::string stream;
  EncodeFrame(FrameType::kEpoch, RandomBody(&rng, 64), &stream);
  int corruptions = 0, stalls = 0;
  for (size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = stream;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1u << bit));
      FrameDecoder decoder;
      decoder.Feed(flipped.data(), flipped.size());
      Result<std::optional<Frame>> next = decoder.Next();
      if (!next.ok()) {
        EXPECT_TRUE(next.status().IsCorruption())
            << next.status().ToString();
        ++corruptions;
        // Corruption is sticky: the stream cannot be resynchronized.
        Result<std::optional<Frame>> again = decoder.Next();
        EXPECT_FALSE(again.ok());
      } else {
        // A flip that grew the length field makes the decoder wait for
        // bytes that will never come — the io layer's timeout handles
        // that. What it must NOT do is hand back a frame.
        ASSERT_FALSE(next->has_value())
            << "byte " << byte << " bit " << bit
            << ": single bit flip produced a silently decoded frame";
        ++stalls;
      }
    }
  }
  EXPECT_GT(corruptions, 0);
  // Length-field flips that grow the frame are the only legitimate stalls.
  EXPECT_LT(stalls, 8 * 4);
}

TEST(FrameCodecTest, DecoderRecoversAfterReset) {
  std::string good;
  EncodeFrame(FrameType::kMeta, "", &good);
  std::string bad = good;
  bad[0] = '\x00';  // break the magic

  FrameDecoder decoder;
  decoder.Feed(bad.data(), bad.size());
  Result<std::optional<Frame>> next = decoder.Next();
  ASSERT_FALSE(next.ok());
  // Sticky even across fresh valid bytes...
  decoder.Feed(good.data(), good.size());
  EXPECT_FALSE(decoder.Next().ok());
  // ...until Reset, the reconnect path.
  decoder.Reset();
  decoder.Feed(good.data(), good.size());
  next = decoder.Next();
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ((*next)->type, FrameType::kMeta);
}

// Rewrites the trailer CRC so it matches the (tampered) header + body —
// isolating the header validation from the CRC check.
void FixTrailerCrc(std::string* frame) {
  size_t body_and_header = frame->size() - kFrameTrailerBytes;
  uint32_t crc = Crc32c(frame->data(), body_and_header);
  std::memcpy(frame->data() + body_and_header, &crc, sizeof(crc));
}

TEST(FrameCodecTest, MagicMismatchRejectedEvenWithValidCrc) {
  std::string stream;
  EncodeFrame(FrameType::kHello, "x", &stream);
  stream[0] = '\x12';
  stream[1] = '\x34';
  FixTrailerCrc(&stream);
  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  Result<std::optional<Frame>> next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(next.status().IsCorruption());
  EXPECT_NE(next.status().message().find("magic"), std::string::npos)
      << next.status().ToString();
}

TEST(FrameCodecTest, VersionMismatchRejectedEvenWithValidCrc) {
  std::string stream;
  EncodeFrame(FrameType::kHello, "x", &stream);
  stream[2] = static_cast<char>(kFrameVersion + 1);
  FixTrailerCrc(&stream);
  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  Result<std::optional<Frame>> next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(next.status().IsCorruption());
  EXPECT_NE(next.status().message().find("version"), std::string::npos)
      << next.status().ToString();
}

TEST(FrameCodecTest, OversizedLengthRejectedBeforeAllocation) {
  std::string stream;
  EncodeFrame(FrameType::kEpoch, "", &stream);
  uint32_t huge = static_cast<uint32_t>(kMaxFrameBody) + 1;
  std::memcpy(stream.data() + 4, &huge, sizeof(huge));
  FrameDecoder decoder;
  // Header only: the length bound must trip before any body arrives (a
  // garbled length must not make the receiver wait on — or allocate —
  // gigabytes).
  decoder.Feed(stream.data(), kFrameHeaderBytes);
  Result<std::optional<Frame>> next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(next.status().IsCorruption());
}

// ---------------------------------------------------------------------------
// Loopback socket-pair harness: the io layer on a real fd.

TEST(SocketPairTest, PartialWritesReassembleIntoWholeFrames) {
  Result<std::pair<TcpSocket, TcpSocket>> pair = TcpSocket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  TcpSocket writer = std::move(pair->first);
  TcpSocket reader = std::move(pair->second);

  Rng rng(test::DeriveSeed(400));
  std::vector<Frame> expected;
  std::string stream;
  for (int i = 0; i < 16; ++i) {
    Frame frame;
    frame.type = kAllTypes[rng.UniformInt(0, 11)];
    frame.body = RandomBody(&rng, 300);
    EncodeFrame(frame.type, frame.body, &stream);
    expected.push_back(std::move(frame));
  }

  // Dribble the stream through the kernel in 1..7 byte slices, with
  // occasional stalls shorter than the io timeout.
  std::thread feeder([&] {
    size_t off = 0;
    Rng chunk_rng(test::DeriveSeed(401));
    while (off < stream.size()) {
      size_t n = std::min<size_t>(
          static_cast<size_t>(chunk_rng.UniformInt(1, 7)),
          stream.size() - off);
      ASSERT_TRUE(writer.WriteAll(stream.data() + off, n, 1000).ok());
      off += n;
      if (chunk_rng.UniformInt(0, 9) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    writer.ShutdownSend();
  });

  std::atomic<bool> stop{false};
  FrameDecoder decoder;
  std::vector<Frame> decoded;
  while (decoded.size() < expected.size()) {
    Frame frame;
    Status s = ReadFrame(&reader, &decoder, /*io_timeout_ms=*/5000,
                         /*idle_timeout_ms=*/5000, stop, &frame);
    ASSERT_TRUE(s.ok()) << s.ToString();
    decoded.push_back(std::move(frame));
  }
  feeder.join();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(decoded[i].type, expected[i].type) << "frame " << i;
    EXPECT_EQ(decoded[i].body, expected[i].body) << "frame " << i;
  }
  // After the sender's shutdown the next read is a clean end of stream.
  Frame frame;
  Status s = ReadFrame(&reader, &decoder, 1000, 1000, stop, &frame);
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_FALSE(s.IsCorruption());
}

TEST(SocketPairTest, MidFrameDisconnectIsCorruptionNeverACleanEnd) {
  Result<std::pair<TcpSocket, TcpSocket>> pair = TcpSocket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  TcpSocket writer = std::move(pair->first);
  TcpSocket reader = std::move(pair->second);

  std::string stream;
  EncodeFrame(FrameType::kEpoch, std::string(128, 'x'), &stream);
  // Everything but the last 3 bytes, then vanish.
  ASSERT_TRUE(writer.WriteAll(stream.data(), stream.size() - 3, 1000).ok());
  writer.ShutdownSend();

  std::atomic<bool> stop{false};
  FrameDecoder decoder;
  Frame frame;
  Status s = ReadFrame(&reader, &decoder, /*io_timeout_ms=*/2000,
                       /*idle_timeout_ms=*/2000, stop, &frame);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find("mid-frame"), std::string::npos) << s.ToString();
}

// ---------------------------------------------------------------------------
// End-to-end over real TCP: EpochStreamServer + EpochStreamClient +
// TcpEpochSource + a replayer, digest-checked against the primary.

struct NetRig {
  explicit NetRig(int num_tables, size_t epoch_size = 8,
                  size_t retention = 4096)
      : catalog(MakeCatalog(num_tables)),
        db(catalog.get(), &clock),
        shipper(epoch_size, retention) {
    db.SetCommitSink([this](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  }

  std::unique_ptr<Catalog> catalog;
  LogicalClock clock;
  PrimaryDb db;
  LogShipper shipper;
};

// EpochStreamClient::Start returns once its Hello is sent; the server
// attaches the subscription on its own session thread. Epochs shipped before
// that attach reach the backup only by NACK, so a test of the live stream
// must wait for it before starting the workload.
void AwaitSubscription(const EpochStreamServer& server) {
  const int64_t deadline = MonotonicMicros() + 10'000'000;
  while (server.subscribers_accepted() == 0) {
    ASSERT_LT(MonotonicMicros(), deadline) << "subscription never attached";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(NetStreamTest, CleanTcpStreamIsDigestIdenticalToInProcess) {
  NetRig rig(/*num_tables=*/3);
  EpochStreamServer server(&rig.shipper);
  ASSERT_TRUE(server.Start(0).ok());

  EpochChannel sink(1024);
  EpochStreamClient client("127.0.0.1", server.port(), /*shard=*/0, &sink);
  TcpEpochSourceOptions source_options;
  source_options.io_timeout_ms = 2000;
  TcpEpochSource source("127.0.0.1", server.port(), /*shard=*/0,
                        source_options);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(source.Connect().ok());

  SerialReplayer replayer(rig.catalog.get(), &sink);
  replayer.SetEpochSource(&source);
  replayer.SetRecoveryOptions(FastRecovery());
  ASSERT_TRUE(replayer.Start().ok());
  ASSERT_NO_FATAL_FAILURE(AwaitSubscription(server));

  RunRandomWorkload(&rig.db, 3, 150, test::DeriveSeed(500));
  rig.shipper.ShipHeartbeat(rig.db.AcquireHeartbeatTs());
  RunRandomWorkload(&rig.db, 3, 150, test::DeriveSeed(501));
  rig.shipper.Finish();

  replayer.Stop();
  EXPECT_TRUE(replayer.error().ok()) << replayer.error().ToString();
  Timestamp final_ts = rig.db.last_commit_ts();
  EXPECT_EQ(replayer.store()->DigestAt(final_ts),
            rig.db.store().DigestAt(final_ts));
  EXPECT_GT(client.epochs_received(), 0u);
  EXPECT_TRUE(client.clean_end());

  client.Stop();
  server.Stop();
}

TEST(NetStreamTest, ChaosLinkFaultsAreRecoveredByNackOverTcp) {
  for (int iter = 0; iter < g_chaos_iters; ++iter) {
    SCOPED_TRACE("chaos iter " + std::to_string(iter));
    NetRig rig(/*num_tables=*/3);

    FaultProfile profile;
    profile.drop = 0.15;
    profile.duplicate = 0.1;
    profile.reorder = 0.1;
    profile.corrupt = 0.1;
    profile.seed = test::DeriveSeed(600 + static_cast<uint64_t>(iter));

    // The factory wraps each subscriber's staging channel: faults strike
    // between the shipper and the wire, exactly where a lossy link would.
    // The server owns the channel and destroys it when the stream ends, so
    // the count is banked at destruction rather than read through a
    // possibly-dangling pointer afterwards.
    std::atomic<uint64_t> total_faults{0};
    struct CountingFaultChannel : FaultInjectingChannel {
      CountingFaultChannel(const FaultProfile& profile, size_t capacity,
                           std::atomic<uint64_t>* total)
          : FaultInjectingChannel(profile, capacity), total(total) {}
      ~CountingFaultChannel() override { total->fetch_add(faults_injected()); }
      std::atomic<uint64_t>* total;
    };
    EpochStreamServer server(&rig.shipper);
    server.SetChannelFactoryForTest(
        [&](size_t capacity) -> std::unique_ptr<EpochChannel> {
          return std::make_unique<CountingFaultChannel>(profile, capacity,
                                                        &total_faults);
        });
    ASSERT_TRUE(server.Start(0).ok());

    EpochChannel sink(1024);
    EpochStreamClient client("127.0.0.1", server.port(), 0, &sink);
    TcpEpochSourceOptions source_options;
    source_options.io_timeout_ms = 2000;
    TcpEpochSource source("127.0.0.1", server.port(), 0, source_options);
    ASSERT_TRUE(client.Start().ok());
    Status connect_status = source.Connect();
    ASSERT_TRUE(connect_status.ok()) << connect_status.ToString();

    SerialReplayer replayer(rig.catalog.get(), &sink);
    replayer.SetEpochSource(&source);
    replayer.SetRecoveryOptions(FastRecovery());
    ASSERT_TRUE(replayer.Start().ok());
    ASSERT_NO_FATAL_FAILURE(AwaitSubscription(server));

    uint64_t seed = test::DeriveSeed(700 + static_cast<uint64_t>(iter));
    RunRandomWorkload(&rig.db, 3, 200, seed);
    rig.shipper.ShipHeartbeat(rig.db.AcquireHeartbeatTs());
    RunRandomWorkload(&rig.db, 3, 200, seed + 1);
    rig.shipper.Finish();

    replayer.Stop();
    EXPECT_TRUE(replayer.error().ok()) << replayer.error().ToString();
    Timestamp final_ts = rig.db.last_commit_ts();
    EXPECT_EQ(replayer.store()->DigestAt(final_ts),
              rig.db.store().DigestAt(final_ts));

    client.Stop();
    server.Stop();  // joins sessions: all channel destructors have run
    EXPECT_GT(total_faults.load(), 0u) << "fault profile injected nothing";
  }
}

TEST(NetStreamTest, ServerRestartMidStreamReconnectsAndRecovers) {
  NetRig rig(/*num_tables=*/3, /*epoch_size=*/8, /*retention=*/65536);
  const uint16_t port = [] {
    // Grab an ephemeral port number the restarted server can re-bind.
    Result<TcpListener> probe = TcpListener::Bind(0);
    AETS_CHECK(probe.ok());
    return probe->port();
  }();

  auto server = std::make_unique<EpochStreamServer>(&rig.shipper);
  ASSERT_TRUE(server->Start(port).ok());

  EpochChannel sink(1024);
  EpochStreamClientOptions client_options;
  client_options.max_reconnects = 100;
  client_options.reconnect_backoff_ms = 10;
  EpochStreamClient client("127.0.0.1", port, 0, &sink, client_options);
  TcpEpochSourceOptions source_options;
  source_options.io_timeout_ms = 2000;
  TcpEpochSource source("127.0.0.1", port, 0, source_options);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(source.Connect().ok());

  SerialReplayer replayer(rig.catalog.get(), &sink);
  replayer.SetEpochSource(&source);
  ReplayRecoveryOptions recovery = FastRecovery();
  recovery.max_retries = 64;  // reconnect window is priced in NACK retries
  replayer.SetRecoveryOptions(recovery);
  ASSERT_TRUE(replayer.Start().ok());

  RunRandomWorkload(&rig.db, 3, 150, test::DeriveSeed(800));
  rig.shipper.ShipHeartbeat(rig.db.AcquireHeartbeatTs());
  // Let the clean prefix drain so the teardown below cannot race a
  // half-delivered epoch into a premature NACK.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Kill the endpoint mid-stream. Epochs shipped while it is down are
  // counted dropped at the shipper and must come back through NACK.
  server->Stop();
  server.reset();
  RunRandomWorkload(&rig.db, 3, 100, test::DeriveSeed(801));

  EpochStreamServer revived(&rig.shipper);
  ASSERT_TRUE(revived.Start(port).ok());

  RunRandomWorkload(&rig.db, 3, 100, test::DeriveSeed(802));
  rig.shipper.ShipHeartbeat(rig.db.AcquireHeartbeatTs());
  rig.shipper.Finish();

  replayer.Stop();
  EXPECT_TRUE(replayer.error().ok()) << replayer.error().ToString();
  Timestamp final_ts = rig.db.last_commit_ts();
  EXPECT_EQ(replayer.store()->DigestAt(final_ts),
            rig.db.store().DigestAt(final_ts));
  EXPECT_GE(client.reconnects(), 1u);

  client.Stop();
  revived.Stop();
}

TEST(NetStreamTest, UnknownShardGetsErrorFrame) {
  NetRig rig(/*num_tables=*/1);
  EpochStreamServer server(&rig.shipper);
  ASSERT_TRUE(server.Start(0).ok());

  Result<TcpSocket> conn = TcpSocket::Connect("127.0.0.1", server.port(), 1000);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  std::string body;
  EncodeHelloBody(HelloBody{HelloRole::kSubscribe, /*shard=*/99}, &body);
  ASSERT_TRUE(WriteFrame(&*conn, FrameType::kHello, body, 1000).ok());

  std::atomic<bool> stop{false};
  FrameDecoder decoder;
  Frame reply;
  Status s = ReadFrame(&*conn, &decoder, 2000, 2000, stop, &reply);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(reply.type, FrameType::kError);

  rig.shipper.Finish();
  server.Stop();
}

}  // namespace
}  // namespace net
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
