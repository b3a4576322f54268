// Robustness of the KVS sub-op codec, the only request encoding of the
// global tier. Every valid encoding — each op kind in both dialects, each
// result kind, and the framed containers around them — is truncated at every
// byte and has every bit flipped; each mutant must decode to a typed error
// or a valid op, never crash (the ASan/UBSan lane runs this) and never
// allocate for a wire count it cannot back with bytes.
#include "kvs/batch_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "net/framing.h"

namespace faasm {
namespace {

// Reservations trust a wire count only this far (ReadFrameBatch, the
// kSetRanges / kSetMembers decoders); beyond it storage grows only as parsed
// elements arrive.
constexpr size_t kReserveCap = 1024;

// One op of every sub-op kind, with non-empty arguments.
std::vector<KvsBatchOp> EveryOpKind() {
  const std::vector<ValueRange> ranges = {ValueRange{2, Bytes{7, 8}}, ValueRange{9, Bytes{1}}};
  return {
      {.op = KvsOp::kGet, .key = "k"},
      {.op = KvsOp::kSet, .key = "k", .bytes = Bytes{1, 2, 3}},
      {.op = KvsOp::kGetRange, .key = "k", .offset = 3, .len = 5},
      {.op = KvsOp::kSetRanges, .key = "k", .ranges = {ValueRange{4, Bytes{9, 9}}}},
      {.op = KvsOp::kAppend, .key = "log", .bytes = Bytes{5}},
      {.op = KvsOp::kDelete, .key = "k"},
      {.op = KvsOp::kExists, .key = "k"},
      {.op = KvsOp::kSize, .key = "k"},
      {.op = KvsOp::kLockRead, .key = "k", .member = "host-1"},
      {.op = KvsOp::kLockWrite, .key = "k", .member = "host-2"},
      {.op = KvsOp::kUnlockRead, .key = "k", .member = "host-1"},
      {.op = KvsOp::kUnlockWrite, .key = "k", .member = "host-2"},
      {.op = KvsOp::kSetAdd, .key = "warm:f", .member = "host-3"},
      {.op = KvsOp::kSetRemove, .key = "warm:f", .member = "host-3"},
      {.op = KvsOp::kSetMembers, .key = "warm:f"},
      {.op = KvsOp::kSetRanges, .key = "k", .ranges = ranges},
  };
}

// An ok result carrying every payload field, so each op kind encodes the
// payload it owns.
KvsBatchResult FullResult() {
  KvsBatchResult result;
  result.value = Bytes{4, 5, 6};
  result.length = 77;
  result.flag = true;
  result.members = {"host-1", "host-22"};
  return result;
}

void ExpectSameOp(const KvsBatchOp& got, const KvsBatchOp& want) {
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.member, want.member);
  ASSERT_EQ(got.ranges.size(), want.ranges.size());
  for (size_t i = 0; i < got.ranges.size(); ++i) {
    EXPECT_EQ(got.ranges[i].offset, want.ranges[i].offset);
    EXPECT_EQ(got.ranges[i].bytes, want.ranges[i].bytes);
  }
  if (want.op == KvsOp::kGetRange) {
    EXPECT_EQ(got.offset, want.offset);
    EXPECT_EQ(got.len, want.len);
  }
}

// Storage of a decoded vector is bounded by what the wire backed with
// elements: the capped reservation, or the doubling growth of real pushes.
template <typename T>
void ExpectBoundedStorage(const std::vector<T>& parsed) {
  EXPECT_LE(parsed.capacity(), std::max(kReserveCap, 2 * parsed.size()));
}

void ExpectTypedOpError(const Status& status) {
  EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
              status.code() == StatusCode::kOutOfRange)
      << status.ToString();
}

// Both op decoders on one blob: a valid sub-op or a typed error.
void DecodeAsOp(const Bytes& blob) {
  for (const auto& decode : {DecodeBatchOp, DecodeReplicaOp}) {
    Result<KvsBatchOp> op = decode(blob);
    if (op.ok()) {
      EXPECT_TRUE(op.value().op >= KvsOp::kGet && op.value().op <= KvsOp::kSetRanges);
      EXPECT_NE(op.value().op, KvsOp{4});  // retired
      ExpectBoundedStorage(op.value().ranges);
    } else {
      ExpectTypedOpError(op.status());
    }
  }
}

// Feeds one (possibly mutated) blob to every decoder of the codec.
void DecodeEverywhere(const Bytes& blob) {
  DecodeAsOp(blob);
  for (const KvsBatchOp& kind : EveryOpKind()) {
    // Any status byte is a typed answer; the payload parse must stay bounded.
    ExpectBoundedStorage(DecodeBatchResult(kind.op, blob).members);
  }
  ByteReader reader(blob);
  Result<std::vector<Bytes>> parts = ReadFrameBatch(reader);
  if (parts.ok()) {
    // Every part costs at least its u32 length prefix.
    EXPECT_LE(parts.value().size() * sizeof(uint32_t), blob.size());
    ExpectBoundedStorage(parts.value());
    for (const Bytes& part : parts.value()) {
      DecodeAsOp(part);
    }
  } else {
    ExpectTypedOpError(parts.status());
  }
}

// Every truncation and every single-bit flip of `blob`.
void MutateEverywhere(const Bytes& blob) {
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    DecodeEverywhere(Bytes(blob.begin(), blob.begin() + cut));
  }
  for (size_t i = 0; i < blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = blob;
      flipped[i] ^= static_cast<uint8_t>(1u << bit);
      DecodeEverywhere(flipped);
    }
  }
}

TEST(BatchCodecTest, EveryOpKindRoundTripsInBothDialects) {
  for (const KvsBatchOp& op : EveryOpKind()) {
    SCOPED_TRACE(static_cast<int>(op.op));
    const Bytes public_bytes = EncodeBatchOp(op);
    auto decoded = DecodeBatchOp(public_bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectSameOp(decoded.value(), op);
    EXPECT_EQ(decoded.value().seq, 0u);

    // The replica dialect is the public one plus the u64 apply sequence.
    const Bytes replica_bytes = EncodeReplicaOp(op, 1234);
    EXPECT_EQ(replica_bytes.size(), public_bytes.size() + sizeof(uint64_t));
    auto forwarded = DecodeReplicaOp(replica_bytes);
    ASSERT_TRUE(forwarded.ok()) << forwarded.status().ToString();
    ExpectSameOp(forwarded.value(), op);
    EXPECT_EQ(forwarded.value().seq, 1234u);
  }
}

TEST(BatchCodecTest, EveryResultKindRoundTrips) {
  const KvsBatchResult full = FullResult();
  for (const KvsBatchOp& op : EveryOpKind()) {
    SCOPED_TRACE(static_cast<int>(op.op));
    KvsBatchResult got = DecodeBatchResult(op.op, EncodeBatchResult(op.op, full));
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    switch (op.op) {
      case KvsOp::kGet:
      case KvsOp::kGetRange:
        EXPECT_EQ(got.value, full.value);
        break;
      case KvsOp::kAppend:
      case KvsOp::kSize:
        EXPECT_EQ(got.length, full.length);
        break;
      case KvsOp::kExists:
      case KvsOp::kSetAdd:
      case KvsOp::kSetRemove:
      case KvsOp::kLockRead:
      case KvsOp::kLockWrite:
        EXPECT_TRUE(got.flag);
        break;
      case KvsOp::kSetMembers:
        EXPECT_EQ(got.members, full.members);
        break;
      default:
        EXPECT_TRUE(got.value.empty());
        break;
    }
    // An error result carries its code and no payload.
    KvsBatchResult error;
    error.status = WrongMaster("moved");
    EXPECT_EQ(DecodeBatchResult(op.op, EncodeBatchResult(op.op, error)).status.code(),
              StatusCode::kWrongMaster);
  }
}

TEST(BatchCodecTest, UnknownOpCodesAreRejected) {
  for (KvsOp code : {KvsOp::kMigrateInstall, KvsOp::kBatch, KvsOp::kGetBatch, KvsOp{0},
                     KvsOp{200}}) {
    KvsBatchOp op{.op = code, .key = "k"};
    EXPECT_EQ(DecodeBatchOp(EncodeBatchOp(op)).status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(DecodeReplicaOp(EncodeReplicaOp(op, 1)).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(BatchCodecTest, RetiredOpCodeFourIsRejected) {
  // Code 4 was the one-range write (u64 offset, then the bytes); a sub-op
  // still carrying it must not decode as anything.
  for (bool replica : {false, true}) {
    Bytes blob;
    ByteWriter writer(blob);
    writer.Put<uint8_t>(4);
    writer.PutString("k");
    if (replica) {
      writer.Put<uint64_t>(1);
    }
    writer.Put<uint64_t>(4);
    writer.PutBytes(Bytes{9, 9});
    EXPECT_EQ((replica ? DecodeReplicaOp(blob) : DecodeBatchOp(blob)).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(BatchCodecTest, HugeWireCountsFailWithoutAllocating) {
  constexpr uint32_t kHuge = std::numeric_limits<uint32_t>::max();
  // A kSetRanges op, a kSetMembers result and a frame batch, each declaring
  // ~4 billion elements and backing none of them.
  Bytes ranges_op;
  {
    ByteWriter writer(ranges_op);
    writer.Put<uint8_t>(static_cast<uint8_t>(KvsOp::kSetRanges));
    writer.PutString("k");
    writer.Put<uint32_t>(kHuge);
  }
  ExpectTypedOpError(DecodeBatchOp(ranges_op).status());

  Bytes members_result;
  {
    ByteWriter writer(members_result);
    WriteStatus(writer, OkStatus());
    writer.Put<uint32_t>(kHuge);
  }
  KvsBatchResult members = DecodeBatchResult(KvsOp::kSetMembers, members_result);
  ExpectTypedOpError(members.status);
  EXPECT_LE(members.members.capacity(), kReserveCap);

  Bytes frame;
  {
    ByteWriter writer(frame);
    BeginFrameBatch(writer, kHuge);
  }
  ByteReader reader(frame);
  ExpectTypedOpError(ReadFrameBatch(reader).status());
}

TEST(BatchCodecTest, MutatedOpEncodingsNeverCrash) {
  for (const KvsBatchOp& op : EveryOpKind()) {
    SCOPED_TRACE(static_cast<int>(op.op));
    MutateEverywhere(EncodeBatchOp(op));
    MutateEverywhere(EncodeReplicaOp(op, 99));
  }
}

TEST(BatchCodecTest, MutatedResultEncodingsNeverCrash) {
  const KvsBatchResult full = FullResult();
  for (const KvsBatchOp& op : EveryOpKind()) {
    SCOPED_TRACE(static_cast<int>(op.op));
    MutateEverywhere(EncodeBatchResult(op.op, full));
  }
}

TEST(BatchCodecTest, MutatedFramedBatchesNeverCrash) {
  // The request and response bodies as they cross the wire: a frame of
  // every op kind, and the frame of their results.
  std::vector<Bytes> requests;
  std::vector<Bytes> results;
  for (const KvsBatchOp& op : EveryOpKind()) {
    requests.push_back(EncodeBatchOp(op));
    results.push_back(EncodeBatchResult(op.op, FullResult()));
  }
  for (const std::vector<Bytes>* parts : {&requests, &results}) {
    Bytes frame;
    ByteWriter writer(frame);
    WriteFrameBatch(writer, *parts);
    MutateEverywhere(frame);
  }
}

TEST(BatchCodecTest, MigrateInstallRoundTripsAndMutantsNeverCrash) {
  KeyExport record;
  record.has_value = true;
  record.value = Bytes{1, 2, 3};
  record.lock_readers = 2;
  record.set_members = {"host-1", "host-2"};
  record.seq = 9;
  const Bytes encoded = EncodeMigrateInstall("k", record);
  const Bytes body(encoded.begin() + 1, encoded.end());  // after the type byte
  {
    ByteReader reader(body);
    std::string key;
    KeyExport decoded;
    ASSERT_TRUE(DecodeMigrateInstall(reader, key, decoded).ok());
    EXPECT_EQ(key, "k");
    EXPECT_TRUE(decoded.SameContent(record));
    EXPECT_EQ(decoded.seq, 9u);
  }
  auto decode = [](const Bytes& mutant) {
    ByteReader reader(mutant);
    std::string key;
    KeyExport decoded;
    Status status = DecodeMigrateInstall(reader, key, decoded);
    if (status.ok()) {
      ExpectBoundedStorage(decoded.set_members);
    }
  };
  for (size_t cut = 0; cut < body.size(); ++cut) {
    decode(Bytes(body.begin(), body.begin() + cut));
  }
  for (size_t i = 0; i < body.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = body;
      flipped[i] ^= static_cast<uint8_t>(1u << bit);
      decode(flipped);
    }
  }
}

}  // namespace
}  // namespace faasm
