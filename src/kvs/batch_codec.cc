#include "kvs/batch_codec.h"

#include <algorithm>

namespace faasm {

namespace {

// One body serving both dialects: the replica channel inserts its apply
// sequence between the key and the args.
Bytes EncodeOpImpl(const KvsBatchOp& op, bool replica, uint64_t seq) {
  Bytes out;
  out.reserve(16);  // quiets a GCC 12 -Wstringop-overflow false positive
  ByteWriter writer(out);
  writer.Put<uint8_t>(static_cast<uint8_t>(op.op));
  writer.PutString(op.key);
  if (replica) {
    writer.Put<uint64_t>(seq);
  }
  switch (op.op) {
    case KvsOp::kGetRange:
      writer.Put<uint64_t>(op.offset);
      writer.Put<uint64_t>(op.len);
      break;
    case KvsOp::kSet:
    case KvsOp::kAppend:
      writer.PutBytes(op.bytes);
      break;
    case KvsOp::kSetRanges: {
      writer.Put<uint32_t>(static_cast<uint32_t>(op.ranges.size()));
      for (const ValueRange& range : op.ranges) {
        writer.Put<uint64_t>(range.offset);
        writer.PutBytes(range.bytes);
      }
      break;
    }
    case KvsOp::kSetAdd:
    case KvsOp::kSetRemove:
    case KvsOp::kLockRead:
    case KvsOp::kLockWrite:
    case KvsOp::kUnlockRead:
    case KvsOp::kUnlockWrite:
      writer.PutString(op.member);  // the set member, or the lock owner
      break;
    default:
      break;  // key-only ops; a code that is no sub-op fails its decode
  }
  return out;
}

// Field readers for the decoders: false when the part is truncated. Each
// read's temporary dies here, which keeps the decoders' stack frames small
// (they run under every server request).
template <typename T>
bool Take(ByteReader& reader, T& out) {
  auto value = reader.Get<T>();
  if (value.ok()) {
    out = value.value();
  }
  return value.ok();
}
bool Take(ByteReader& reader, std::string& out) {
  auto value = reader.GetString();
  if (value.ok()) {
    out = std::move(value).value();
  }
  return value.ok();
}
bool Take(ByteReader& reader, Bytes& out) {
  auto value = reader.GetBytes();
  if (value.ok()) {
    out = std::move(value).value();
  }
  return value.ok();
}

// Reads a u32 count then that many elements with `take`. `count` is wire
// data: the reservation is capped like ReadFrameBatch, and the per-element
// parse rejects a list the part cannot back.
template <typename T, typename TakeFn>
bool TakeList(ByteReader& reader, std::vector<T>& out, TakeFn take) {
  uint32_t count = 0;
  if (!Take(reader, count)) {
    return false;
  }
  out.reserve(std::min<uint32_t>(count, 1024));
  for (uint32_t i = 0; i < count; ++i) {
    T element;
    if (!take(element)) {
      return false;
    }
    out.push_back(std::move(element));
  }
  return true;
}

Status DecodeOpImpl(ByteReader reader, bool replica, KvsBatchOp& op) {
  uint8_t code = 0;
  if (!Take(reader, code) || !Take(reader, op.key) || (replica && !Take(reader, op.seq))) {
    return OutOfRange("kvs: truncated sub-op");
  }
  op.op = static_cast<KvsOp>(code);
  bool complete = true;
  switch (op.op) {
    case KvsOp::kGet:
    case KvsOp::kSetMembers:
      break;
    case KvsOp::kGetRange:
      complete = Take(reader, op.offset) && Take(reader, op.len);
      break;
    case KvsOp::kSet:
    case KvsOp::kAppend:
      complete = Take(reader, op.bytes);
      break;
    case KvsOp::kSetRanges:
      complete = TakeList(reader, op.ranges, [&](ValueRange& range) {
        return Take(reader, range.offset) && Take(reader, range.bytes);
      });
      break;
    case KvsOp::kSetAdd:
    case KvsOp::kSetRemove:
    case KvsOp::kLockRead:
    case KvsOp::kLockWrite:
    case KvsOp::kUnlockRead:
    case KvsOp::kUnlockWrite:
      complete = Take(reader, op.member);
      break;
    default:
      return InvalidArgument("kvs: op not batchable");
  }
  return complete ? OkStatus() : OutOfRange("kvs: truncated sub-op");
}

Result<KvsBatchOp> DecodeOpImpl(const Bytes& part, bool replica) {
  KvsBatchOp op;
  FAASM_RETURN_IF_ERROR(DecodeOpImpl(ByteReader(part), replica, op));
  return op;
}

// Parses the op-keyed payload of an ok result into `result`.
Status DecodeResultPayload(KvsOp op, ByteReader& reader, KvsBatchResult& result) {
  bool complete = true;
  switch (op) {
    case KvsOp::kGet:
      complete = Take(reader, result.value);
      result.length = result.value.size();
      break;
    case KvsOp::kGetRange:
      complete = Take(reader, result.value) && Take(reader, result.length);
      break;
    case KvsOp::kAppend:
      complete = Take(reader, result.length);
      break;
    case KvsOp::kSetAdd:
    case KvsOp::kSetRemove:
    case KvsOp::kLockRead:
    case KvsOp::kLockWrite: {
      uint8_t flag = 0;
      complete = Take(reader, flag);
      result.flag = flag != 0;
      break;
    }
    case KvsOp::kSetMembers:
      complete = TakeList(reader, result.members,
                          [&](std::string& member) { return Take(reader, member); });
      break;
    default:
      break;
  }
  return complete ? OkStatus() : OutOfRange("kvs: truncated result");
}

}  // namespace

void WriteStatus(ByteWriter& writer, const Status& status) {
  writer.Put<uint8_t>(static_cast<uint8_t>(status.code()));
}

Status ReadStatus(ByteReader& reader) {
  auto code = reader.Get<uint8_t>();
  if (!code.ok()) {
    return Internal("kvs: malformed response");
  }
  const auto status_code = static_cast<StatusCode>(code.value());
  if (status_code == StatusCode::kOk) {
    return OkStatus();
  }
  return Status(status_code, "kvs remote error");
}

Bytes EncodeBatchOp(const KvsBatchOp& op) { return EncodeOpImpl(op, /*replica=*/false, 0); }

Result<KvsBatchOp> DecodeBatchOp(const Bytes& part) { return DecodeOpImpl(part, /*replica=*/false); }

Status DecodeOp(ByteReader part, bool replica_dialect, KvsBatchOp& op) {
  return DecodeOpImpl(part, replica_dialect, op);
}

Bytes EncodeReplicaOp(const KvsBatchOp& op, uint64_t seq) {
  return EncodeOpImpl(op, /*replica=*/true, seq);
}

Result<KvsBatchOp> DecodeReplicaOp(const Bytes& part) {
  return DecodeOpImpl(part, /*replica=*/true);
}

Bytes EncodeBatchResult(const KvsOp op, const KvsBatchResult& result) {
  Bytes out;
  out.reserve(16);  // quiets a GCC 12 -Wstringop-overflow false positive
  ByteWriter writer(out);
  WriteBatchResult(writer, op, result);
  return out;
}

void WriteBatchResult(ByteWriter& writer, const KvsOp op, const KvsBatchResult& result) {
  WriteStatus(writer, result.status);
  if (!result.status.ok()) {
    return;
  }
  switch (op) {
    case KvsOp::kGet:
      writer.PutBytes(result.value);  // the bytes are the whole value
      break;
    case KvsOp::kGetRange:
      writer.PutBytes(result.value);
      writer.Put<uint64_t>(result.length);
      break;
    case KvsOp::kAppend:
      writer.Put<uint64_t>(result.length);
      break;
    case KvsOp::kSetAdd:
    case KvsOp::kSetRemove:
    case KvsOp::kLockRead:
    case KvsOp::kLockWrite:
      writer.Put<uint8_t>(result.flag ? 1 : 0);
      break;
    case KvsOp::kSetMembers:
      writer.Put<uint32_t>(static_cast<uint32_t>(result.members.size()));
      for (const std::string& member : result.members) {
        writer.PutString(member);
      }
      break;
    default:
      break;
  }
}

KvsBatchResult DecodeBatchResult(const KvsOp op, const Bytes& part) {
  return DecodeBatchResult(op, ByteReader(part));
}

KvsBatchResult DecodeBatchResult(const KvsOp op, ByteReader reader) {
  KvsBatchResult result;
  result.status = ReadStatus(reader);
  if (result.status.ok()) {
    result.status = DecodeResultPayload(op, reader, result);
  }
  return result;
}

Bytes EncodeMigrateInstall(const std::string& key, const KeyExport& record) {
  Bytes out;
  out.reserve(16);  // quiets a GCC 12 -Wstringop-overflow false positive
  ByteWriter writer(out);
  writer.Put<uint8_t>(static_cast<uint8_t>(KvsOp::kMigrateInstall));
  writer.PutString(key);
  writer.PutBytes(record.Serialize());
  return out;
}

Status DecodeMigrateInstall(ByteReader& reader, std::string& key, KeyExport& record) {
  Bytes payload;
  if (!Take(reader, key) || !Take(reader, payload)) {
    return OutOfRange("kvs: truncated install");
  }
  FAASM_ASSIGN_OR_RETURN(record, KeyExport::Deserialize(payload));
  return OkStatus();
}

}  // namespace faasm
