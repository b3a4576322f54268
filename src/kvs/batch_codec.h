// The KVS sub-op codec: the only request encoding of the global tier. Every
// KvsClient op — a single-key call is a one-op batch — and every
// replication forward (kvs/replication.h) travels as framed sub-ops
// (net/framing.h) in this format.
//
// One op set, two dialects that differ in one field:
//
//   - the PUBLIC dialect (EncodeBatchOp/DecodeBatchOp), inside kBatch /
//     kGetBatch: u8 op, key, op-specific args.
//   - the REPLICA dialect (EncodeReplicaOp/DecodeReplicaOp), the
//     primary→backup forward channel: the same layout plus a u64 apply
//     sequence after the key — the backup's duplicate filter.
//
// Both accept every sub-op KvsOp defines (kGet … kSetRanges, the lock ops
// with the owner in `member`); anything else, the retired codes 4, 6, 7 and
// 8 included, decodes as InvalidArgument.
// Results (EncodeBatchResult/DecodeBatchResult) are shared: status byte,
// then an op-keyed payload (value bytes — followed, for a kGetRange, by the
// whole value's u64 length —, a u64 length, a u8 flag, or the u32 member
// count plus members). A kGet's bytes are the whole value, so its decoded
// length is their size.
#ifndef FAASM_KVS_BATCH_CODEC_H_
#define FAASM_KVS_BATCH_CODEC_H_

#include "common/bytes.h"
#include "common/status.h"
#include "kvs/kv_store.h"

namespace faasm {

// Response layout shared by every KVS wire answer: u8 status code first,
// payload after (only when ok).
void WriteStatus(ByteWriter& writer, const Status& status);
Status ReadStatus(ByteReader& reader);

// Public dialect (kBatch / kGetBatch sub-ops). DecodeBatchOp answers
// InvalidArgument("kvs: op not batchable") for any code that is not a
// sub-op, and OutOfRange for a truncated one.
Bytes EncodeBatchOp(const KvsBatchOp& op);
Result<KvsBatchOp> DecodeBatchOp(const Bytes& part);

// Replica dialect (primary→backup forwards). `seq` is the primary's apply
// sequence for the op; DecodeReplicaOp fills KvsBatchOp::seq with it.
Bytes EncodeReplicaOp(const KvsBatchOp& op, uint64_t seq);
Result<KvsBatchOp> DecodeReplicaOp(const Bytes& part);

// Either dialect, decoded in place inside a request (net/framing.h
// ReadFrameSpans), so a value crosses a batch without an extra copy: the
// servers' decoder.
Status DecodeOp(ByteReader part, bool replica_dialect, KvsBatchOp& op);

// Per-op result, both dialects. WriteBatchResult encodes in place into a
// response (net/framing.h AppendFrameInPlace); the ByteReader form decodes
// inside one (ReadFrameSpans).
Bytes EncodeBatchResult(KvsOp op, const KvsBatchResult& result);
void WriteBatchResult(ByteWriter& writer, KvsOp op, const KvsBatchResult& result);
KvsBatchResult DecodeBatchResult(KvsOp op, const Bytes& part);
KvsBatchResult DecodeBatchResult(KvsOp op, ByteReader part);

// The migration stream's request (kMigrateInstall): one key's exported
// footprint, installed by a KvsServer (shard migration) or a ReplicaServer
// (catch-up and promotion snapshots). DecodeMigrateInstall parses the body
// after the request-type byte.
Bytes EncodeMigrateInstall(const std::string& key, const KeyExport& record);
Status DecodeMigrateInstall(ByteReader& reader, std::string& key, KeyExport& record);

}  // namespace faasm

#endif  // FAASM_KVS_BATCH_CODEC_H_
