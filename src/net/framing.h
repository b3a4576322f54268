// Multi-message batch framing: the wire container batched RPCs (the KVS
// kBatch op) use to ship several sub-messages as ONE network message. A
// framed batch is a u32 sub-message count followed by that many
// length-prefixed parts; part contents are opaque to this layer.
//
// Because the whole frame travels through a single InProcNetwork::Call, the
// byte accounting and latency model charge it as one round trip: per-batch
// accounting falls out of the framing rather than needing its own counters.
#ifndef FAASM_NET_FRAMING_H_
#define FAASM_NET_FRAMING_H_

#include <vector>

#include "common/bytes.h"

namespace faasm {

// Writes the batch header; exactly `count` AppendFrame calls must follow.
void BeginFrameBatch(ByteWriter& writer, uint32_t count);

// Appends one length-prefixed sub-message.
void AppendFrame(ByteWriter& writer, const Bytes& part);

// AppendFrame for a part that `write(ByteWriter&)` encodes in place, at the
// end of `out`: the part's bytes are written once, with no intermediate
// buffer (large values cross a batch without an extra copy).
template <typename WriteFn>
void AppendFrameInPlace(Bytes& out, WriteFn&& write) {
  const size_t at = out.size();
  AppendScalar<uint32_t>(out, 0);  // length prefix, patched below
  ByteWriter writer(out);
  write(writer);
  const auto len = static_cast<uint32_t>(out.size() - at - sizeof(uint32_t));
  std::memcpy(out.data() + at, &len, sizeof(len));
}

// Convenience: frames a whole vector of parts.
void WriteFrameBatch(ByteWriter& writer, const std::vector<Bytes>& parts);

// Reads a framed batch back into its parts. The declared count is wire data:
// the reservation is capped and the per-part parse rejects truncated
// payloads instead of trusting an attacker-chosen count.
Result<std::vector<Bytes>> ReadFrameBatch(ByteReader& reader);
// Zero-copy twin: a reader over each part, inside `reader`'s buffer (valid
// while that buffer lives). Same count cap and truncation checks.
Result<std::vector<ByteReader>> ReadFrameSpans(ByteReader& reader);

// Wire overhead of framing `parts` sub-messages (header + per-part length
// prefixes), for byte-accounting assertions in tests and benches.
size_t FrameOverheadBytes(size_t parts);

}  // namespace faasm

#endif  // FAASM_NET_FRAMING_H_
