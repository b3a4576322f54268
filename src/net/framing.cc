#include "net/framing.h"

#include <algorithm>

namespace faasm {

void BeginFrameBatch(ByteWriter& writer, uint32_t count) { writer.Put<uint32_t>(count); }

void AppendFrame(ByteWriter& writer, const Bytes& part) { writer.PutBytes(part); }

void WriteFrameBatch(ByteWriter& writer, const std::vector<Bytes>& parts) {
  BeginFrameBatch(writer, static_cast<uint32_t>(parts.size()));
  for (const Bytes& part : parts) {
    AppendFrame(writer, part);
  }
}

Result<std::vector<ByteReader>> ReadFrameSpans(ByteReader& reader) {
  FAASM_ASSIGN_OR_RETURN(uint32_t count, reader.Get<uint32_t>());
  std::vector<ByteReader> parts;
  parts.reserve(std::min<uint32_t>(count, 1024));
  for (uint32_t i = 0; i < count; ++i) {
    FAASM_ASSIGN_OR_RETURN(ByteReader part, reader.GetSpan());
    parts.push_back(part);
  }
  return parts;
}

Result<std::vector<Bytes>> ReadFrameBatch(ByteReader& reader) {
  FAASM_ASSIGN_OR_RETURN(uint32_t count, reader.Get<uint32_t>());
  std::vector<Bytes> parts;
  parts.reserve(std::min<uint32_t>(count, 1024));
  for (uint32_t i = 0; i < count; ++i) {
    FAASM_ASSIGN_OR_RETURN(Bytes part, reader.GetBytes());
    parts.push_back(std::move(part));
  }
  return parts;
}

size_t FrameOverheadBytes(size_t parts) { return sizeof(uint32_t) * (1 + parts); }

}  // namespace faasm
