// Byte-array helpers. The host interface deliberately passes all function
// inputs, outputs and state as raw byte arrays (§3.2 "Byte arrays"), so a
// small, allocation-conscious serialisation layer is used across the system.
#ifndef FAASM_COMMON_BYTES_H_
#define FAASM_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace faasm {

using Bytes = std::vector<uint8_t>;

inline Bytes BytesFromString(const std::string& s) { return Bytes(s.begin(), s.end()); }
inline std::string StringFromBytes(const Bytes& b) { return std::string(b.begin(), b.end()); }

// Append a trivially-copyable value in little-endian (host) order.
// resize+memcpy rather than insert(range): GCC 12's -Wstringop-overflow
// misjudges the scalar-range insert when it inlines the vector growth path
// and flags a phantom overflow at many call sites; the explicit form keeps
// the codegen identical without tripping it.
template <typename T>
void AppendScalar(Bytes& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t offset = out.size();
  out.resize(offset + sizeof(T));
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

// Sequential writer over a growable byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) : out_(out) {}

  template <typename T>
  void Put(T value) {
    AppendScalar(out_, value);
  }

  void PutString(const std::string& s) {
    Put<uint32_t>(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  void PutBytes(const Bytes& b) {
    Put<uint32_t>(static_cast<uint32_t>(b.size()));
    PutRaw(b.data(), b.size());
  }

  // Same resize+memcpy shape as AppendScalar, for the same GCC 12
  // -Wstringop-overflow reason.
  void PutRaw(const void* data, size_t len) {
    if (len == 0) {
      return;
    }
    const size_t offset = out_.size();
    out_.resize(offset + len);
    std::memcpy(out_.data() + offset, data, len);
  }

 private:
  Bytes& out_;
};

// Sequential bounds-checked reader over a byte span.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const Bytes& b) : ByteReader(b.data(), b.size()) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool exhausted() const { return pos_ >= size_; }

  template <typename T>
  Result<T> Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) {
      return OutOfRange("ByteReader: truncated scalar");
    }
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  Result<std::string> GetString() {
    auto len = Get<uint32_t>();
    if (!len.ok()) {
      return len.status();
    }
    if (remaining() < len.value()) {
      return OutOfRange("ByteReader: truncated string");
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len.value());
    pos_ += len.value();
    return s;
  }

  // A u32-length-prefixed span as a reader over this buffer: GetBytes
  // without the copy. Valid while the underlying buffer lives.
  Result<ByteReader> GetSpan() {
    auto len = Get<uint32_t>();
    if (!len.ok()) {
      return len.status();
    }
    if (remaining() < len.value()) {
      return OutOfRange("ByteReader: truncated span");
    }
    ByteReader span(data_ + pos_, len.value());
    pos_ += len.value();
    return span;
  }

  Result<Bytes> GetBytes() {
    auto len = Get<uint32_t>();
    if (!len.ok()) {
      return len.status();
    }
    if (remaining() < len.value()) {
      return OutOfRange("ByteReader: truncated bytes");
    }
    Bytes b(data_ + pos_, data_ + pos_ + len.value());
    pos_ += len.value();
    return b;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// FNV-1a, used for content-addressing uploaded modules and test checksums.
uint64_t HashBytes(const uint8_t* data, size_t size);
inline uint64_t HashBytes(const Bytes& b) { return HashBytes(b.data(), b.size()); }

}  // namespace faasm

#endif  // FAASM_COMMON_BYTES_H_
