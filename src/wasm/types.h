// Core WebAssembly types (MVP + sign-extension operators), following the
// binary encoding of the WebAssembly 1.0 specification.
#ifndef FAASM_WASM_TYPES_H_
#define FAASM_WASM_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace faasm::wasm {

enum class ValType : uint8_t {
  kI32 = 0x7F,
  kI64 = 0x7E,
  kF32 = 0x7D,
  kF64 = 0x7C,
};

const char* ValTypeName(ValType t);
bool IsValidValType(uint8_t byte);

// Block type: empty (no result) or a single value type (MVP).
struct BlockType {
  bool has_result = false;
  ValType result = ValType::kI32;

  static BlockType Empty() { return BlockType{}; }
  static BlockType Of(ValType t) { return BlockType{true, t}; }

  size_t arity() const { return has_result ? 1 : 0; }
};

constexpr uint8_t kBlockTypeEmpty = 0x40;
constexpr uint8_t kFuncTypeTag = 0x60;
constexpr uint8_t kFuncRefTag = 0x70;

struct FuncType {
  std::vector<ValType> params;
  std::vector<ValType> results;

  bool operator==(const FuncType& other) const {
    return params == other.params && results == other.results;
  }
};

struct Limits {
  uint32_t min = 0;
  bool has_max = false;
  uint32_t max = 0;
};

// An untagged wasm value. Validation guarantees that producers and consumers
// agree on the active member, so no runtime tag is carried.
union Value {
  uint32_t i32;
  uint64_t i64;
  float f32;
  double f64;
};

inline Value MakeI32(uint32_t v) {
  Value out;
  out.i64 = 0;
  out.i32 = v;
  return out;
}
inline Value MakeI64(uint64_t v) {
  Value out;
  out.i64 = v;
  return out;
}
inline Value MakeF32(float v) {
  Value out;
  out.i64 = 0;
  out.f32 = v;
  return out;
}
inline Value MakeF64(double v) {
  Value out;
  out.f64 = v;
  return out;
}

// Trap reasons, mirroring the spec's runtime errors. Traps are surfaced as
// non-OK Status values whose messages start with "trap:".
enum class TrapKind {
  kUnreachable,
  kMemoryOutOfBounds,
  kIntegerDivideByZero,
  kIntegerOverflow,
  kInvalidConversion,
  kUndefinedElement,
  kUninitializedElement,
  kIndirectCallTypeMismatch,
  kCallStackExhausted,
  kValueStackExhausted,
  kFuelExhausted,
  kHostError,
};

const char* TrapKindName(TrapKind kind);
Status TrapStatus(TrapKind kind, const std::string& detail = "");

// True if `status` represents a wasm trap (vs. an embedder error).
bool IsTrap(const Status& status);

}  // namespace faasm::wasm

#endif  // FAASM_WASM_TYPES_H_
