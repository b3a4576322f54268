#include "wasm/types.h"

namespace faasm::wasm {

const char* ValTypeName(ValType t) {
  switch (t) {
    case ValType::kI32:
      return "i32";
    case ValType::kI64:
      return "i64";
    case ValType::kF32:
      return "f32";
    case ValType::kF64:
      return "f64";
  }
  return "?";
}

bool IsValidValType(uint8_t byte) {
  return byte == 0x7F || byte == 0x7E || byte == 0x7D || byte == 0x7C;
}

const char* TrapKindName(TrapKind kind) {
  switch (kind) {
    case TrapKind::kUnreachable:
      return "unreachable";
    case TrapKind::kMemoryOutOfBounds:
      return "out of bounds memory access";
    case TrapKind::kIntegerDivideByZero:
      return "integer divide by zero";
    case TrapKind::kIntegerOverflow:
      return "integer overflow";
    case TrapKind::kInvalidConversion:
      return "invalid conversion to integer";
    case TrapKind::kUndefinedElement:
      return "undefined element";
    case TrapKind::kUninitializedElement:
      return "uninitialized element";
    case TrapKind::kIndirectCallTypeMismatch:
      return "indirect call type mismatch";
    case TrapKind::kCallStackExhausted:
      return "call stack exhausted";
    case TrapKind::kValueStackExhausted:
      return "value stack exhausted";
    case TrapKind::kFuelExhausted:
      return "fuel exhausted";
    case TrapKind::kHostError:
      return "host error";
  }
  return "unknown";
}

Status TrapStatus(TrapKind kind, const std::string& detail) {
  std::string message = "trap: ";
  message += TrapKindName(kind);
  if (!detail.empty()) {
    message += " (";
    message += detail;
    message += ")";
  }
  return Status(StatusCode::kFailedPrecondition, message);
}

bool IsTrap(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message().rfind("trap:", 0) == 0;
}

}  // namespace faasm::wasm
