// Page-size constants and arithmetic shared by the memory substrate.
#ifndef FAASM_MEM_PAGE_H_
#define FAASM_MEM_PAGE_H_

#include <cstddef>
#include <cstdint>

namespace faasm {

// WebAssembly fixes its page size at 64 KiB.
constexpr size_t kWasmPageBytes = 64 * 1024;

// Host (x86-64 Linux) page size. Shared-region mappings must be aligned to
// this; we align them to whole wasm pages, which is a multiple.
constexpr size_t kHostPageBytes = 4096;

constexpr size_t RoundUpTo(size_t value, size_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

}  // namespace faasm

#endif  // FAASM_MEM_PAGE_H_
