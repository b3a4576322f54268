// Process memory accounting helper used by the Table 3 benchmark (RSS
// deltas per Faaslet) — reads /proc, Linux only.
#ifndef FAASM_MEM_MEMINFO_H_
#define FAASM_MEM_MEMINFO_H_

#include <cstddef>
#include <cstdint>

namespace faasm {

// Resident set size of the current process in bytes (from /proc/self/statm).
size_t CurrentRssBytes();

}  // namespace faasm

#endif  // FAASM_MEM_MEMINFO_H_
