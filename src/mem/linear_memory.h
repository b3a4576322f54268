// LinearMemory: a WebAssembly linear memory backed by a large PROT_NONE
// virtual reservation. Pages are committed on memory.grow; shared regions
// (memfd-backed) can be mapped MAP_SHARED | MAP_FIXED at wasm-page-aligned
// guest offsets so the function sees one dense linear address space whose
// tail pages alias shared physical memory (paper §3.3, Fig. 2).
//
// Out-of-bounds enforcement depends on the interpreter's bounds tier
// (wasm/instance.h GuestBounds). The checked tier tests InBounds() before
// every access. The guard-page tier elides those tests: the reservation
// spans the entire reachable range of a 32-bit address plus a 32-bit static
// offset, so any unchecked guest access past the committed frontier lands on
// a PROT_NONE page and raises SIGSEGV, which a scoped handler
// (wasm/guard_trap.h) converts back into an ordinary out-of-bounds trap.
// Either way the fault never escapes the sandbox; only the mechanism —
// branch vs. signal — differs.
#ifndef FAASM_MEM_LINEAR_MEMORY_H_
#define FAASM_MEM_LINEAR_MEMORY_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/status.h"
#include "mem/dirty_tracker.h"
#include "mem/page.h"
#include "mem/shared_region.h"

namespace faasm {

class LinearMemory {
 public:
  // Committed memory can cover at most the full 32-bit wasm address space.
  static constexpr size_t kMaxLinearBytes = size_t{1} << 32;

  // The reservation covers every address the interpreter's guard-page tier
  // can compute without a bounds check: a u32 base address plus a u32 static
  // offset (< 2^33), plus one wasm page of redzone for the widest access.
  // Everything past kMaxLinearBytes is permanently PROT_NONE.
  static constexpr size_t kReservationBytes = (size_t{1} << 33) + kWasmPageBytes;

  // `initial_pages`/`max_pages` are wasm (64 KiB) pages. `max_pages` is the
  // per-function memory limit enforced on grow (§3.2 "Memory").
  static Result<std::unique_ptr<LinearMemory>> Create(uint32_t initial_pages, uint32_t max_pages);

  ~LinearMemory();

  LinearMemory(const LinearMemory&) = delete;
  LinearMemory& operator=(const LinearMemory&) = delete;

  uint32_t size_pages() const { return size_pages_; }
  uint32_t max_pages() const { return max_pages_; }
  size_t size_bytes() const { return static_cast<size_t>(size_pages_) * kWasmPageBytes; }

  // memory.grow semantics: returns previous size in pages, or -1 (as u32)
  // when the limit would be exceeded.
  uint32_t Grow(uint32_t delta_pages);

  // Bounds check a guest range [offset, offset+len).
  bool InBounds(uint64_t offset, uint64_t len) const {
    return offset + len <= size_bytes() && offset + len >= offset;
  }

  // Raw base pointer; callers must bounds check first (the interpreter and
  // host interface do so on every access).
  uint8_t* base() { return base_; }
  const uint8_t* base() const { return base_; }

  // Checked typed accessors used by the host interface.
  Status Read(uint64_t offset, void* dst, size_t len) const;
  Status Write(uint64_t offset, const void* src, size_t len);

  // --- Dirty tracking -------------------------------------------------------
  //
  // Every write path (host-interface Write, interpreter stores) records the
  // touched host pages here. Marks inside a shared-region mapping are
  // forwarded to the region's own tracker (so state delta pushes see guest
  // stores); marks in the private prefix feed the delta reset, which restores
  // only dirtied pages from the creation snapshot.
  void MarkDirty(uint64_t offset, uint64_t len) {
    if (shared_mappings_.empty() ||
        offset + len <= shared_mappings_.front().guest_offset) {
      dirty_->MarkDirty(offset, len);
      return;
    }
    MarkDirtySlow(offset, len);
  }
  DirtyTracker& dirty() { return *dirty_; }

  // Restores dirty private pages from `src` (the creation snapshot image):
  // pages below `len` are copied back, dirty pages past the snapshot are
  // zeroed. Only valid when the non-dirty pages already match the snapshot,
  // i.e. after a prior full restore or capture. Unmaps shared regions and
  // clears the tracker.
  Status RestoreDirtyFrom(const uint8_t* src, size_t len);

  // Reads a NUL-terminated guest string with an upper bound.
  Result<std::string> ReadCString(uint32_t offset, uint32_t max_len = 4096) const;

  // --- Shared regions -------------------------------------------------------
  //
  // Extends the linear memory by `region->size()` (rounded up to whole wasm
  // pages) and maps the region's pages at the new offset. Returns the guest
  // offset at which the region is visible. The mapping is recorded so that
  // snapshots and resets can restore a pristine private memory.
  Result<uint32_t> MapSharedRegion(std::shared_ptr<SharedRegion> region);

  // Removes all shared-region mappings and shrinks memory back to the private
  // prefix, restoring anonymous pages underneath. Used on Faaslet reset.
  Status UnmapSharedRegions();

  struct SharedMapping {
    uint32_t guest_offset;
    uint32_t mapped_pages;  // wasm pages
    std::shared_ptr<SharedRegion> region;
  };
  const std::vector<SharedMapping>& shared_mappings() const { return shared_mappings_; }

  // Size of the private region (bytes before the first shared mapping).
  size_t private_bytes() const;

  // --- Snapshot support -----------------------------------------------------
  //
  // Maps `fd` (a snapshot memfd of `len` bytes) copy-on-write over the start
  // of memory. Pages are shared with the snapshot until first write.
  Status RestoreCopyOnWrite(int fd, size_t len);

 private:
  LinearMemory(uint8_t* base, uint32_t initial_pages, uint32_t max_pages)
      : base_(base),
        size_pages_(initial_pages),
        max_pages_(max_pages),
        dirty_(std::make_unique<DirtyTracker>(static_cast<size_t>(max_pages) * kWasmPageBytes,
                                              kHostPageBytes)) {}

  Status CommitPages(size_t from_byte, size_t to_byte);
  void MarkDirtySlow(uint64_t offset, uint64_t len);

  uint8_t* base_;
  uint32_t size_pages_;
  uint32_t max_pages_;
  std::unique_ptr<DirtyTracker> dirty_;
  std::vector<SharedMapping> shared_mappings_;
};

}  // namespace faasm

#endif  // FAASM_MEM_LINEAR_MEMORY_H_
