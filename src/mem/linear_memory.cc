#include "mem/linear_memory.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/log.h"

namespace faasm {

Result<std::unique_ptr<LinearMemory>> LinearMemory::Create(uint32_t initial_pages,
                                                           uint32_t max_pages) {
  if (max_pages < initial_pages) {
    return InvalidArgument("LinearMemory: max_pages < initial_pages");
  }
  if (static_cast<uint64_t>(max_pages) * kWasmPageBytes > kMaxLinearBytes) {
    return InvalidArgument("LinearMemory: max_pages exceeds 32-bit address space");
  }
  void* base = mmap(nullptr, kReservationBytes, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) {
    return ResourceExhausted(std::string("LinearMemory reserve failed: ") + std::strerror(errno));
  }
  auto memory = std::unique_ptr<LinearMemory>(
      new LinearMemory(static_cast<uint8_t*>(base), initial_pages, max_pages));
  Status commit = memory->CommitPages(0, memory->size_bytes());
  if (!commit.ok()) {
    return commit;
  }
  return memory;
}

LinearMemory::~LinearMemory() {
  if (base_ != nullptr) {
    munmap(base_, kReservationBytes);
  }
}

Status LinearMemory::CommitPages(size_t from_byte, size_t to_byte) {
  if (to_byte <= from_byte) {
    return OkStatus();
  }
  if (mprotect(base_ + from_byte, to_byte - from_byte, PROT_READ | PROT_WRITE) != 0) {
    return ResourceExhausted(std::string("LinearMemory commit failed: ") + std::strerror(errno));
  }
  return OkStatus();
}

uint32_t LinearMemory::Grow(uint32_t delta_pages) {
  const uint32_t old_pages = size_pages_;
  const uint64_t new_pages = static_cast<uint64_t>(old_pages) + delta_pages;
  if (new_pages > max_pages_) {
    return UINT32_MAX;  // wasm memory.grow failure value
  }
  const size_t old_bytes = size_bytes();
  const size_t new_bytes = static_cast<size_t>(new_pages) * kWasmPageBytes;
  if (!CommitPages(old_bytes, new_bytes).ok()) {
    return UINT32_MAX;
  }
  size_pages_ = static_cast<uint32_t>(new_pages);
  return old_pages;
}

Status LinearMemory::Read(uint64_t offset, void* dst, size_t len) const {
  if (!InBounds(offset, len)) {
    return OutOfRange("LinearMemory read out of bounds");
  }
  std::memcpy(dst, base_ + offset, len);
  return OkStatus();
}

Status LinearMemory::Write(uint64_t offset, const void* src, size_t len) {
  if (!InBounds(offset, len)) {
    return OutOfRange("LinearMemory write out of bounds");
  }
  std::memcpy(base_ + offset, src, len);
  MarkDirty(offset, len);
  return OkStatus();
}

void LinearMemory::MarkDirtySlow(uint64_t offset, uint64_t len) {
  // Split the range over the private prefix and any shared mappings it
  // overlaps, forwarding each piece to the owning tracker in region-local
  // coordinates. Pieces in a mapping's alignment tail (between the region's
  // host pages and the wasm page boundary) clip inside the region tracker.
  const uint64_t end = offset + len;
  uint64_t cursor = offset;
  const uint64_t private_end = shared_mappings_.front().guest_offset;
  if (cursor < private_end) {
    dirty_->MarkDirty(cursor, std::min(end, private_end) - cursor);
    cursor = private_end;
  }
  for (SharedMapping& mapping : shared_mappings_) {
    if (cursor >= end) {
      return;
    }
    const uint64_t map_start = mapping.guest_offset;
    const uint64_t map_end =
        map_start + static_cast<uint64_t>(mapping.mapped_pages) * kWasmPageBytes;
    if (end <= map_start || cursor >= map_end) {
      continue;
    }
    const uint64_t piece_start = std::max(cursor, map_start);
    const uint64_t piece_end = std::min(end, map_end);
    mapping.region->dirty().MarkDirty(piece_start - map_start, piece_end - piece_start);
    cursor = piece_end;
  }
}

Result<std::string> LinearMemory::ReadCString(uint32_t offset, uint32_t max_len) const {
  std::string out;
  for (uint32_t i = 0; i < max_len; ++i) {
    if (!InBounds(static_cast<uint64_t>(offset) + i, 1)) {
      return OutOfRange("LinearMemory c-string out of bounds");
    }
    const char c = static_cast<char>(base_[offset + i]);
    if (c == '\0') {
      return out;
    }
    out.push_back(c);
  }
  return OutOfRange("LinearMemory c-string unterminated");
}

size_t LinearMemory::private_bytes() const {
  if (shared_mappings_.empty()) {
    return size_bytes();
  }
  return shared_mappings_.front().guest_offset;
}

Result<uint32_t> LinearMemory::MapSharedRegion(std::shared_ptr<SharedRegion> region) {
  const size_t region_pages = RoundUpTo(region->mapped_size(), kWasmPageBytes) / kWasmPageBytes;
  const uint64_t new_total = static_cast<uint64_t>(size_pages_) + region_pages;
  if (new_total > max_pages_) {
    return ResourceExhausted("MapSharedRegion: function memory limit exceeded");
  }
  const size_t guest_offset = size_bytes();
  void* mapped = mmap(base_ + guest_offset, region->mapped_size(), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_FIXED, region->fd(), 0);
  if (mapped == MAP_FAILED) {
    return ResourceExhausted(std::string("MapSharedRegion mmap failed: ") + std::strerror(errno));
  }
  // Commit any alignment tail between the region's host pages and the wasm
  // page boundary so the whole extension is accessible.
  const size_t tail_start = guest_offset + region->mapped_size();
  const size_t tail_end = guest_offset + region_pages * kWasmPageBytes;
  FAASM_RETURN_IF_ERROR(CommitPages(tail_start, tail_end));

  size_pages_ = static_cast<uint32_t>(new_total);
  shared_mappings_.push_back(SharedMapping{static_cast<uint32_t>(guest_offset),
                                           static_cast<uint32_t>(region_pages), std::move(region)});
  return static_cast<uint32_t>(guest_offset);
}

Status LinearMemory::UnmapSharedRegions() {
  if (shared_mappings_.empty()) {
    return OkStatus();
  }
  const size_t first_shared = shared_mappings_.front().guest_offset;
  const size_t end = size_bytes();
  // Replace the shared mappings (and everything after them) with fresh
  // anonymous pages, then shrink back to the private prefix.
  void* mapped = mmap(base_ + first_shared, end - first_shared, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED, -1, 0);
  if (mapped == MAP_FAILED) {
    return Internal(std::string("UnmapSharedRegions failed: ") + std::strerror(errno));
  }
  shared_mappings_.clear();
  size_pages_ = static_cast<uint32_t>(first_shared / kWasmPageBytes);
  return OkStatus();
}

Status LinearMemory::RestoreDirtyFrom(const uint8_t* src, size_t len) {
  FAASM_RETURN_IF_ERROR(UnmapSharedRegions());
  const size_t committed = size_bytes();
  for (const DirtyRun& run : dirty_->CollectAndClearDirtyRuns()) {
    if (run.offset >= committed) {
      break;  // runs are ascending; the rest lie past the private prefix
    }
    const size_t end = std::min(run.offset + run.len, committed);
    const size_t copy_end = std::min(end, std::max(run.offset, len));
    if (copy_end > run.offset) {
      std::memcpy(base_ + run.offset, src + run.offset, copy_end - run.offset);
    }
    if (end > copy_end) {
      std::memset(base_ + copy_end, 0, end - copy_end);
    }
  }
  return OkStatus();
}

Status LinearMemory::RestoreCopyOnWrite(int fd, size_t len) {
  FAASM_RETURN_IF_ERROR(UnmapSharedRegions());
  const size_t mapped_len = RoundUpTo(len, kHostPageBytes);
  const size_t needed_pages = RoundUpTo(len, kWasmPageBytes) / kWasmPageBytes;
  if (needed_pages > size_pages_) {
    if (Grow(static_cast<uint32_t>(needed_pages - size_pages_)) == UINT32_MAX) {
      return ResourceExhausted("RestoreCopyOnWrite: memory limit exceeded");
    }
  }
  void* mapped = mmap(base_, mapped_len, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_FIXED, fd, 0);
  if (mapped == MAP_FAILED) {
    return Internal(std::string("RestoreCopyOnWrite mmap failed: ") + std::strerror(errno));
  }
  // Zero the gap between the snapshot and the end of committed memory so no
  // state from a previous invocation leaks past the snapshot boundary.
  if (mapped_len < size_bytes()) {
    std::memset(base_ + mapped_len, 0, size_bytes() - mapped_len);
  }
  dirty_->ClearDirty();
  return OkStatus();
}

}  // namespace faasm
