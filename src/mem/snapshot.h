// MemorySnapshot: the byte image behind a Proto-Faaslet (§5.2). The snapshot
// lives in a memfd so restores can be zero-copy: a MAP_PRIVATE mapping of the
// snapshot gives the new Faaslet copy-on-write pages that alias the snapshot
// until first write. Only pages that hold data are stored: the memfd's holes
// read as zero. Snapshots are OS-thread independent and serialisable, so the
// runtime can ship them across (simulated) hosts.
#ifndef FAASM_MEM_SNAPSHOT_H_
#define FAASM_MEM_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "mem/linear_memory.h"

namespace faasm {

class MemorySnapshot {
 public:
  // Captures `len` bytes from `src` into a new snapshot memfd.
  static Result<std::unique_ptr<MemorySnapshot>> Capture(const std::string& name,
                                                         const uint8_t* src, size_t len);

  // Rebuilds a snapshot from serialised bytes (cross-host restore). The bytes
  // come from the global tier, so every header is checked before anything is
  // allocated: an image past the 4 GiB wasm address space, a page at or past
  // the image size, pages duplicated or out of order, a page longer than its
  // host page, and truncated or trailing bytes all fail.
  static Result<std::unique_ptr<MemorySnapshot>> Deserialize(const std::string& name,
                                                             const Bytes& bytes);

  ~MemorySnapshot();

  MemorySnapshot(const MemorySnapshot&) = delete;
  MemorySnapshot& operator=(const MemorySnapshot&) = delete;

  // The image's logical size: the captured memory's length.
  size_t size() const { return size_; }
  int fd() const { return fd_; }

  // Copy-on-write restore into `memory` (preferred, sub-millisecond).
  Status RestoreInto(LinearMemory& memory) const;

  // Delta restore: copies back only the pages `memory`'s dirty tracker saw
  // written since the last restore/capture. Valid only when the non-dirty
  // pages already match this snapshot (warm Faaslet resets).
  Status RestoreDirty(LinearMemory& memory) const;

  // Serialises the image so it can be stored in the global tier and restored
  // on another host: the logical size (u64) and a page count (u32), then each
  // host page that is not all zero as (u32 index, u32 length, bytes), in
  // ascending order. A page's length is the host page size, or less for the
  // image's last page.
  Bytes Serialize() const;

 private:
  MemorySnapshot(int fd, size_t size, const uint8_t* view)
      : fd_(fd), size_(size), view_(view) {}

  // A zero-filled snapshot of `len` bytes with a writable view.
  static Result<std::unique_ptr<MemorySnapshot>> CreateEmpty(const std::string& name, size_t len);
  // Makes the view read-only once the pages are written.
  void Seal();

  int fd_;
  size_t size_;
  const uint8_t* view_;  // read-only host view of the snapshot contents
};

}  // namespace faasm

#endif  // FAASM_MEM_SNAPSHOT_H_
