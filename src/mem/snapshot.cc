#include "mem/snapshot.h"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "mem/page.h"

namespace faasm {

Result<std::unique_ptr<MemorySnapshot>> MemorySnapshot::Capture(const std::string& name,
                                                                const uint8_t* src, size_t len) {
  int fd = static_cast<int>(syscall(SYS_memfd_create, name.c_str(), 0));
  if (fd < 0) {
    return Unavailable(std::string("snapshot memfd_create failed: ") + std::strerror(errno));
  }
  const size_t mapped_len = RoundUpTo(len == 0 ? 1 : len, kHostPageBytes);
  if (ftruncate(fd, static_cast<off_t>(mapped_len)) != 0) {
    close(fd);
    return ResourceExhausted(std::string("snapshot ftruncate failed: ") + std::strerror(errno));
  }
  void* view = mmap(nullptr, mapped_len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (view == MAP_FAILED) {
    close(fd);
    return ResourceExhausted(std::string("snapshot mmap failed: ") + std::strerror(errno));
  }
  std::memcpy(view, src, len);
  // Downgrade the view to read-only: the snapshot is immutable once captured.
  mprotect(view, mapped_len, PROT_READ);
  return std::unique_ptr<MemorySnapshot>(
      new MemorySnapshot(fd, len, static_cast<const uint8_t*>(view)));
}

Result<std::unique_ptr<MemorySnapshot>> MemorySnapshot::Deserialize(const std::string& name,
                                                                    const Bytes& bytes) {
  return Capture(name, bytes.data(), bytes.size());
}

MemorySnapshot::~MemorySnapshot() {
  if (view_ != nullptr) {
    munmap(const_cast<uint8_t*>(view_), RoundUpTo(size_ == 0 ? 1 : size_, kHostPageBytes));
  }
  if (fd_ >= 0) {
    close(fd_);
  }
}

Status MemorySnapshot::RestoreInto(LinearMemory& memory) const {
  return memory.RestoreCopyOnWrite(fd_, size_);
}

Status MemorySnapshot::RestoreDirty(LinearMemory& memory) const {
  return memory.RestoreDirtyFrom(view_, size_);
}

Bytes MemorySnapshot::Serialize() const { return Bytes(view_, view_ + size_); }

}  // namespace faasm
