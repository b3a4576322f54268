#include "mem/snapshot.h"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "mem/page.h"

namespace faasm {

namespace {

// The largest image a wasm memory can have: its whole 32-bit address space.
constexpr uint64_t kMaxImageBytes = uint64_t{1} << 32;

bool AllZero(const uint8_t* data, size_t len) {
  return len == 0 || (data[0] == 0 && std::memcmp(data, data + 1, len - 1) == 0);
}

// Bytes of host page `index` that lie inside an image of `size` bytes.
size_t PageBytes(size_t size, size_t index) {
  return std::min(kHostPageBytes, size - index * kHostPageBytes);
}

}  // namespace

Result<std::unique_ptr<MemorySnapshot>> MemorySnapshot::CreateEmpty(const std::string& name,
                                                                    size_t len) {
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
  return std::unique_ptr<MemorySnapshot>(
      new MemorySnapshot(fd, len, static_cast<const uint8_t*>(view)));
}

void MemorySnapshot::Seal() {
  // The snapshot is immutable once its pages are written.
  mprotect(const_cast<uint8_t*>(view_), RoundUpTo(size_ == 0 ? 1 : size_, kHostPageBytes),
           PROT_READ);
}

Result<std::unique_ptr<MemorySnapshot>> MemorySnapshot::Capture(const std::string& name,
                                                                const uint8_t* src, size_t len) {
  FAASM_ASSIGN_OR_RETURN(std::unique_ptr<MemorySnapshot> snapshot, CreateEmpty(name, len));
  // Only pages holding data are written: the memfd's holes read as zero and
  // take no memory.
  uint8_t* dst = const_cast<uint8_t*>(snapshot->view_);
  for (size_t offset = 0; offset < len; offset += kHostPageBytes) {
    const size_t n = PageBytes(len, offset / kHostPageBytes);
    if (!AllZero(src + offset, n)) {
      std::memcpy(dst + offset, src + offset, n);
    }
  }
  snapshot->Seal();
  return snapshot;
}

Result<std::unique_ptr<MemorySnapshot>> MemorySnapshot::Deserialize(const std::string& name,
                                                                    const Bytes& bytes) {
  ByteReader table(bytes);
  FAASM_ASSIGN_OR_RETURN(uint64_t size, table.Get<uint64_t>());
  FAASM_ASSIGN_OR_RETURN(uint32_t count, table.Get<uint32_t>());
  if (size > kMaxImageBytes) {
    return InvalidArgument("snapshot image larger than the wasm address space");
  }
  // Walks the page table, copying each page into `dst` when one is given.
  // The first walk checks every header before the memfd exists: the bytes
  // come from the global tier and must not make this host allocate what
  // they claim.
  auto walk = [&](uint8_t* dst) -> Status {
    ByteReader reader = table;
    int64_t last = -1;
    for (uint32_t i = 0; i < count; ++i) {
      FAASM_ASSIGN_OR_RETURN(uint32_t index, reader.Get<uint32_t>());
      if (uint64_t{index} * kHostPageBytes >= size) {
        return InvalidArgument("snapshot page past the image size");
      }
      if (int64_t{index} <= last) {
        return InvalidArgument("snapshot pages duplicated or out of order");
      }
      last = index;
      const size_t at = reader.position() + sizeof(uint32_t);
      FAASM_ASSIGN_OR_RETURN(ByteReader page, reader.GetSpan());
      if (page.remaining() > PageBytes(size, index)) {
        return InvalidArgument("snapshot page longer than its host page");
      }
      if (dst != nullptr) {
        std::memcpy(dst + size_t{index} * kHostPageBytes, bytes.data() + at, page.remaining());
      }
    }
    return reader.exhausted() ? OkStatus() : InvalidArgument("snapshot image has trailing bytes");
  };
  FAASM_RETURN_IF_ERROR(walk(nullptr));
  FAASM_ASSIGN_OR_RETURN(std::unique_ptr<MemorySnapshot> snapshot, CreateEmpty(name, size));
  FAASM_RETURN_IF_ERROR(walk(const_cast<uint8_t*>(snapshot->view_)));
  snapshot->Seal();
  return snapshot;
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

Bytes MemorySnapshot::Serialize() const {
  // Only the memfd's data extents (SEEK_DATA/SEEK_HOLE, which memfds
  // support) are read: its holes hold no data, and reading them through the
  // view would allocate them.
  std::vector<uint32_t> held;
  off_t data = lseek(fd_, 0, SEEK_DATA);
  while (data >= 0 && static_cast<size_t>(data) < size_) {
    const off_t hole = lseek(fd_, data, SEEK_HOLE);
    const size_t end = hole < 0 ? size_ : std::min(static_cast<size_t>(hole), size_);
    size_t offset = static_cast<size_t>(data) / kHostPageBytes * kHostPageBytes;
    for (; offset < end; offset += kHostPageBytes) {
      if (!AllZero(view_ + offset, PageBytes(size_, offset / kHostPageBytes))) {
        held.push_back(static_cast<uint32_t>(offset / kHostPageBytes));
      }
    }
    data = lseek(fd_, static_cast<off_t>(offset), SEEK_DATA);
  }
  Bytes out;
  ByteWriter writer(out);
  writer.Put<uint64_t>(size_);
  writer.Put<uint32_t>(static_cast<uint32_t>(held.size()));
  for (uint32_t index : held) {
    const size_t len = PageBytes(size_, index);
    writer.Put<uint32_t>(index);
    writer.Put<uint32_t>(static_cast<uint32_t>(len));
    writer.PutRaw(view_ + size_t{index} * kHostPageBytes, len);
  }
  return out;
}

}  // namespace faasm
