#include "core/vfs.h"

#include <algorithm>
#include <cstring>

namespace faasm {

// --- GlobalFileStore -----------------------------------------------------------

void GlobalFileStore::Put(const std::string& path, Bytes contents) {
  std::lock_guard<std::mutex> guard(mutex_);
  files_[path] = std::move(contents);
}

Result<Bytes> GlobalFileStore::Get(const std::string& path) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return NotFound("no such file: " + path);
  }
  return it->second;
}

// --- VirtualFilesystem -----------------------------------------------------------

Result<int> VirtualFilesystem::Open(const std::string& path, int flags) {
  OpenFile file;
  file.path = path;
  file.writable = (flags & kOpenWrite) != 0;

  auto overlay_it = overlay_.find(path);
  if (file.writable) {
    if (overlay_it == overlay_.end()) {
      if ((flags & kOpenCreate) == 0) {
        return NotFound("open for write without create: " + path);
      }
      overlay_[path] = std::make_shared<Bytes>();
    }
    file.read_data = overlay_[path];
  } else {
    if (overlay_it != overlay_.end()) {
      file.read_data = overlay_it->second;  // local overlay wins
    } else {
      auto global = global_->Get(path);
      if (!global.ok()) {
        return global.status();
      }
      file.read_data = std::make_shared<Bytes>(std::move(global).value());
    }
  }

  const int fd = next_fd_++;
  fds_[fd] = std::move(file);
  return fd;
}

Status VirtualFilesystem::Close(int fd) {
  if (fds_.erase(fd) == 0) {
    return InvalidArgument("close of unknown fd");
  }
  return OkStatus();
}

Result<int> VirtualFilesystem::Dup(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return InvalidArgument("dup of unknown fd");
  }
  const int new_fd = next_fd_++;
  fds_[new_fd] = it->second;
  return new_fd;
}

Result<size_t> VirtualFilesystem::Read(int fd, uint8_t* dst, size_t len) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return InvalidArgument("read of unknown fd");
  }
  OpenFile& file = it->second;
  const Bytes& data = *file.read_data;
  if (file.cursor >= data.size()) {
    return size_t{0};  // EOF
  }
  const size_t n = std::min(len, data.size() - file.cursor);
  std::memcpy(dst, data.data() + file.cursor, n);
  file.cursor += n;
  return n;
}

Result<size_t> VirtualFilesystem::Write(int fd, const uint8_t* src, size_t len) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return InvalidArgument("write of unknown fd");
  }
  OpenFile& file = it->second;
  if (!file.writable) {
    return PermissionDenied("fd is read-only: " + file.path);
  }
  Bytes& data = *file.read_data;
  if (data.size() < file.cursor + len) {
    data.resize(file.cursor + len);
  }
  std::memcpy(data.data() + file.cursor, src, len);
  file.cursor += len;
  return len;
}

Result<size_t> VirtualFilesystem::Seek(int fd, size_t position) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return InvalidArgument("seek of unknown fd");
  }
  it->second.cursor = position;
  return position;
}

Result<VirtualFilesystem::Stat> VirtualFilesystem::StatPath(const std::string& path) const {
  auto overlay_it = overlay_.find(path);
  if (overlay_it != overlay_.end()) {
    return Stat{overlay_it->second->size(), true};
  }
  auto global = global_->Get(path);
  if (!global.ok()) {
    return global.status();
  }
  return Stat{global.value().size(), false};
}

void VirtualFilesystem::Reset() {
  overlay_.clear();
  fds_.clear();
  next_fd_ = 3;
}

size_t VirtualFilesystem::open_fd_count() const { return fds_.size(); }

}  // namespace faasm
