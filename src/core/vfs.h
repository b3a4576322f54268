// Read-global / write-local virtual filesystem (§3.1). Files are served from
// a cluster-wide GlobalFileStore (the paper's object store / file server);
// writes land in a per-Faaslet local overlay. Open files are capabilities:
// unforgeable fd handles per Faaslet (WASI model), so no chroot or layered
// filesystem is needed.
#ifndef FAASM_CORE_VFS_H_
#define FAASM_CORE_VFS_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace faasm {

// Cluster-wide read-only file contents, e.g. library code and model files.
class GlobalFileStore {
 public:
  void Put(const std::string& path, Bytes contents);
  Result<Bytes> Get(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Bytes> files_;
};

// Per-Faaslet filesystem view: fd table + local write overlay.
class VirtualFilesystem {
 public:
  explicit VirtualFilesystem(GlobalFileStore* global) : global_(global) {}

  static constexpr int kOpenRead = 0x1;
  static constexpr int kOpenWrite = 0x2;
  static constexpr int kOpenCreate = 0x4;

  // Opens a file; reads hit the local overlay first, then the global store.
  Result<int> Open(const std::string& path, int flags);
  Status Close(int fd);
  Result<int> Dup(int fd);

  // Sequential read/write at the fd's cursor; returns bytes moved.
  Result<size_t> Read(int fd, uint8_t* dst, size_t len);
  Result<size_t> Write(int fd, const uint8_t* src, size_t len);
  Result<size_t> Seek(int fd, size_t position);

  struct Stat {
    size_t size = 0;
    bool writable = false;
  };
  Result<Stat> StatPath(const std::string& path) const;

  // Resets the overlay and fd table (Faaslet reset between tenants).
  void Reset();

  size_t open_fd_count() const;

 private:
  struct OpenFile {
    std::string path;
    size_t cursor = 0;
    bool writable = false;
    // Read snapshot for global files; writable files point into overlay_.
    std::shared_ptr<Bytes> read_data;
  };

  GlobalFileStore* global_;
  std::map<std::string, std::shared_ptr<Bytes>> overlay_;
  std::map<int, OpenFile> fds_;
  int next_fd_ = 3;  // 0-2 reserved, POSIX style
};

}  // namespace faasm

#endif  // FAASM_CORE_VFS_H_
