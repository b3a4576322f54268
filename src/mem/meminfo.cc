#include "mem/meminfo.h"

#include <unistd.h>

#include <cstdio>

namespace faasm {

size_t CurrentRssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  long total = 0;
  long resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (n != 2) {
    return 0;
  }
  return static_cast<size_t>(resident) * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace faasm
