// Shared helpers for the benchmark harnesses that regenerate the paper's
// tables and figures.
#ifndef FAASM_BENCH_BENCH_UTIL_H_
#define FAASM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "baseline/container_model.h"

namespace faasm {

// Declarative flag table shared by the benchmark mains: every flag is
// registered once with its help text, the usage text is generated from the
// same table, and any flag that is not in the table — or whose value does
// not parse — fails Parse(). Callers exit non-zero on failure, so CI never
// silently ignores a typoed flag.
//
//   bool tiny = false; int iters = 300; std::string json;
//   FlagTable flags;
//   flags.AddBool("--tiny", &tiny, "smaller sizes and iteration counts");
//   flags.AddInt("--iters", &iters, "creation iterations");
//   flags.AddString("--json", &json, "write the result as JSON");
//   if (!flags.Parse(argc, argv)) return 2;
class FlagTable {
 public:
  // `--name` (no value).
  void AddBool(const char* name, bool* out, const char* help) {
    flags_.push_back({name, std::string(name), help, out, nullptr, nullptr});
  }
  // `--name=<n>`; the whole value must be a (possibly negative) integer.
  void AddInt(const char* name, int* out, const char* help) {
    flags_.push_back({name, std::string(name) + "=<n>", help, nullptr, out, nullptr});
  }
  // `--name <value>` (value is the next argv entry).
  void AddString(const char* name, std::string* out, const char* help) {
    flags_.push_back({name, std::string(name) + " <value>", help, nullptr, nullptr, out});
  }

  bool Parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const Flag* match = nullptr;
      for (const Flag& flag : flags_) {
        if (arg == flag.name || (flag.int_out != nullptr &&
                                 arg.rfind(flag.name + "=", 0) == 0)) {
          match = &flag;
          break;
        }
      }
      if (match == nullptr) {
        std::fprintf(stderr, "%s: unknown or malformed flag '%s'\n", argv[0], arg.c_str());
        PrintUsage(argv[0]);
        return false;
      }
      if (match->bool_out != nullptr) {
        if (arg != match->name) {
          std::fprintf(stderr, "%s: flag '%s' takes no value\n", argv[0], arg.c_str());
          PrintUsage(argv[0]);
          return false;
        }
        *match->bool_out = true;
      } else if (match->int_out != nullptr) {
        const char* value = arg.c_str() + match->name.size();
        if (*value != '=') {
          std::fprintf(stderr, "%s: flag '%s' needs =<n>\n", argv[0], arg.c_str());
          PrintUsage(argv[0]);
          return false;
        }
        ++value;
        char* end = nullptr;
        const long parsed = std::strtol(value, &end, 10);
        if (*value == '\0' || end == nullptr || *end != '\0') {
          std::fprintf(stderr, "%s: bad value in '%s'\n", argv[0], arg.c_str());
          PrintUsage(argv[0]);
          return false;
        }
        *match->int_out = static_cast<int>(parsed);
      } else {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s: flag '%s' needs a value\n", argv[0], arg.c_str());
          PrintUsage(argv[0]);
          return false;
        }
        *match->string_out = argv[++i];
      }
    }
    return true;
  }

  void PrintUsage(const char* argv0) const {
    std::fprintf(stderr, "usage: %s", argv0);
    for (const Flag& flag : flags_) {
      std::fprintf(stderr, " [%s]", flag.form.c_str());
    }
    std::fprintf(stderr, "\n");
    for (const Flag& flag : flags_) {
      std::fprintf(stderr, "  %-24s %s\n", flag.form.c_str(), flag.help);
    }
  }

 private:
  struct Flag {
    std::string name;
    std::string form;  // name plus value shape, for the usage text
    const char* help;
    bool* bool_out;
    int* int_out;
    std::string* string_out;
  };
  std::vector<Flag> flags_;
};

inline void PrintHeader(const char* title) {
  std::printf("\n==================================================================\n");
  std::printf("%s\n", title);
  std::printf("==================================================================\n");
}

// Every benchmark that uses the container baseline prints its calibration so
// the substitution (see DESIGN.md) is explicit in the output.
inline void PrintContainerCalibration(const ContainerModel& model) {
  std::printf("[container model calibrated from the paper's measurements:\n");
  std::printf("  cold start %.1f s, python cold start %.1f s, footprint %zu MB,\n",
              model.cold_start_ns / 1e9, model.python_cold_start_ns / 1e9,
              model.base_footprint_bytes / (1024 * 1024));
  std::printf("  http overhead %.1f ms, daemon parallelism %d]\n",
              model.http_overhead_ns / 1e6, model.max_concurrent_cold_starts);
}

}  // namespace faasm

#endif  // FAASM_BENCH_BENCH_UTIL_H_
