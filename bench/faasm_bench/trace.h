// Span recording for traced benchmark runs. Spans are stamped in virtual µs,
// carry the call id of the request they belong to, and are written as Chrome
// trace-event JSON, which Perfetto and chrome://tracing open as is.
#ifndef FAASM_BENCH_FAASM_BENCH_TRACE_H_
#define FAASM_BENCH_FAASM_BENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"

namespace faasm::bench {

class Trace {
 public:
  struct Span {
    std::string name;
    uint64_t call_id = 0;
    int parent = -1;  // index into spans(), -1 for roots
    int episode = 0;  // each episode's cluster starts its clock at zero
    TimeNs start = 0;
    TimeNs end = 0;
  };

  // Adds a span; returns its index for children to name as parent.
  int Add(std::string name, uint64_t call_id, int parent, int episode, TimeNs start, TimeNs end);
  const std::vector<Span>& spans() const { return spans_; }

  // Request spans whose direct children do not add up to the request's own
  // duration within `tolerance_ns`, or have a child of negative length.
  size_t CountNonAdditive(const std::string& request_name, TimeNs tolerance_ns) const;

  // Per span name: count, total and self time (duration minus the part of
  // it covered by the union of its children), in virtual µs.
  struct NameSummary {
    std::string name;
    uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::vector<NameSummary> Summarize() const;

  // Chrome trace-event JSON: one complete ("X") event per span; pid is the
  // episode, tid the span's call id, so a call's spans nest on one track.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace faasm::bench

#endif  // FAASM_BENCH_FAASM_BENCH_TRACE_H_
