#include "bench/faasm_bench/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

namespace faasm::bench {

int Trace::Add(std::string name, uint64_t call_id, int parent, int episode, TimeNs start,
               TimeNs end) {
  spans_.push_back(Span{std::move(name), call_id, parent, episode, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

namespace {

std::vector<std::vector<int>> ChildrenOf(const std::vector<Trace::Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[spans[i].parent].push_back(static_cast<int>(i));
    }
  }
  return children;
}

// Length of the union of the children's intervals, clipped to the parent.
TimeNs CoveredByChildren(const Trace::Span& parent, const std::vector<int>& children,
                         const std::vector<Trace::Span>& spans) {
  std::vector<std::pair<TimeNs, TimeNs>> intervals;
  for (int child : children) {
    const TimeNs start = std::max(parent.start, spans[child].start);
    const TimeNs end = std::min(parent.end, spans[child].end);
    if (end > start) {
      intervals.emplace_back(start, end);
    }
  }
  std::sort(intervals.begin(), intervals.end());
  TimeNs covered = 0;
  TimeNs reach = parent.start;
  for (const auto& [start, end] : intervals) {
    const TimeNs from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
    }
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

size_t Trace::CountNonAdditive(const std::string& request_name, TimeNs tolerance_ns) const {
  const auto children = ChildrenOf(spans_);
  size_t bad = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != request_name) {
      continue;
    }
    TimeNs sum = 0;
    bool negative = false;
    for (int child : children[i]) {
      const TimeNs length = spans_[child].end - spans_[child].start;
      negative = negative || length < 0;
      sum += length;
    }
    const TimeNs own = spans_[i].end - spans_[i].start;
    if (negative || children[i].empty() || std::llabs(sum - own) > tolerance_ns) {
      ++bad;
    }
  }
  return bad;
}

std::vector<Trace::NameSummary> Trace::Summarize() const {
  const auto children = ChildrenOf(spans_);
  std::map<std::string, NameSummary> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    NameSummary& summary = by_name[span.name];
    summary.name = span.name;
    summary.count += 1;
    const TimeNs length = span.end - span.start;
    summary.total_us += static_cast<double>(length) / 1e3;
    summary.self_us +=
        static_cast<double>(length - CoveredByChildren(span, children[i], spans_)) / 1e3;
  }
  std::vector<NameSummary> out;
  for (auto& [name, summary] : by_name) {
    out.push_back(summary);
  }
  return out;
}

bool Trace::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(f, "%s{\"name\":", i == 0 ? "" : ",\n");
    WriteJsonString(f, span.name);
    const std::string category = span.name.substr(0, span.name.find('.'));
    std::fprintf(f, ",\"cat\":");
    WriteJsonString(f, category);
    std::fprintf(f,
                 ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%llu,"
                 "\"args\":{\"call_id\":%llu}}",
                 static_cast<double>(span.start) / 1e3,
                 static_cast<double>(span.end - span.start) / 1e3, span.episode,
                 static_cast<unsigned long long>(span.call_id),
                 static_cast<unsigned long long>(span.call_id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace faasm::bench
