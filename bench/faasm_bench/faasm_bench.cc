// faasm_bench: the platform benchmark. One program, four workloads, every
// metric printed as `name value unit source`, where source says whether the
// number is virtual time (modelled), wall time (really executed) or an exact
// count. Exits non-zero if any output check fails.
//
//   faasm_bench --workload <serve|train|matmul|kv> [--seed=<n>] [--seconds=<n>]
//               [--tiny] [--json <file>] [--trace <file>]
//
// --seconds is the wall budget of the run (episodes are added while they
// fit); --tiny runs one small episode as a smoke test. --trace runs traced:
// untraced and traced episodes alternate, end-to-end metrics still come from
// the untraced ones, per-layer metrics from the traced ones, spans go to
// <file> as Chrome trace-event JSON (open it in Perfetto), and a component
// phase times Faaslet creation, restore, execution and reset directly.
// bench_compare reads the --json files of two sets of runs.
#include <cmath>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "bench/faasm_bench/workloads.h"

namespace faasm::bench {
namespace {

const char* SourceName(Source source) {
  switch (source) {
    case Source::kVirtual: return "virtual";
    case Source::kWall: return "wall";
    default: return "count";
  }
}

bool WriteJson(const std::string& path, const Options& options, const RunResult& result) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f,
               "{\"bench\": \"faasm_bench\", \"workload\": \"%s\", \"seed\": %llu, "
               "\"traced\": %s, \"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n"
               " \"metrics\": {",
               options.workload.c_str(), static_cast<unsigned long long>(options.seed),
               options.traced ? "true" : "false", result.correct ? "true" : "false",
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::fprintf(f, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"source\": \"%s\"",
                 i == 0 ? "" : ",", m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                 m.unit.c_str(), SourceName(m.source));
    if (const EndToEndSpec* spec = FindEndToEnd(m.name); spec != nullptr) {
      std::fprintf(f, ", \"better\": \"%s\", \"bound\": %g",
                   spec->higher_is_better ? "higher" : "lower", spec->bound);
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n }}\n");
  return std::fclose(f) == 0;
}

// Traced runs: component phase, the additivity check and the span summary.
void FinishTrace(const Options& options, const std::string& path, const Trace& trace,
                 RunResult* result) {
  bool component_ok = true;
  for (Metric& metric : RunComponentPhase(options.seed, options.tiny ? 3 : 20, &component_ok)) {
    result->metrics.push_back(std::move(metric));
  }
  if (!component_ok) {
    std::fprintf(stderr, "component phase: a call failed or disagreed with MlpReference\n");
    result->correct = false;
  }
  // Each request span's four children tile it exactly.
  const size_t non_additive = trace.CountNonAdditive("request", kMicrosecond);
  result->metrics.push_back({"trace.spans", static_cast<double>(trace.spans().size()), "count",
                             Source::kCount});
  result->metrics.push_back(
      {"trace.non_additive", static_cast<double>(non_additive), "count", Source::kCount});
  if (non_additive > 0) {
    std::fprintf(stderr, "trace: %zu request spans are not the sum of their children\n",
                 non_additive);
    result->correct = false;
  }
  std::printf("\n%-26s %10s %16s %16s\n", "span (virtual us)", "count", "total", "self");
  for (const Trace::NameSummary& s : trace.Summarize()) {
    std::printf("%-26s %10llu %16.1f %16.1f\n", s.name.c_str(),
                static_cast<unsigned long long>(s.count), s.total_us, s.self_us);
  }
  if (!trace.WriteChromeJson(path)) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    result->correct = false;
  } else {
    std::printf("[wrote trace %s]\n", path.c_str());
  }
}

}  // namespace
}  // namespace faasm::bench

int main(int argc, char** argv) {
  using namespace faasm;
  using namespace faasm::bench;
  std::string workload;
  int seed = 1;
  int seconds = 20;
  bool tiny = false;
  std::string json_path;
  std::string trace_path;
  FlagTable flags;
  flags.AddString("--workload", &workload, "serve, train, matmul or kv");
  flags.AddInt("--seed", &seed, "input seed (default 1)");
  flags.AddInt("--seconds", &seconds, "wall budget of the run in seconds (default 20)");
  flags.AddBool("--tiny", &tiny, "one small episode (smoke test)");
  flags.AddString("--json", &json_path, "write every metric, with bounds, as JSON");
  flags.AddString("--trace", &trace_path, "traced run; write spans as Chrome trace JSON");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  RunResult (*run)(const Options&, Trace*) = nullptr;
  if (workload == "serve") {
    run = RunServe;
  } else if (workload == "train") {
    run = RunTrain;
  } else if (workload == "matmul") {
    run = RunMatmul;
  } else if (workload == "kv") {
    run = RunKv;
  } else {
    std::fprintf(stderr, "%s: unknown workload '%s'\n", argv[0], workload.c_str());
    flags.PrintUsage(argv[0]);
    return 2;
  }
  if (seconds < 1) {
    std::fprintf(stderr, "%s: --seconds must be at least 1\n", argv[0]);
    return 2;
  }

  Options options;
  options.workload = workload;
  options.seed = static_cast<uint64_t>(seed);
  options.seconds = seconds;
  options.tiny = tiny;
  options.traced = !trace_path.empty();
  Trace trace;
  RunResult result = run(options, options.traced ? &trace : nullptr);
  if (options.traced) {
    FinishTrace(options, trace_path, trace, &result);
  }

  std::printf("\n%s seed %llu%s: %llu units attempted, %llu failed\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.traced ? " (traced)" : "",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const Metric& m : result.metrics) {
    std::printf("%-34s %16.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                SourceName(m.source));
  }
  if (!json_path.empty() && !WriteJson(json_path, options, result)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  if (!result.correct) {
    std::fprintf(stderr, "%s: output check FAILED\n", workload.c_str());
    return 1;
  }
  return 0;
}
