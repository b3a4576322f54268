// Figure 9: execution overhead of the wasm substrate vs native —
// (a) Polybench-style kernels, (b) the MiniVM dynamic-language runtime
// (CPython analogue). google-benchmark binary; each wasm benchmark reports a
// "vs_native" counter with the slowdown factor.
//
// NOTE (EXPERIMENTS.md): this substrate is an *interpreter*, the paper used
// the WAVM JIT, so absolute factors are larger than the paper's 1-1.6x; the
// relative shape across kernels is what this figure reproduces.
//
// The three micro modes below write their columns as JSON to `--json <path>`
// (a bare `--json` selects the state-op mode).
//
// STATE-OP MICRO MODE (`--state-batch`): instead of the google-benchmark
// kernels, runs the batched-vs-unbatched state-push microbenchmark
// (bench/state_batch_util.h) — K counters mastered across M shards, pushed
// per round inside one StateBatch scope vs with no scope open (one RPC per
// key); one platform, two call patterns — and writes the columns as the CI
// artifact BENCH_batch.json:
//
//   fig9_micro --state-batch [--tiny] [--json BENCH_batch.json]
//
// READ-PATH MICRO MODE (`--read-batch`): the read-side ablation
// (bench/read_batch_util.h) — K immutable values re-pulled every round
// through grouped kGetBatch prefetches, a Pull() per key, and the leased
// per-host read cache — written as the CI artifact BENCH_read.json.
// Gates: zero bad reads everywhere, >=4x fewer cross-host pull RPCs grouped
// vs per-key, >=90% cache hit rate on the hot working set:
//
//   fig9_micro --read-batch [--tiny] [--json BENCH_read.json]
//
// REPLICA-READ MODE (`--replica-reads`): the co-located replica serving
// ablation (bench/replica_read_util.h) — K versioned values on an R=2 ring,
// one acked write + one holder-host read per key per round, master-only vs
// replica-served at identical durability — written as the CI artifact
// BENCH_replica_read.json. Gates: >=2x fewer cross-host read RPCs with
// serving on, zero staleness violations everywhere:
//
//   fig9_micro --replica-reads [--tiny] [--json BENCH_replica_read.json]
#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/read_batch_util.h"
#include "bench/replica_read_util.h"
#include "bench/state_batch_util.h"
#include "common/clock.h"
#include "wasm/instance.h"
#include "workloads/kernels.h"
#include "workloads/minivm.h"

namespace faasm {
namespace {

constexpr uint32_t kKernelSize = 48;

double NativeKernelTimeNs(size_t index) {
  static std::map<size_t, double> cache;
  auto it = cache.find(index);
  if (it != cache.end()) {
    return it->second;
  }
  const Kernel& kernel = PolybenchKernels()[index];
  Stopwatch watch;
  int reps = 0;
  double sink = 0;
  while (watch.ElapsedNs() < 50 * kMillisecond) {
    sink += kernel.native(kKernelSize);
    ++reps;
  }
  benchmark::DoNotOptimize(sink);
  const double per_rep = static_cast<double>(watch.ElapsedNs()) / reps;
  cache[index] = per_rep;
  return per_rep;
}

void BM_KernelNative(benchmark::State& state) {
  const Kernel& kernel = PolybenchKernels()[state.range(0)];
  state.SetLabel(kernel.name + "/native");
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.native(kKernelSize));
  }
}

void BM_KernelWasm(benchmark::State& state) {
  const Kernel& kernel = PolybenchKernels()[state.range(0)];
  state.SetLabel(kernel.name + "/wasm");
  auto module = kernel.build_wasm().value();
  double total_ns = 0;
  int reps = 0;
  for (auto _ : state) {
    Stopwatch watch;
    benchmark::DoNotOptimize(RunKernelWasm(module, kKernelSize).value());
    total_ns += static_cast<double>(watch.ElapsedNs());
    ++reps;
  }
  state.counters["vs_native"] = (total_ns / reps) / NativeKernelTimeNs(state.range(0));
}

double NativeMiniVmTimeNs(size_t index) {
  static std::map<size_t, double> cache;
  auto it = cache.find(index);
  if (it != cache.end()) {
    return it->second;
  }
  const MviProgram& program = MiniVmBenchmarks()[index];
  Stopwatch watch;
  int reps = 0;
  while (watch.ElapsedNs() < 50 * kMillisecond) {
    benchmark::DoNotOptimize(RunMiniVmNative(program.code).value());
    ++reps;
  }
  const double per_rep = static_cast<double>(watch.ElapsedNs()) / reps;
  cache[index] = per_rep;
  return per_rep;
}

void BM_MiniVmNative(benchmark::State& state) {
  const MviProgram& program = MiniVmBenchmarks()[state.range(0)];
  state.SetLabel(program.name + "/native-runtime");
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunMiniVmNative(program.code).value());
  }
}

void BM_MiniVmWasm(benchmark::State& state) {
  const MviProgram& program = MiniVmBenchmarks()[state.range(0)];
  state.SetLabel(program.name + "/runtime-in-faaslet");
  auto module = BuildMiniVmWasm(program.code).value();
  double total_ns = 0;
  int reps = 0;
  for (auto _ : state) {
    Stopwatch watch;
    auto instance = wasm::Instance::Create(module, nullptr).value();
    benchmark::DoNotOptimize(instance->CallExport("run", {}).value()[0].i32);
    total_ns += static_cast<double>(watch.ElapsedNs());
    ++reps;
  }
  state.counters["vs_native"] = (total_ns / reps) / NativeMiniVmTimeNs(state.range(0));
}

BENCHMARK(BM_KernelNative)->DenseRange(0, 7)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_KernelWasm)->DenseRange(0, 7)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MiniVmNative)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MiniVmWasm)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

// Writes the perf-trajectory artifact (CI uploads it as BENCH_batch.json).
bool WriteBatchJson(const std::string& path, bool tiny, const BatchMicroConfig& config,
                    const BatchMicroPoint& batched, const BatchMicroPoint& unbatched) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig9_micro_state_batch\",\n  \"tiny\": %s,\n",
               tiny ? "true" : "false");
  std::fprintf(f, "  \"hosts\": %d,\n  \"keys\": %d,\n  \"rounds\": %d,\n", config.hosts,
               config.keys, config.rounds);
  std::fprintf(f, "  \"columns\": {\n");
  WriteBatchMicroPointJson(f, "batched", batched, ",");
  WriteBatchMicroPointJson(f, "unbatched", unbatched, "");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\n[wrote %s]\n", path.c_str());
  return true;
}

// Returns 0 when the batched column beats unbatched on RPCs and bytes at
// zero loss — the acceptance gate the CI bench smoke enforces.
int RunStateBatchMicroMode(bool tiny, const std::string& json_path) {
  PrintHeader("State-op micro: batched vs unbatched KVS protocol (kBatch)");
  const BatchMicroConfig batched_config = BatchMicroConfig::ForScale(tiny, /*batched=*/true);
  const BatchMicroConfig unbatched_config = BatchMicroConfig::ForScale(tiny, /*batched=*/false);
  std::printf("[%d counters across %d hosts, %d rounds of increment-all]\n",
              batched_config.keys, batched_config.hosts, batched_config.rounds);
  std::printf("%10s | %10s %12s %12s %8s\n", "protocol", "tier RPCs", "net (MB)", "time (ms)",
              "lost");
  const BatchMicroPoint batched = RunStateBatchMicro(batched_config);
  PrintBatchMicroRow("batched", batched);
  const BatchMicroPoint unbatched = RunStateBatchMicro(unbatched_config);
  PrintBatchMicroRow("unbatched", unbatched);
  std::printf("(each batched barrier groups K cross-shard pushes into at most one RPC\n"
              " per master shard, pipelined; unbatched pays one round trip per key)\n");

  if (!json_path.empty() &&
      !WriteBatchJson(json_path, tiny, batched_config, batched, unbatched)) {
    return 1;
  }
  if (batched.lost_updates != 0 || unbatched.lost_updates != 0) {
    std::fprintf(stderr, "FAIL: lost updates (batched=%llu unbatched=%llu)\n",
                 static_cast<unsigned long long>(batched.lost_updates),
                 static_cast<unsigned long long>(unbatched.lost_updates));
    return 1;
  }
  if (batched.tier_rpcs >= unbatched.tier_rpcs) {
    std::fprintf(stderr, "FAIL: batched protocol did not reduce tier RPCs (%llu >= %llu)\n",
                 static_cast<unsigned long long>(batched.tier_rpcs),
                 static_cast<unsigned long long>(unbatched.tier_rpcs));
    return 1;
  }
  return 0;
}

// Writes the read-path artifact (CI uploads it as BENCH_read.json).
bool WriteReadJson(const std::string& path, bool tiny, const ReadMicroConfig& config,
                   const ReadMicroPoint& grouped, const ReadMicroPoint& per_key,
                   const ReadMicroPoint& cached) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig9_micro_read_batch\",\n  \"tiny\": %s,\n",
               tiny ? "true" : "false");
  std::fprintf(f, "  \"hosts\": %d,\n  \"keys\": %d,\n  \"rounds\": %d,\n", config.hosts,
               config.keys, config.rounds);
  std::fprintf(f, "  \"columns\": {\n");
  WriteReadMicroPointJson(f, "grouped", grouped, ",");
  WriteReadMicroPointJson(f, "per_key", per_key, ",");
  WriteReadMicroPointJson(f, "grouped_cached", cached, "");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\n[wrote %s]\n", path.c_str());
  return true;
}

// Returns 0 when the read-path gates hold: zero bad reads in every column,
// grouped prefetches cut cross-host pull RPCs by at least 4x vs per-key
// pulls, and the leased cache serves at least 90% of hot-key lookups.
int RunStateReadMicroMode(bool tiny, const std::string& json_path) {
  PrintHeader("Read micro: grouped (kGetBatch) + cached vs per-key pulls");
  const ReadMicroConfig grouped_config = ReadMicroConfig::ForScale(tiny, true, false);
  const ReadMicroConfig per_key_config = ReadMicroConfig::ForScale(tiny, false, false);
  const ReadMicroConfig cached_config = ReadMicroConfig::ForScale(tiny, true, true);
  std::printf("[%d immutable values across %d hosts, %d rounds of pull-all]\n",
              grouped_config.keys, grouped_config.hosts, grouped_config.rounds);
  std::printf("%18s | %10s %12s %12s %8s %9s\n", "read path", "pull RPCs", "net (MB)",
              "time (ms)", "bad", "hit rate");
  const ReadMicroPoint grouped = RunStateReadMicro(grouped_config);
  PrintReadMicroRow("grouped", grouped);
  const ReadMicroPoint per_key = RunStateReadMicro(per_key_config);
  PrintReadMicroRow("per-key", per_key);
  const ReadMicroPoint cached = RunStateReadMicro(cached_config);
  PrintReadMicroRow("grouped+cache", cached);
  std::printf("(a grouped prefetch pulls the working set in at most one kGetBatch per\n"
              " master endpoint; the leased cache serves repeats with zero RPCs)\n");

  if (!json_path.empty() &&
      !WriteReadJson(json_path, tiny, grouped_config, grouped, per_key, cached)) {
    return 1;
  }
  if (grouped.bad_reads != 0 || per_key.bad_reads != 0 || cached.bad_reads != 0) {
    std::fprintf(stderr, "FAIL: bad reads (grouped=%llu per_key=%llu cached=%llu)\n",
                 static_cast<unsigned long long>(grouped.bad_reads),
                 static_cast<unsigned long long>(per_key.bad_reads),
                 static_cast<unsigned long long>(cached.bad_reads));
    return 1;
  }
  if (grouped.pull_rpcs * 4 > per_key.pull_rpcs) {
    std::fprintf(stderr, "FAIL: grouped reads did not cut pull RPCs 4x (%llu vs %llu)\n",
                 static_cast<unsigned long long>(grouped.pull_rpcs),
                 static_cast<unsigned long long>(per_key.pull_rpcs));
    return 1;
  }
  if (cached.hit_rate < 0.90) {
    std::fprintf(stderr, "FAIL: read-cache hit rate %.1f%% below 90%%\n",
                 cached.hit_rate * 100);
    return 1;
  }
  return 0;
}

// Writes the replica-read artifact (CI uploads it as BENCH_replica_read.json).
bool WriteReplicaJson(const std::string& path, bool tiny, const ReplicaMicroConfig& config,
                      const ReplicaMicroPoint& master_only, const ReplicaMicroPoint& replica) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig9_micro_replica_read\",\n  \"tiny\": %s,\n",
               tiny ? "true" : "false");
  std::fprintf(f, "  \"hosts\": %d,\n  \"keys\": %d,\n  \"rounds\": %d,\n", config.hosts,
               config.keys, config.rounds);
  std::fprintf(f, "  \"columns\": {\n");
  WriteReplicaMicroPointJson(f, "master_only", master_only, ",");
  WriteReplicaMicroPointJson(f, "replica_served", replica, "");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\n[wrote %s]\n", path.c_str());
  return true;
}

// Returns 0 when the replica-read gates hold: serving from co-located
// backups cuts cross-host read RPCs at least 2x vs master-only at R=2, and
// no column ever returned a version behind an acked write.
int RunReplicaReadMicroMode(bool tiny, const std::string& json_path) {
  PrintHeader("Replica-read micro: master-only vs co-located replica serving (R=2)");
  const ReplicaMicroConfig master_config = ReplicaMicroConfig::ForScale(tiny, false);
  const ReplicaMicroConfig replica_config = ReplicaMicroConfig::ForScale(tiny, true);
  std::printf("[%d versioned values across %d hosts at R=2, %d rounds of write+read\n"
              " from alternating holder hosts]\n",
              replica_config.keys, replica_config.hosts, replica_config.rounds);
  std::printf("%14s | %10s %14s %12s %12s %7s %5s\n", "read path", "read RPCs",
              "replica serves", "net (MB)", "time (ms)", "stale", "bad");
  const ReplicaMicroPoint master_only = RunReplicaReadMicro(master_config);
  PrintReplicaMicroRow("master-only", master_only);
  const ReplicaMicroPoint replica = RunReplicaReadMicro(replica_config);
  PrintReplicaMicroRow("replica-served", replica);
  std::printf("(both columns replicate identically; they differ only in whether a\n"
              " backup host's client may answer from its own certified copy)\n");

  if (!json_path.empty() &&
      !WriteReplicaJson(json_path, tiny, replica_config, master_only, replica)) {
    return 1;
  }
  if (master_only.staleness_violations != 0 || replica.staleness_violations != 0 ||
      master_only.bad_reads != 0 || replica.bad_reads != 0) {
    std::fprintf(stderr, "FAIL: stale or bad reads (master=%llu/%llu replica=%llu/%llu)\n",
                 static_cast<unsigned long long>(master_only.staleness_violations),
                 static_cast<unsigned long long>(master_only.bad_reads),
                 static_cast<unsigned long long>(replica.staleness_violations),
                 static_cast<unsigned long long>(replica.bad_reads));
    return 1;
  }
  if (replica.replica_serves == 0) {
    std::fprintf(stderr, "FAIL: the replica tier never served a read\n");
    return 1;
  }
  // >=2x RPC cut (a zero-RPC replica column trivially passes; guard the
  // division by comparing multiplicatively).
  if (master_only.read_rpcs < 2 * replica.read_rpcs || master_only.read_rpcs == 0) {
    std::fprintf(stderr, "FAIL: replica serving did not cut read RPCs 2x (%llu vs %llu)\n",
                 static_cast<unsigned long long>(replica.read_rpcs),
                 static_cast<unsigned long long>(master_only.read_rpcs));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace faasm

int main(int argc, char** argv) {
  // Our flags select a micro mode; anything else goes to google-benchmark
  // unchanged.
  bool state_batch = false;
  bool read_batch = false;
  bool replica_reads = false;
  bool tiny = false;
  std::string json_path;
  std::vector<char*> forwarded;
  forwarded.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--state-batch") {
      state_batch = true;
    } else if (arg == "--read-batch") {
      read_batch = true;
    } else if (arg == "--replica-reads") {
      replica_reads = true;
    } else if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      forwarded.push_back(argv[i]);
    }
  }
  if (replica_reads) {
    return faasm::RunReplicaReadMicroMode(tiny, json_path);
  }
  if (read_batch) {
    return faasm::RunStateReadMicroMode(tiny, json_path);
  }
  if (state_batch || !json_path.empty()) {
    return faasm::RunStateBatchMicroMode(tiny, json_path);
  }
  int forwarded_argc = static_cast<int>(forwarded.size());
  benchmark::Initialize(&forwarded_argc, forwarded.data());
  if (benchmark::ReportUnrecognizedArguments(forwarded_argc, forwarded.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
