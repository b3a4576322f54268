// The four workloads of the platform benchmark. Each builds fresh clusters
// episode by episode until the run's wall budget is spent, checks every
// output, and returns its metrics. `trace` is non-null on traced runs; spans
// of the traced episodes are added to it.
//
//   serve   open-loop wasm MLP inference with cold starts and a 3x burst
//   train   HOGWILD SGD epochs: write-heavy state traffic, few calls
//   matmul  closed-loop chained divide-and-conquer jobs, 82 calls each
//   kv      open-loop state reads (prefetch) beside replicated appends
#ifndef FAASM_BENCH_FAASM_BENCH_WORKLOADS_H_
#define FAASM_BENCH_FAASM_BENCH_WORKLOADS_H_

#include "bench/faasm_bench/platform.h"

namespace faasm::bench {

RunResult RunServe(const Options& options, Trace* trace);
RunResult RunTrain(const Options& options, Trace* trace);
RunResult RunMatmul(const Options& options, Trace* trace);
RunResult RunKv(const Options& options, Trace* trace);

// Per-episode input seed: every episode sees different inputs, all fixed by
// the run's --seed.
inline uint64_t EpisodeSeed(uint64_t seed, int episode) {
  return seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(episode) + 1;
}

}  // namespace faasm::bench

#endif  // FAASM_BENCH_FAASM_BENCH_WORKLOADS_H_
