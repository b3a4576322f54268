// Shared runner for the batched-vs-unbatched state-protocol columns
// (fig9_micro --state-batch and ablation_state ablation 4).
//
// Workload: K counters spread across the sharded tier by consistent
// hashing; each round one function call increments EVERY counter and pushes
// them — inside one StateBatch scope (batched: at most one RPC per master
// shard per barrier) or with no scope open, so every push is its own
// barrier (unbatched: one push-RPC per key). Both columns run the same
// platform; only the call pattern differs. The columns must show fewer tier
// RPCs and bytes at ZERO lost updates: the protocol trades nothing for the
// grouping.
#ifndef FAASM_BENCH_STATE_BATCH_UTIL_H_
#define FAASM_BENCH_STATE_BATCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/cluster.h"
#include "state/ddo.h"

namespace faasm {

struct BatchMicroPoint {
  uint64_t tier_rpcs = 0;  // requests received by the kvs shard endpoints
  double network_mb = 0;
  double seconds = 0;
  uint64_t lost_updates = 0;
};

struct BatchMicroConfig {
  int hosts = 4;
  int keys = 64;
  int rounds = 32;
  bool batched = true;

  static BatchMicroConfig ForScale(bool tiny, bool batched) {
    BatchMicroConfig config;
    if (tiny) {
      config.keys = 16;
      config.rounds = 8;
    }
    config.batched = batched;
    return config;
  }
};

inline std::string BatchMicroKey(int i) { return "bm-counter-" + std::to_string(i); }

// Table row / JSON serialisation shared by fig9_micro and ablation_state, so
// the BENCH_batch.json and BENCH_state.json "batch" columns cannot drift.
inline void PrintBatchMicroRow(const char* name, const BatchMicroPoint& point) {
  std::printf("%10s | %10llu %12.2f %12.0f %8llu\n", name,
              static_cast<unsigned long long>(point.tier_rpcs), point.network_mb,
              point.seconds * 1e3, static_cast<unsigned long long>(point.lost_updates));
}

inline void WriteBatchMicroPointJson(std::FILE* f, const char* name, const BatchMicroPoint& p,
                                     const char* suffix) {
  std::fprintf(f,
               "    \"%s\": {\"tier_rpcs\": %llu, \"network_mb\": %.3f, "
               "\"seconds\": %.4f, \"lost_updates\": %llu}%s\n",
               name, static_cast<unsigned long long>(p.tier_rpcs), p.network_mb, p.seconds,
               static_cast<unsigned long long>(p.lost_updates), suffix);
}

inline BatchMicroPoint RunStateBatchMicro(const BatchMicroConfig& micro) {
  ClusterConfig cluster_config;
  cluster_config.hosts = micro.hosts;
  cluster_config.state_tier = StateTier::kSharded;
  FaasmCluster cluster(cluster_config);

  for (int i = 0; i < micro.keys; ++i) {
    cluster.kvs().Set(BatchMicroKey(i), Bytes(sizeof(uint64_t), 0));
  }

  const int keys = micro.keys;
  const bool batched = micro.batched;
  (void)cluster.registry().RegisterNative("touch_all", [keys, batched](InvocationContext& ctx) {
    std::vector<std::unique_ptr<SharedArray<uint64_t>>> counters;
    counters.reserve(keys);
    // Pull + increment first (Pull is a flush barrier), then push the whole
    // working set, through one batch scope when batched.
    for (int i = 0; i < keys; ++i) {
      counters.push_back(
          std::make_unique<SharedArray<uint64_t>>(&ctx.state(), BatchMicroKey(i)));
      counters.back()->kv().InvalidateReplica();
      if (!counters.back()->Attach().ok()) {
        return 2;
      }
      uint64_t* value = counters.back()->WritableElements(0, 1);
      if (value == nullptr) {
        return 3;
      }
      *value += 1;
      counters.back()->MarkDirtyElements(0, 1);
    }
    std::optional<StateBatch> batch;
    if (batched) {
      batch.emplace(ctx.state());
    }
    for (auto& counter : counters) {
      if (!counter->Push().ok()) {
        return 4;
      }
    }
    return !batch || batch->Close().ok() ? 0 : 5;
  });

  BatchMicroPoint point;
  uint64_t acked_rounds = 0;
  cluster.network().ResetStats();
  cluster.Run([&](Frontend& frontend) {
    const TimeNs start = cluster.clock().Now();
    for (int round = 0; round < micro.rounds; ++round) {
      auto code = frontend.Invoke("touch_all", Bytes{});
      if (code.ok() && code.value() == 0) {
        acked_rounds += 1;
      }
    }
    point.seconds = static_cast<double>(cluster.clock().Now() - start) / 1e9;
  });

  for (size_t host = 0; host < cluster.host_count(); ++host) {
    point.tier_rpcs +=
        cluster.network().StatsFor(ShardMap::EndpointForHost(cluster.host(host).name()))
            .rx_messages;
  }
  point.network_mb = static_cast<double>(cluster.network_bytes()) / 1e6;

  // Loss audit: every acked round incremented every counter exactly once —
  // any deviation (lost OR doubled) counts against the column.
  for (int i = 0; i < micro.keys; ++i) {
    auto value = cluster.kvs().Get(BatchMicroKey(i));
    uint64_t count = 0;
    if (value.ok() && value.value().size() == sizeof(uint64_t)) {
      std::memcpy(&count, value.value().data(), sizeof(count));
    }
    point.lost_updates += acked_rounds > count ? acked_rounds - count : count - acked_rounds;
  }
  return point;
}

}  // namespace faasm

#endif  // FAASM_BENCH_STATE_BATCH_UTIL_H_
