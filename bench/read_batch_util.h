// Shared runner for the batched + cached READ-path columns (fig9_micro
// --read-batch / --read-cache) — the read-side twin of state_batch_util.h.
//
// Workload: K immutable values spread across the sharded tier by consistent
// hashing; each round one function call drops its local replicas and
// re-pulls EVERY value — through LocalTier::Prefetch (grouped: at most one
// kGetBatch RPC per master endpoint, and with the read cache on, zero RPCs
// for leased repeats) or a Pull() per key (per-key: one sizing + fetch
// round trip each). Both columns run the same platform; only the call
// pattern differs. The columns must show fewer cross-host pull RPCs at ZERO
// bad reads: every pulled byte is checked against its seeded pattern, so a
// stale or torn serve counts against the column.
#ifndef FAASM_BENCH_READ_BATCH_UTIL_H_
#define FAASM_BENCH_READ_BATCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "runtime/cluster.h"

namespace faasm {

struct ReadMicroPoint {
  uint64_t pull_rpcs = 0;  // read RPCs received by the kvs shard servers
  double network_mb = 0;
  double seconds = 0;
  uint64_t bad_reads = 0;  // rounds that saw a stale, torn, or failed value
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double hit_rate = 0;
};

struct ReadMicroConfig {
  int hosts = 4;
  int keys = 16;
  int rounds = 48;
  bool read_batch = true;
  bool read_cache = false;

  static ReadMicroConfig ForScale(bool tiny, bool read_batch, bool read_cache) {
    ReadMicroConfig config;
    if (tiny) {
      config.keys = 8;
    }
    config.read_batch = read_batch;
    config.read_cache = read_cache;
    return config;
  }
};

constexpr size_t kReadMicroValueBytes = 256;

inline std::string ReadMicroKey(int i) { return "rm-value-" + std::to_string(i); }

inline void PrintReadMicroRow(const char* name, const ReadMicroPoint& point) {
  std::printf("%18s | %10llu %12.2f %12.0f %8llu %8.1f%%\n", name,
              static_cast<unsigned long long>(point.pull_rpcs), point.network_mb,
              point.seconds * 1e3, static_cast<unsigned long long>(point.bad_reads),
              point.hit_rate * 100);
}

inline void WriteReadMicroPointJson(std::FILE* f, const char* name, const ReadMicroPoint& p,
                                    const char* suffix) {
  std::fprintf(f,
               "    \"%s\": {\"pull_rpcs\": %llu, \"network_mb\": %.3f, "
               "\"seconds\": %.4f, \"bad_reads\": %llu, \"cache_hits\": %llu, "
               "\"cache_misses\": %llu, \"hit_rate\": %.4f}%s\n",
               name, static_cast<unsigned long long>(p.pull_rpcs), p.network_mb, p.seconds,
               static_cast<unsigned long long>(p.bad_reads),
               static_cast<unsigned long long>(p.cache_hits),
               static_cast<unsigned long long>(p.cache_misses), p.hit_rate, suffix);
}

inline ReadMicroPoint RunStateReadMicro(const ReadMicroConfig& micro) {
  ClusterConfig cluster_config;
  cluster_config.hosts = micro.hosts;
  cluster_config.state_tier = StateTier::kSharded;
  cluster_config.host.read_cache = micro.read_cache;
  // The workload's values are immutable, so a long lease is safe — exactly
  // the opt-in contract the cache documents.
  cluster_config.host.read_lease_ns = 10 * kSecond;
  FaasmCluster cluster(cluster_config);

  for (int i = 0; i < micro.keys; ++i) {
    cluster.kvs().Set(ReadMicroKey(i), Bytes(kReadMicroValueBytes, uint8_t(i + 1)));
  }

  const int keys = micro.keys;
  const bool read_batch = micro.read_batch;
  (void)cluster.registry().RegisterNative("pull_all", [keys, read_batch](InvocationContext& ctx) {
    // Drop every local replica first: each round re-reads the whole working
    // set through the tier, the access pattern the read cache targets.
    std::vector<std::string> names;
    names.reserve(keys);
    for (int i = 0; i < keys; ++i) {
      names.push_back(ReadMicroKey(i));
      ctx.state().Lookup(names.back())->InvalidateReplica();
    }
    if (read_batch) {
      if (!ctx.state().Prefetch(names).ok()) {
        return 2;
      }
    } else {
      for (const std::string& name : names) {
        if (!ctx.state().Lookup(name)->Pull().ok()) {
          return 2;
        }
      }
    }
    for (int i = 0; i < keys; ++i) {
      auto kv = ctx.state().Lookup(names[i]);
      if (!kv->Pull().ok() || kv->size() != kReadMicroValueBytes) {
        return 3;
      }
      const uint8_t* bytes = kv->data();
      for (size_t b = 0; b < kReadMicroValueBytes; ++b) {
        if (bytes[b] != uint8_t(i + 1)) {
          return 4;  // stale or torn read
        }
      }
    }
    return 0;
  });

  ReadMicroPoint point;
  cluster.network().ResetStats();
  cluster.Run([&](Frontend& frontend) {
    const TimeNs start = cluster.clock().Now();
    for (int round = 0; round < micro.rounds; ++round) {
      auto code = frontend.Invoke("pull_all", Bytes{});
      if (!code.ok() || code.value() != 0) {
        point.bad_reads += 1;
      }
    }
    point.seconds = static_cast<double>(cluster.clock().Now() - start) / 1e9;
  });

  for (size_t host = 0; host < cluster.host_count(); ++host) {
    if (const KvsServer* server = cluster.host(host).shard_server()) {
      point.pull_rpcs += server->read_rpc_count();
    }
    const ReadCache& cache = cluster.host(host).kvs().read_cache();
    point.cache_hits += cache.hits();
    point.cache_misses += cache.misses();
  }
  point.network_mb = static_cast<double>(cluster.network_bytes()) / 1e6;
  const uint64_t lookups = point.cache_hits + point.cache_misses;
  point.hit_rate = lookups == 0 ? 0 : static_cast<double>(point.cache_hits) / lookups;
  return point;
}

}  // namespace faasm

#endif  // FAASM_BENCH_READ_BATCH_UTIL_H_
