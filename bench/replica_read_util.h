// Shared runner for the replica-read ablation (fig9_micro --replica-reads):
// does serving reads from a co-located backup copy actually cut cross-host
// read RPCs, and does it ever serve a stale byte?
//
// Workload: K versioned values on an R=2 ring. Every round, each key takes
// one acked write through its MASTER host's client (a fresh version stamp
// over a fixed fill pattern), then one read from a holder host chosen by
// alternating master/backup — modeling the scheduler's widened read-mostly
// affinity, which places read calls on ANY holder of the key's shard, not
// just the master. Both columns replicate at R=2 (same durability); they
// differ ONLY in whether the client's replica tier serves (config's
// replica_reads). The read decodes the version stamp: a version behind the
// last acked write is a STALENESS VIOLATION, a wrong fill byte a torn read —
// either counts against the column.
#ifndef FAASM_BENCH_REPLICA_READ_UTIL_H_
#define FAASM_BENCH_REPLICA_READ_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "runtime/cluster.h"

namespace faasm {

struct ReplicaMicroPoint {
  uint64_t read_rpcs = 0;       // cross-host read RPCs at the shard servers
  uint64_t replica_serves = 0;  // reads answered by a co-located replica
  double network_mb = 0;
  double seconds = 0;
  uint64_t staleness_violations = 0;  // read returned a version behind the ack
  uint64_t bad_reads = 0;             // failed, missized, or torn value
};

struct ReplicaMicroConfig {
  int hosts = 4;
  int keys = 16;
  int rounds = 32;
  bool replica_reads = true;

  static ReplicaMicroConfig ForScale(bool tiny, bool replica_reads) {
    ReplicaMicroConfig config;
    if (tiny) {
      config.keys = 8;
      config.rounds = 16;
    }
    config.replica_reads = replica_reads;
    return config;
  }
};

constexpr size_t kReplicaMicroValueBytes = 256;

inline std::string ReplicaMicroKey(int i) { return "rr-value-" + std::to_string(i); }

// version stamp (8 bytes LE) + fill pattern for the rest of the value.
inline Bytes ReplicaMicroValue(int key, uint64_t version) {
  Bytes value(kReplicaMicroValueBytes, uint8_t(key + 1));
  std::memcpy(value.data(), &version, sizeof(version));
  return value;
}

inline void PrintReplicaMicroRow(const char* name, const ReplicaMicroPoint& point) {
  std::printf("%14s | %10llu %14llu %12.2f %12.0f %7llu %5llu\n", name,
              static_cast<unsigned long long>(point.read_rpcs),
              static_cast<unsigned long long>(point.replica_serves), point.network_mb,
              point.seconds * 1e3,
              static_cast<unsigned long long>(point.staleness_violations),
              static_cast<unsigned long long>(point.bad_reads));
}

inline void WriteReplicaMicroPointJson(std::FILE* f, const char* name,
                                       const ReplicaMicroPoint& p, const char* suffix) {
  std::fprintf(f,
               "    \"%s\": {\"read_rpcs\": %llu, \"replica_serves\": %llu, "
               "\"network_mb\": %.3f, \"seconds\": %.4f, "
               "\"staleness_violations\": %llu, \"bad_reads\": %llu}%s\n",
               name, static_cast<unsigned long long>(p.read_rpcs),
               static_cast<unsigned long long>(p.replica_serves), p.network_mb, p.seconds,
               static_cast<unsigned long long>(p.staleness_violations),
               static_cast<unsigned long long>(p.bad_reads), suffix);
}

inline ReplicaMicroPoint RunReplicaReadMicro(const ReplicaMicroConfig& micro) {
  ClusterConfig cluster_config;
  cluster_config.hosts = micro.hosts;
  cluster_config.state_tier = StateTier::kSharded;
  cluster_config.replication_factor = 2;
  cluster_config.replica_reads = micro.replica_reads;
  FaasmCluster cluster(cluster_config);

  for (int i = 0; i < micro.keys; ++i) {
    cluster.kvs().Set(ReplicaMicroKey(i), ReplicaMicroValue(i, 0));
  }

  // Resolve each key's holder host indices once (the ring is static here).
  std::vector<size_t> master_of(micro.keys), backup_of(micro.keys);
  {
    const auto snapshot = cluster.shard_map().Snapshot();
    auto index_of = [&](const std::string& host) {
      for (size_t i = 0; i < cluster.host_count(); ++i) {
        if (cluster.host(i).name() == host) {
          return i;
        }
      }
      return size_t{0};
    };
    for (int i = 0; i < micro.keys; ++i) {
      const std::string master = snapshot->MasterFor(ReplicaMicroKey(i));
      const auto backups = BackupsFor(snapshot->endpoints(), master, 2);
      master_of[i] = index_of(ShardMap::HostForEndpoint(master));
      backup_of[i] = index_of(
          ShardMap::HostForEndpoint(backups.empty() ? master : backups[0]));
    }
  }

  ReplicaMicroPoint point;
  cluster.network().ResetStats();
  cluster.Run([&](Frontend&) {
    const TimeNs start = cluster.clock().Now();
    for (int round = 1; round <= micro.rounds; ++round) {
      for (int i = 0; i < micro.keys; ++i) {
        const std::string key = ReplicaMicroKey(i);
        // Acked write through the master's own client: version `round`.
        if (!cluster.host(master_of[i]).kvs().Set(key, ReplicaMicroValue(i, round)).ok()) {
          point.bad_reads += 1;
          continue;
        }
        // Read from a holder, alternating master/backup per (round, key) —
        // the widened-affinity placement mix.
        const size_t reader = (round + i) % 2 == 0 ? master_of[i] : backup_of[i];
        auto read = cluster.host(reader).kvs().Read(key);
        if (!read.ok() || read.value().size() != kReplicaMicroValueBytes) {
          point.bad_reads += 1;
          continue;
        }
        uint64_t version = 0;
        std::memcpy(&version, read.value().data(), sizeof(version));
        if (version < static_cast<uint64_t>(round)) {
          point.staleness_violations += 1;
        }
        for (size_t b = sizeof(version); b < kReplicaMicroValueBytes; ++b) {
          if (read.value()[b] != uint8_t(i + 1)) {
            point.bad_reads += 1;
            break;
          }
        }
      }
    }
    point.seconds = static_cast<double>(cluster.clock().Now() - start) / 1e9;
  });

  for (size_t host = 0; host < cluster.host_count(); ++host) {
    if (const KvsServer* server = cluster.host(host).shard_server()) {
      point.read_rpcs += server->read_rpc_count();
    }
    point.replica_serves += cluster.host(host).kvs().replica_served_count();
  }
  point.network_mb = static_cast<double>(cluster.network_bytes()) / 1e6;
  return point;
}

}  // namespace faasm

#endif  // FAASM_BENCH_REPLICA_READ_UTIL_H_
