// Cluster-level lock-in of the sharded global tier (§4.3): a replica whose
// key is mastered on its own host completes Push/Pull with ZERO network
// bytes, while a replica on any other host pays the cross-host round trips;
// the centralised ablation tier pays from every host.
#include <gtest/gtest.h>

#include "runtime/cluster.h"
#include "state/ddo.h"

namespace faasm {
namespace {

constexpr size_t kValueBytes = 64 * 1024;

// Index of the cluster host mastering `key`'s shard (sharded tier only).
size_t MasterIndex(FaasmCluster& cluster, const std::string& key) {
  const std::string master = ShardMap::HostForEndpoint(cluster.shard_map().MasterFor(key));
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    if (cluster.host(i).name() == master) {
      return i;
    }
  }
  ADD_FAILURE() << "key '" << key << "' mastered by no host (" << master << ")";
  return 0;
}

TEST(ShardedTierTest, MasterLocalPushPullMovesZeroNetworkBytes) {
  ClusterConfig config;
  config.hosts = 4;  // kSharded is the default tier
  FaasmCluster cluster(config);

  const std::string key = "colocated";
  cluster.kvs().Set(key, Bytes(kValueBytes, 7));
  const size_t master = MasterIndex(cluster, key);
  const size_t other = (master + 1) % cluster.host_count();

  cluster.Run([&](Frontend&) {
    // Replica on the key's master host: pull, dirty a page, delta-push,
    // re-pull — all against the in-process shard.
    auto kv = cluster.host(master).tier().Lookup(key);
    EXPECT_TRUE(kv->master_local());
    EXPECT_TRUE(cluster.host(master).kvs().MasterLocal(key));
    const uint64_t before = cluster.network_bytes();
    ASSERT_TRUE(kv->Pull().ok());
    uint8_t* page = kv->WritableData(0, StateKeyValue::kStatePageBytes);
    ASSERT_NE(page, nullptr);
    page[0] = 42;
    kv->MarkDirty(0, StateKeyValue::kStatePageBytes);
    ASSERT_TRUE(kv->Push().ok());
    kv->InvalidateReplica();
    ASSERT_TRUE(kv->Pull().ok());
    EXPECT_EQ(cluster.network_bytes(), before)
        << "master-local push/pull must move zero network bytes";

    // The same sequence from a non-master host crosses the network.
    auto remote = cluster.host(other).tier().Lookup(key);
    EXPECT_FALSE(remote->master_local());
    ASSERT_TRUE(remote->Pull().ok());
    EXPECT_GT(cluster.network_bytes(), before + kValueBytes)
        << "a remote replica's pull must pay the transfer";
    // And the master's write is visible through the remote pull.
    EXPECT_EQ(remote->data()[0], 42);
  });
}

TEST(ShardedTierTest, CentralTierPaysFromEveryHost) {
  ClusterConfig config;
  config.hosts = 4;
  config.state_tier = StateTier::kCentral;
  FaasmCluster cluster(config);

  const std::string key = "colocated";
  cluster.kvs().Set(key, Bytes(kValueBytes, 7));
  cluster.Run([&](Frontend&) {
    for (size_t i = 0; i < cluster.host_count(); ++i) {
      const uint64_t before = cluster.network_bytes();
      auto kv = cluster.host(i).tier().Lookup(key);
      EXPECT_FALSE(kv->master_local());
      ASSERT_TRUE(kv->Pull().ok());
      EXPECT_GT(cluster.network_bytes(), before + kValueBytes) << "host " << i;
    }
  });
}

TEST(ShardedTierTest, GlobalLocksSerialiseAcrossHostsUnderSharding) {
  ClusterConfig config;
  config.hosts = 4;
  FaasmCluster cluster(config);
  const std::string key = "locked";
  cluster.kvs().Set(key, Bytes(8, 0));
  const size_t master = MasterIndex(cluster, key);
  const size_t other = (master + 2) % cluster.host_count();

  cluster.Run([&](Frontend&) {
    auto on_master = cluster.host(master).tier().Lookup(key);
    auto on_other = cluster.host(other).tier().Lookup(key);
    ASSERT_TRUE(on_master->LockGlobalWrite().ok());
    // The non-master host contends through the network against the same
    // master shard — it must NOT acquire.
    EXPECT_FALSE(cluster.host(other).kvs().TryLockWrite(key).value());
    ASSERT_TRUE(on_master->UnlockGlobalWrite().ok());
    ASSERT_TRUE(on_other->LockGlobalWrite().ok());
    ASSERT_TRUE(on_other->UnlockGlobalWrite().ok());
  });
}

TEST(ShardedTierTest, SeedingThroughRouterIsVisibleToFunctions) {
  // cluster.kvs() seeds through the router: a value seeded before any
  // traffic must be readable by a function wherever it runs.
  ClusterConfig config;
  config.hosts = 4;
  FaasmCluster cluster(config);
  cluster.kvs().Set("seeded", Bytes{1, 2, 3, 4});
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("reader",
                                  [](InvocationContext& ctx) {
                                    auto kv = ctx.state().Lookup("seeded");
                                    if (!kv->Pull().ok() || kv->size() != 4) {
                                      return 1;
                                    }
                                    return kv->data()[3] == 4 ? 0 : 2;
                                  })
                  .ok());
  cluster.Run([&](Frontend& frontend) {
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(frontend.Invoke("reader", {}).value(), 0);
    }
  });
}

}  // namespace
}  // namespace faasm
