// Router-layer tests: consistent-hash stability of the ShardMap, per-key op
// routing through KvsClient (including multi-range SetRanges batches), and the
// master-local fast path's zero-network guarantee.
#include "kvs/router.h"

#include <gtest/gtest.h>

#include "kvs/kvs_client.h"

namespace faasm {
namespace {

std::string HostName(int i) { return "host-" + std::to_string(i); }

// A multi-range write as a one-op batch, run now; returns its status.
Status SetRangesNow(KvsClient& client, const std::string& key, std::vector<ValueRange> ranges) {
  OpBatch batch;
  batch.SetRanges(key, std::move(ranges));
  return client.ExecuteBatchNow(std::move(batch));
}

// First probe key mastered on `endpoint` (bounded so a mapping bug fails
// the test instead of hanging it).
std::string KeyMasteredOn(const ShardMap& map, const std::string& endpoint) {
  for (int i = 0; i < 100000; ++i) {
    std::string key = "probe-" + std::to_string(i);
    if (map.MasterFor(key) == endpoint) {
      return key;
    }
  }
  ADD_FAILURE() << "no key mastered on " << endpoint;
  return "";
}

TEST(ShardMapTest, EndpointNamingRoundTrips) {
  EXPECT_EQ(ShardMap::EndpointForHost("host-3"), "kvs:host-3");
  EXPECT_EQ(ShardMap::HostForEndpoint("kvs:host-3"), "host-3");
  // The centralised endpoint is not a host-colocated shard.
  EXPECT_EQ(ShardMap::HostForEndpoint("kvs"), "");
}

TEST(ShardMapTest, MasterIsDeterministicAndCoversAllShards) {
  ShardMap map;
  constexpr int kShards = 8;
  for (int i = 0; i < kShards; ++i) {
    map.AddShard(ShardMap::EndpointForHost(HostName(i)));
  }
  ASSERT_EQ(map.shard_count(), static_cast<size_t>(kShards));

  std::map<std::string, int> per_shard;
  for (int i = 0; i < 10000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const std::string master = map.MasterFor(key);
    EXPECT_EQ(master, map.MasterFor(key));  // deterministic
    per_shard[master]++;
  }
  // Every shard masters a nontrivial share (64 vnodes balance within a few
  // percent; 1/8 = 1250, assert a loose floor).
  ASSERT_EQ(per_shard.size(), static_cast<size_t>(kShards));
  for (const auto& [endpoint, count] : per_shard) {
    EXPECT_GT(count, 300) << endpoint;
  }
}

TEST(ShardMapTest, AddingShardRemapsOnlyItsShare) {
  constexpr int kShards = 8;
  constexpr int kKeys = 20000;
  ShardMap map;
  for (int i = 0; i < kShards; ++i) {
    map.AddShard(ShardMap::EndpointForHost(HostName(i)));
  }
  std::vector<std::string> before(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    before[i] = map.MasterFor("key-" + std::to_string(i));
  }

  const std::string added = ShardMap::EndpointForHost(HostName(kShards));
  map.AddShard(added);
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string after = map.MasterFor("key-" + std::to_string(i));
    if (after != before[i]) {
      ++moved;
      // Consistent hashing only moves keys TO the new shard.
      EXPECT_EQ(after, added);
    }
  }
  // Expected share is 1/9 ≈ 11%; allow vnode variance but lock in "~1/N,
  // not a rehash-everything".
  EXPECT_GT(moved, kKeys / 50);
  EXPECT_LT(moved, kKeys / 4);

  // Removing the shard restores every original assignment.
  map.RemoveShard(added);
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(map.MasterFor("key-" + std::to_string(i)), before[i]);
  }
}

TEST(ShardedKvsTest, RoutesDirectCallsToOwningStore) {
  ShardMap map;
  KvStore stores[3];
  ShardedKvs kvs;
  for (int i = 0; i < 3; ++i) {
    const std::string endpoint = ShardMap::EndpointForHost(HostName(i));
    map.AddShard(endpoint);
    kvs.AddStore(endpoint, &stores[i]);
  }
  kvs.Attach(&map);

  for (int i = 0; i < 64; ++i) {
    const std::string key = "seed-" + std::to_string(i);
    kvs.Set(key, Bytes{static_cast<uint8_t>(i)});
  }
  size_t total = 0;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "seed-" + std::to_string(i);
    const std::string master = map.MasterFor(key);
    for (int s = 0; s < 3; ++s) {
      const bool owns = ShardMap::EndpointForHost(HostName(s)) == master;
      EXPECT_EQ(stores[s].Exists(key), owns) << key;
    }
    EXPECT_EQ(kvs.Get(key).value(), Bytes{static_cast<uint8_t>(i)});
    total++;
  }
  EXPECT_EQ(kvs.key_count(), total);
}

// Routing client against three host-colocated shard servers.
class KvsRoutingTest : public ::testing::Test {
 protected:
  static constexpr int kHosts = 3;

  KvsRoutingTest() : network_(&clock_, NoLatency()) {
    for (int i = 0; i < kHosts; ++i) {
      const std::string endpoint = ShardMap::EndpointForHost(HostName(i));
      map_.AddShard(endpoint);
      servers_.push_back(std::make_unique<KvsServer>(&stores_[i], &network_, endpoint));
    }
  }

  static NetworkConfig NoLatency() {
    NetworkConfig config;
    config.charge_latency = false;
    return config;
  }

  KvsClient ClientOn(int host) { return KvsClient(&network_, HostName(host), &map_, &stores_[host]); }

  KvStore* StoreMastering(const std::string& key) {
    const std::string master = map_.MasterFor(key);
    for (int i = 0; i < kHosts; ++i) {
      if (ShardMap::EndpointForHost(HostName(i)) == master) {
        return &stores_[i];
      }
    }
    return nullptr;
  }

  RealClock clock_;
  InProcNetwork network_;
  ShardMap map_;
  KvStore stores_[kHosts];
  std::vector<std::unique_ptr<KvsServer>> servers_;
};

TEST_F(KvsRoutingTest, PerKeyOpsLandOnMasterShard) {
  KvsClient client = ClientOn(0);
  for (int i = 0; i < 32; ++i) {
    const std::string key = "k-" + std::to_string(i);
    ASSERT_TRUE(client.Set(key, Bytes{1, 2, 3}).ok());
    EXPECT_TRUE(StoreMastering(key)->Exists(key)) << key;
    EXPECT_EQ(client.Read(key).value(), (Bytes{1, 2, 3}));
  }
}

TEST_F(KvsRoutingTest, SetRangesRoutesToMasterShard) {
  KvsClient client = ClientOn(0);
  const std::string local_key = KeyMasteredOn(map_, ShardMap::EndpointForHost(HostName(0)));
  const std::string remote_key = KeyMasteredOn(map_, ShardMap::EndpointForHost(HostName(1)));
  for (const std::string& key : {local_key, remote_key}) {
    ASSERT_TRUE(client.Set(key, Bytes(6, 0)).ok());
    std::vector<ValueRange> ranges;
    ranges.push_back(ValueRange{1, Bytes{7, 7}});
    ranges.push_back(ValueRange{4, Bytes{8, 8, 8}});
    ASSERT_TRUE(SetRangesNow(client, key, ranges).ok());
    EXPECT_EQ(StoreMastering(key)->Get(key).value(), (Bytes{0, 7, 7, 0, 8, 8, 8})) << key;
  }
}

TEST_F(KvsRoutingTest, MasterLocalFastPathMovesZeroNetworkBytes) {
  KvsClient client = ClientOn(0);
  const std::string local_key = KeyMasteredOn(map_, ShardMap::EndpointForHost(HostName(0)));
  ASSERT_TRUE(client.MasterLocal(local_key));
  EXPECT_EQ(client.MasterHostFor(local_key), HostName(0));

  network_.ResetStats();
  ASSERT_TRUE(client.Set(local_key, Bytes(4096, 9)).ok());
  EXPECT_EQ(client.Read(local_key).value().size(), 4096u);
  std::vector<ValueRange> ranges;
  ranges.push_back(ValueRange{0, Bytes{1}});
  ASSERT_TRUE(SetRangesNow(client, local_key, ranges).ok());
  EXPECT_TRUE(client.TryLockWrite(local_key).value());
  ASSERT_TRUE(client.UnlockWrite(local_key).ok());
  EXPECT_TRUE(client.SetAdd(local_key, "member").value());
  EXPECT_EQ(client.SetMembers(local_key).value().size(), 1u);
  uint64_t size = 0;
  ASSERT_TRUE(client.Read(local_key, ReadOptions{.len = 0}, &size).ok());
  EXPECT_EQ(size, 4096u);
  // Every op above targeted a locally-mastered key: all in-process.
  EXPECT_EQ(network_.total_bytes(), 0u);

  // A remote-mastered key pays the round trip.
  const std::string remote_key = KeyMasteredOn(map_, ShardMap::EndpointForHost(HostName(2)));
  ASSERT_FALSE(client.MasterLocal(remote_key));
  network_.ResetStats();
  ASSERT_TRUE(client.Set(remote_key, Bytes(4096, 9)).ok());
  EXPECT_GT(network_.total_bytes(), 4096u);
}

TEST_F(KvsRoutingTest, DistributedLocksAreSharedAcrossRoutes) {
  // host-1 masters the key and locks in process; host-0 contends over the
  // network. Both must see the same lock state.
  KvsClient local = ClientOn(1);
  KvsClient remote = ClientOn(0);
  const std::string key = KeyMasteredOn(map_, ShardMap::EndpointForHost(HostName(1)));
  ASSERT_TRUE(local.MasterLocal(key));
  ASSERT_FALSE(remote.MasterLocal(key));

  EXPECT_TRUE(local.TryLockWrite(key).value());
  EXPECT_FALSE(remote.TryLockWrite(key).value());
  EXPECT_FALSE(remote.TryLockRead(key).value());
  ASSERT_TRUE(local.UnlockWrite(key).ok());
  EXPECT_TRUE(remote.TryLockRead(key).value());
  EXPECT_FALSE(local.TryLockWrite(key).value());
  ASSERT_TRUE(remote.UnlockRead(key).ok());
}

TEST_F(KvsRoutingTest, ClientWithoutLocalShardRoutesEverything) {
  // An external client (no co-located shard) still reaches every key.
  KvsClient client(&network_, "client", &map_, nullptr);
  const std::string key = KeyMasteredOn(map_, ShardMap::EndpointForHost(HostName(0)));
  EXPECT_FALSE(client.MasterLocal(key));
  network_.ResetStats();
  ASSERT_TRUE(client.Set(key, Bytes{5}).ok());
  EXPECT_GT(network_.total_bytes(), 0u);
  EXPECT_EQ(stores_[0].Get(key).value(), (Bytes{5}));
}

}  // namespace
}  // namespace faasm
