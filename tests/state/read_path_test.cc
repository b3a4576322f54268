// The batched + cached read path (the read-side twin of batch_push_test):
// LocalTier::Prefetch must pull K keys mastered on M hosts in at most M
// kGetBatch RPCs and make the keys' next Pull free; the per-host read cache
// must serve repeat pulls with zero network bytes while never serving stale
// bytes after this host's own writes or under a global lock.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "state/local_tier.h"

namespace faasm {
namespace {

constexpr size_t kPage = StateKeyValue::kStatePageBytes;

// Sharded fixture: four host-colocated shards; this host ("host-0") serves
// its own shard in process and reaches the other three over the network.
class ReadPathTest : public ::testing::Test {
 protected:
  static constexpr int kHosts = 4;

  ReadPathTest() : network_(&clock_, NoLatency()) {
    for (int i = 0; i < kHosts; ++i) {
      map_.AddShard(ShardMap::EndpointForHost(HostName(i)));
    }
    for (int i = 1; i < kHosts; ++i) {
      shards_[i].SetOwnershipGuard(map_.MastersAt(ShardMap::EndpointForHost(HostName(i))));
      servers_.push_back(std::make_unique<KvsServer>(
          &shards_[i], &network_, ShardMap::EndpointForHost(HostName(i))));
    }
    kvs_ = std::make_unique<KvsClient>(&network_, HostName(0), &map_, &shards_[0]);
    tier_ = std::make_unique<LocalTier>(kvs_.get(), &clock_);
  }

  static NetworkConfig NoLatency() {
    NetworkConfig config;
    config.charge_latency = false;
    return config;
  }

  static std::string HostName(int i) { return "host-" + std::to_string(i); }

  KvStore& ShardMastering(const std::string& key) {
    const std::string master = map_.MasterFor(key);
    for (int i = 0; i < kHosts; ++i) {
      if (master == ShardMap::EndpointForHost(HostName(i))) {
        return shards_[i];
      }
    }
    ADD_FAILURE() << "no shard masters " << key;
    return shards_[0];
  }

  // Picks a key NOT mastered by this host's shard (pulls cross the network).
  std::string RemoteKey(const std::string& hint) {
    for (int i = 0; i < 100000; ++i) {
      std::string probe = hint + "-" + std::to_string(i);
      if (map_.MasterFor(probe) != ShardMap::EndpointForHost(HostName(0))) {
        return probe;
      }
    }
    ADD_FAILURE() << "no remote-mastered key found";
    return hint;
  }

  uint64_t TxMessages() { return network_.StatsFor(HostName(0)).tx_messages; }

  RealClock clock_;
  InProcNetwork network_;
  ShardMap map_;
  KvStore shards_[kHosts];
  std::vector<std::unique_ptr<KvsServer>> servers_;
  std::unique_ptr<KvsClient> kvs_;
  std::unique_ptr<LocalTier> tier_;
};

TEST_F(ReadPathTest, PrefetchCostsAtMostOneRpcPerMasterHostAndMakesPullFree) {
  constexpr int kKeys = 12;
  std::vector<std::string> keys;
  int remote_keys = 0;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back("pf-" + std::to_string(i));
    ASSERT_TRUE(ShardMastering(keys.back()).Set(keys.back(), Bytes(kPage, uint8_t(i + 1))).ok());
    remote_keys += map_.MasterFor(keys.back()) == ShardMap::EndpointForHost(HostName(0)) ? 0 : 1;
  }
  ASSERT_GT(remote_keys, kHosts - 1) << "want more remote keys than remote hosts";

  network_.ResetStats();
  ASSERT_TRUE(tier_->Prefetch(keys).ok());

  // THE read-side acceptance bound: K keys mastered on M hosts cost at most
  // M-1 grouped read RPCs (this host's own group runs in process), although
  // `remote_keys` > M-1 keys crossed shards — previously each key's Pull
  // paid its own sizing + fetch round trips.
  const uint64_t prefetch_rpcs = TxMessages();
  EXPECT_LE(prefetch_rpcs, uint64_t{kHosts - 1});
  EXPECT_GE(prefetch_rpcs, 1u);

  // The values are installed and every key's next Pull is free: no further
  // network traffic, and the replica bytes match the masters'.
  for (int i = 0; i < kKeys; ++i) {
    auto kv = tier_->Lookup(keys[i]);
    ASSERT_TRUE(kv->Pull().ok()) << keys[i];
    ASSERT_NE(kv->data(), nullptr);
    EXPECT_EQ(kv->data()[0], uint8_t(i + 1)) << keys[i];
    EXPECT_EQ(kv->size(), kPage);
  }
  EXPECT_EQ(TxMessages(), prefetch_rpcs);
}

TEST_F(ReadPathTest, PerKeyPullsPayAtLeastOneRpcPerKey) {
  constexpr int kKeys = 8;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back(RemoteKey("unbatched-" + std::to_string(i)));
    ASSERT_TRUE(ShardMastering(keys.back()).Set(keys.back(), Bytes{uint8_t(i)}).ok());
  }

  // The unbatched read pattern: a Pull() per key instead of one Prefetch.
  network_.ResetStats();
  for (const std::string& key : keys) {
    ASSERT_TRUE(tier_->Lookup(key)->Pull().ok()) << key;
  }
  // Every key paid its own pull (sizing + fetch): at least one RPC per key,
  // strictly more than the grouped protocol's M-1 bound.
  EXPECT_GE(TxMessages(), uint64_t{kKeys});
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(tier_->Lookup(keys[i])->data()[0], uint8_t(i));
  }
}

TEST_F(ReadPathTest, CachedPullServesRepeatsButNeverMasksOwnWrites) {
  kvs_->EnableReadCache(kSecond);
  const std::string key = RemoteKey("cached");
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(kPage, 0x11)).ok());

  auto kv = tier_->Lookup(key);
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(kv->data()[0], 0x11);

  // A repeat pull after dropping the replica is served from the read cache:
  // zero network traffic.
  network_.ResetStats();
  kv->InvalidateReplica();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(kv->data()[0], 0x11);
  EXPECT_EQ(TxMessages(), 0u);

  // This host's own write invalidates at enqueue: a pull after push must
  // observe the new bytes, leased cache entry or not.
  uint8_t* dst = kv->WritableData(0, kPage);
  ASSERT_NE(dst, nullptr);
  std::memset(dst, 0x22, kPage);
  ASSERT_TRUE(kv->Push().ok());
  kv->InvalidateReplica();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(kv->data()[0], 0x22);
  EXPECT_EQ(ShardMastering(key).Get(key).value(), Bytes(kPage, 0x22));
}

TEST_F(ReadPathTest, GlobalLockForcesFreshPullPastTheLease) {
  kvs_->EnableReadCache(kSecond);
  const std::string key = RemoteKey("locked");
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(kPage, 0x01)).ok());

  auto kv = tier_->Lookup(key);
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(kv->data()[0], 0x01);

  // Another host writes behind this host's cache (directly at the master:
  // no invalidation reaches host-0). An unlocked re-pull inside the lease
  // may serve the stale cached value — the documented, opted-into contract.
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(kPage, 0x02)).ok());
  kv->InvalidateReplica();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(kv->data()[0], 0x01);  // stale, allowed without a lock

  // Under a global lock there is no staleness: acquisition drops both the
  // client's cached read and the replica's clean pages, so the first pull
  // under the lock refetches the serialised bytes.
  ASSERT_TRUE(kv->LockGlobalRead().ok());
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(kv->data()[0], 0x02);
  ASSERT_TRUE(kv->UnlockGlobalRead().ok());
}

TEST_F(ReadPathTest, LockRefreshKeepsUnpushedLocalWrites) {
  const std::string key = RemoteKey("dirty");
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(kPage * 2, 0x0A)).ok());

  auto kv = tier_->Lookup(key);
  ASSERT_TRUE(kv->Pull().ok());
  // Unpushed local write to the first page only.
  uint8_t* dst = kv->WritableData(0, kPage);
  ASSERT_NE(dst, nullptr);
  std::memset(dst, 0xBB, kPage);

  // Lock acquisition refreshes CLEAN pages but must keep the dirty one: a
  // refetch over it would read global bytes over the unpushed write.
  ASSERT_TRUE(kv->LockGlobalWrite().ok());
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(kv->data()[0], 0xBB);          // dirty page survived
  EXPECT_EQ(kv->data()[kPage], 0x0A);      // clean page refetched
  ASSERT_TRUE(kv->Push().ok());
  ASSERT_TRUE(kv->UnlockGlobalWrite().ok());
  EXPECT_EQ(ShardMastering(key).Get(key).value()[0], 0xBB);
  EXPECT_EQ(ShardMastering(key).Get(key).value()[kPage], 0x0A);
}

}  // namespace
}  // namespace faasm
