// The batched + cached read path (the read-side twin of batch_push_test):
// LocalTier::Prefetch must pull K keys mastered on M hosts in at most M
// kGetBatch RPCs and make the keys' next Pull free; a Pull of a fully
// present replica must send nothing; the per-host read cache must serve
// repeat pulls with zero network bytes while never serving stale bytes
// after this host's own writes or under a global lock.
#include <gtest/gtest.h>

#include <algorithm>
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

  // Read RPCs the server of `key`'s (remote) master has answered.
  uint64_t MasterReadRpcs(const std::string& key) {
    for (const auto& server : servers_) {
      if (server->endpoint() == map_.MasterFor(key)) {
        return server->read_rpc_count();
      }
    }
    ADD_FAILURE() << "no server masters " << key;
    return 0;
  }

  // Registers a fresh server for the shard that `endpoint` serves (its
  // state, locks included, lives in the KvStore and survives).
  void ServeShardAt(const std::string& endpoint) {
    for (int i = 1; i < kHosts; ++i) {
      if (endpoint == ShardMap::EndpointForHost(HostName(i))) {
        servers_[i - 1].reset();
        servers_[i - 1] = std::make_unique<KvsServer>(&shards_[i], &network_, endpoint);
      }
    }
  }

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

// The warm-pull contract: a replica whose pages are all present is served
// from the local tier. Pull() goes back to the master only on first touch,
// after InvalidateReplica, and as the first pull under a fresh global lock.
TEST_F(ReadPathTest, WarmPullOfAFullyPresentRemoteKeySendsNothing) {
  const std::string key = RemoteKey("warm");
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(kPage + 100, 0x31)).ok());

  auto kv = tier_->Lookup(key);
  network_.ResetStats();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(TxMessages(), 1u);  // first touch: one whole-value read

  network_.ResetStats();
  ASSERT_TRUE(kv->Pull().ok());
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(TxMessages(), 0u);
  EXPECT_EQ(kv->size(), kPage + 100);
  EXPECT_EQ(kv->data()[kPage + 99], 0x31);
}

TEST_F(ReadPathTest, PullAfterInvalidateGoesBackToTheMaster) {
  const std::string key = RemoteKey("invalidated");
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(kPage, 0x41)).ok());
  auto kv = tier_->Lookup(key);
  ASSERT_TRUE(kv->Pull().ok());

  // Another host's write is not seen by a warm pull (two-tier weak
  // consistency), and costs this host nothing...
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(kPage, 0x42)).ok());
  network_.ResetStats();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(TxMessages(), 0u);
  EXPECT_EQ(kv->data()[0], 0x41);

  // ...until the replica is dropped: the next pull asks the master again.
  kv->InvalidateReplica();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(TxMessages(), 1u);
  EXPECT_EQ(kv->data()[0], 0x42);
}

TEST_F(ReadPathTest, DroppedReplicaRefetchIsOneReadRpcToTheMaster) {
  const std::string key = RemoteKey("refetched");
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(100, 0x43)).ok());
  auto kv = tier_->Lookup(key);
  ASSERT_TRUE(kv->Pull().ok());
  ASSERT_EQ(kv->size(), 100u);

  // The value is rewritten and grows inside its tail page behind this
  // host's back. The pull of the dropped replica is one whole-value read:
  // its bytes are the new value, and their length is the new size.
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(300, 0x44)).ok());
  kv->InvalidateReplica();
  const uint64_t reads_before = MasterReadRpcs(key);
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(MasterReadRpcs(key) - reads_before, 1u);
  EXPECT_EQ(kv->size(), 300u);
  EXPECT_EQ(kv->data()[0], 0x44);
  EXPECT_EQ(kv->data()[299], 0x44);
  EXPECT_EQ(kv->resident_pages(), 1u);
}

TEST_F(ReadPathTest, UnsizedPullChunkIsOneRangedReadThatSizesTheReplica) {
  const std::string key = RemoteKey("chunked");
  const size_t size = 3 * kPage + 10;
  Bytes value(size);
  for (size_t i = 0; i < size; ++i) {
    value[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  ASSERT_TRUE(ShardMastering(key).Set(key, value).ok());
  auto kv = tier_->Lookup(key);

  // First touch of a chunk in the second page: one ranged read, whose
  // answer sizes the replica to the whole value and fills just that page.
  network_.ResetStats();
  const uint64_t reads_before = MasterReadRpcs(key);
  ASSERT_TRUE(kv->PullChunk(kPage + 5, 10).ok());
  EXPECT_EQ(TxMessages(), 1u);
  EXPECT_EQ(MasterReadRpcs(key) - reads_before, 1u);
  ASSERT_TRUE(kv->allocated());
  EXPECT_EQ(kv->size(), size);
  EXPECT_EQ(kv->resident_pages(), 1u);
  EXPECT_TRUE(std::equal(value.begin() + kPage, value.begin() + 2 * kPage, kv->data() + kPage));

  // The sized replica serves the tail chunk (one more ranged read)...
  ASSERT_TRUE(kv->PullChunk(3 * kPage, 10).ok());
  EXPECT_TRUE(std::equal(value.begin() + 3 * kPage, value.end(), kv->data() + 3 * kPage));
  // ...and a chunk past the value's end is still out of range.
  EXPECT_EQ(kv->PullChunk(3 * kPage + 5, 10).code(), StatusCode::kOutOfRange);
}

class LockedPullTest : public ReadPathTest, public ::testing::WithParamInterface<bool> {
 protected:
  Status Lock(StateKeyValue& kv) { return GetParam() ? kv.LockGlobalWrite() : kv.LockGlobalRead(); }
  Status Unlock(StateKeyValue& kv) {
    return GetParam() ? kv.UnlockGlobalWrite() : kv.UnlockGlobalRead();
  }
};

TEST_P(LockedPullTest, FirstPullUnderTheLockSizesEvenWhenEveryPageIsDirty) {
  const std::string key = RemoteKey("resized");
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(100, 0x51)).ok());
  auto kv = tier_->Lookup(key);
  ASSERT_TRUE(kv->Pull().ok());
  ASSERT_EQ(kv->size(), 100u);

  // Every page holds an unpushed local write, so the lock refresh keeps
  // every page present; meanwhile the value grows inside its tail page.
  uint8_t* dst = kv->WritableData(0, 100);
  ASSERT_NE(dst, nullptr);
  std::memset(dst, 0x5A, 100);
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(300, 0x52)).ok());

  ASSERT_TRUE(Lock(*kv).ok());
  EXPECT_EQ(kv->resident_pages(), 1u);
  network_.ResetStats();
  ASSERT_TRUE(kv->Pull().ok());
  // One whole-value read: it sizes the replica, and only its grown bytes are
  // installed; the dirty page's local writes stay.
  EXPECT_EQ(TxMessages(), 1u);
  EXPECT_EQ(kv->size(), 300u);
  EXPECT_EQ(kv->data()[0], 0x5A);
  EXPECT_EQ(kv->data()[99], 0x5A);
  EXPECT_EQ(kv->data()[100], 0x52);
  EXPECT_EQ(kv->data()[299], 0x52);

  // The lock's read is owed once: the next pull under it is free.
  network_.ResetStats();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(TxMessages(), 0u);

  // The dirty tail page pushes as a whole run up to the new size: the
  // master keeps its grown bytes.
  ASSERT_TRUE(kv->Push().ok());
  ASSERT_TRUE(Unlock(*kv).ok());
  const Bytes global = ShardMastering(key).Get(key).value();
  ASSERT_EQ(global.size(), 300u);
  EXPECT_EQ(global[99], 0x5A);
  EXPECT_EQ(global[100], 0x52);
  EXPECT_EQ(global[299], 0x52);
}

TEST_P(LockedPullTest, FailedSizingUnderTheLockIsRetriedByTheNextPull) {
  const std::string key = RemoteKey("owed");
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(100, 0x41)).ok());
  auto kv = tier_->Lookup(key);
  ASSERT_TRUE(kv->Pull().ok());
  uint8_t* dst = kv->WritableData(0, 100);
  ASSERT_NE(dst, nullptr);
  std::memset(dst, 0x4A, 100);
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(200, 0x42)).ok());
  ASSERT_TRUE(Lock(*kv).ok());

  // The master's endpoint is briefly unreachable: the first pull under the
  // lock fails, and the read it owed is not forgotten.
  const std::string master = map_.MasterFor(key);
  network_.UnregisterEndpoint(master);
  EXPECT_FALSE(kv->Pull().ok());
  ServeShardAt(master);
  network_.ResetStats();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(TxMessages(), 1u);  // one read: the size and the grown bytes
  EXPECT_EQ(kv->size(), 200u);
  EXPECT_EQ(kv->data()[0], 0x4A);
  EXPECT_EQ(kv->data()[100], 0x42);
  ASSERT_TRUE(Unlock(*kv).ok());
}

TEST_P(LockedPullTest, FirstPullUnderTheLockRefetchesCleanPages) {
  const std::string key = RemoteKey("relocked");
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(kPage, 0x61)).ok());
  auto kv = tier_->Lookup(key);
  ASSERT_TRUE(kv->Pull().ok());
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(kPage, 0x62)).ok());

  ASSERT_TRUE(Lock(*kv).ok());
  network_.ResetStats();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(TxMessages(), 1u);  // one whole-value read
  EXPECT_EQ(kv->data()[0], 0x62);
  ASSERT_TRUE(Unlock(*kv).ok());
}

INSTANTIATE_TEST_SUITE_P(ReadAndWrite, LockedPullTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Write" : "Read";
                         });

TEST_F(ReadPathTest, InstalledValueMakesTheNextPullFree) {
  const std::string key = RemoteKey("installed");
  ASSERT_TRUE(ShardMastering(key).Set(key, Bytes(kPage + 7, 0x71)).ok());
  auto kv = tier_->Lookup(key);
  ASSERT_TRUE(kv->Pull().ok());

  // InstallPulled replaces every page, including a dropped replica's, and
  // marks them all present: the next pulls send nothing, whatever came
  // before (here an invalidation that would otherwise force a refetch).
  kv->InvalidateReplica();
  ASSERT_TRUE(kv->InstallPulled(Bytes(kPage + 7, 0x72)).ok());
  network_.ResetStats();
  ASSERT_TRUE(kv->Pull().ok());
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(TxMessages(), 0u);
  EXPECT_EQ(kv->data()[0], 0x72);
  EXPECT_EQ(kv->data()[kPage + 6], 0x72);
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
