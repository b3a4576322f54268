// The batched push protocol (ISSUE 5 acceptance): a push of K keys mastered
// on M hosts must cost at most M batch RPCs — previously at least one RPC
// per key — with the master-local group free, per-op acks, and unchanged
// bytes landing in each key's master shard. Plus the scopeless "every push
// is its own barrier" semantics, the adjacent-run wire coalescing, and
// in-order landing of one key's Push/PushChunk/PushFull.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>

#include "sim/sim_clock.h"
#include "state/local_tier.h"

namespace faasm {
namespace {

constexpr size_t kPage = StateKeyValue::kStatePageBytes;

// Sharded fixture: four host-colocated shards; this host ("host-0") serves
// its own shard in process and reaches the other three over the network.
class BatchPushTest : public ::testing::Test {
 protected:
  static constexpr int kHosts = 4;

  BatchPushTest() : network_(&clock_, NoLatency()) {
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

  // Creates the replica for `key` and writes `fill` through the write API.
  std::shared_ptr<StateKeyValue> WriteValue(const std::string& key, uint8_t fill) {
    auto kv = tier_->Lookup(key);
    EXPECT_TRUE(kv->EnsureCapacity(kPage).ok());
    uint8_t* dst = kv->WritableData(0, kPage);
    EXPECT_NE(dst, nullptr);
    std::memset(dst, fill, kPage);
    return kv;
  }

  RealClock clock_;
  InProcNetwork network_;
  ShardMap map_;
  KvStore shards_[kHosts];
  std::vector<std::unique_ptr<KvsServer>> servers_;
  std::unique_ptr<KvsClient> kvs_;
  std::unique_ptr<LocalTier> tier_;
};

TEST_F(BatchPushTest, MultiKeyPushCostsAtMostOneRpcPerMasterHost) {
  constexpr int kKeys = 12;
  std::vector<std::shared_ptr<StateKeyValue>> replicas;
  int remote_keys = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key-" + std::to_string(i);
    replicas.push_back(WriteValue(key, static_cast<uint8_t>(i + 1)));
    remote_keys += map_.MasterFor(key) == ShardMap::EndpointForHost(HostName(0)) ? 0 : 1;
  }
  ASSERT_GT(remote_keys, kHosts - 1) << "want more remote keys than remote hosts";

  network_.ResetStats();
  {
    StateBatch batch(*tier_);
    for (auto& replica : replicas) {
      ASSERT_TRUE(replica->Push().ok());  // accepted into the batch
    }
    // Nothing has crossed the network yet: the pushes are deferred.
    EXPECT_EQ(network_.total_bytes(), 0u);
    Status flushed = batch.Close();
    ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  }

  // THE acceptance bound: K keys mastered on M hosts cost at most M batch
  // RPCs — here at most M-1 = 3 messages leave this host (its own shard's
  // group runs in process) although `remote_keys` > 3 keys crossed shards.
  const uint64_t rpcs = network_.StatsFor(HostName(0)).tx_messages;
  EXPECT_LE(rpcs, static_cast<uint64_t>(kHosts - 1));
  EXPECT_GE(rpcs, 1u);

  // Every key's bytes landed on its master shard, exactly once.
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key-" + std::to_string(i);
    auto value = ShardMastering(key).Get(key);
    ASSERT_TRUE(value.ok()) << key;
    EXPECT_EQ(value.value(), Bytes(kPage, static_cast<uint8_t>(i + 1))) << key;
  }
}

TEST_F(BatchPushTest, BatchedPushMovesFewerBytesThanUnbatched) {
  // Same workload, batch scope vs per-op pushes: the batch saves the
  // per-RPC framing (request op + key + response per op) while moving the
  // same payload, so its byte count must be strictly smaller.
  constexpr int kKeys = 8;
  auto run = [&](bool batched, const std::string& prefix) -> uint64_t {
    std::vector<std::shared_ptr<StateKeyValue>> replicas;
    for (int i = 0; i < kKeys; ++i) {
      replicas.push_back(WriteValue(prefix + std::to_string(i), 0x42));
    }
    network_.ResetStats();
    if (batched) {
      StateBatch batch(*tier_);
      for (auto& replica : replicas) {
        EXPECT_TRUE(replica->Push().ok());
      }
      EXPECT_TRUE(batch.Close().ok());
    } else {
      for (auto& replica : replicas) {
        EXPECT_TRUE(replica->Push().ok());
      }
    }
    return network_.total_bytes();
  };
  // Key prefixes chosen so both runs route the same way per index.
  const uint64_t batched = run(true, "bytes-");
  const uint64_t unbatched = run(false, "bytes-x");
  EXPECT_LT(batched, unbatched) << "batched=" << batched << " unbatched=" << unbatched;
}

TEST_F(BatchPushTest, ScopelessPushIsItsOwnBarrier) {
  // With no StateBatch open, Push() keeps its unbatched contract: when it
  // returns Ok the bytes are durable in the global tier.
  auto kv = WriteValue("solo", 0x77);
  ASSERT_TRUE(kv->Push().ok());
  EXPECT_EQ(ShardMastering("solo").Get("solo").value(), Bytes(kPage, 0x77));
  EXPECT_EQ(kvs_->pending_batch_ops(), 0u);
}

TEST_F(BatchPushTest, TwoPushesOfOneKeyInScopeShipAsOneCoalescedOp) {
  // Find a remote-mastered key so the wire carries the op.
  std::string key;
  for (int i = 0; i < 100000 && key.empty(); ++i) {
    std::string probe = "coalesce-" + std::to_string(i);
    if (map_.MasterFor(probe) != ShardMap::EndpointForHost(HostName(0))) {
      key = std::move(probe);
    }
  }
  ASSERT_FALSE(key.empty());

  auto kv = tier_->Lookup(key);
  ASSERT_TRUE(kv->EnsureCapacity(2 * kPage).ok());
  network_.ResetStats();
  {
    StateBatch batch(*tier_);
    // Two adjacent page runs, dirtied and pushed SEPARATELY: without the
    // enqueue-time coalescing they would travel as two sub-ops/ranges.
    std::memset(kv->WritableData(0, kPage), 0x0A, kPage);
    ASSERT_TRUE(kv->Push().ok());
    std::memset(kv->WritableData(kPage, kPage), 0x0B, kPage);
    ASSERT_TRUE(kv->Push().ok());
    EXPECT_EQ(kvs_->pending_batch_ops(), 1u);  // merged into one sub-op
    ASSERT_TRUE(batch.Close().ok());
  }
  EXPECT_EQ(network_.StatsFor(HostName(0)).tx_messages, 1u);

  auto value = ShardMastering(key).Get(key);
  ASSERT_TRUE(value.ok());
  ASSERT_EQ(value.value().size(), 2 * kPage);
  EXPECT_EQ(value.value()[0], 0x0A);
  EXPECT_EQ(value.value()[2 * kPage - 1], 0x0B);
}

// Pushes of one key inside a scope land in the order they were made, even
// when the later one is a PushChunk or PushFull: all three push calls share
// the ambient batch, so an older deferred delta can never land last.
TEST_F(BatchPushTest, ChunkAndFullPushesInScopeLandAfterAnEarlierDeferredPush) {
  for (bool full : {false, true}) {
    const std::string key = full ? "order-full" : "order-chunk";
    SCOPED_TRACE(key);
    auto kv = tier_->Lookup(key);
    ASSERT_TRUE(kv->EnsureCapacity(kPage).ok());
    {
      StateBatch batch(*tier_);
      std::memset(kv->WritableData(0, kPage), 0x01, kPage);
      ASSERT_TRUE(kv->Push().ok());  // deferred
      std::memset(kv->WritableData(0, kPage), 0x02, kPage);
      ASSERT_TRUE((full ? kv->PushFull() : kv->PushChunk(0, kPage)).ok());
      ASSERT_TRUE(batch.Close().ok());
    }
    EXPECT_EQ(ShardMastering(key).Get(key).value(), Bytes(kPage, 0x02));
  }
}

TEST_F(BatchPushTest, SuccessfulBatchedPushClearsDirtyRuns) {
  auto kv = WriteValue("clear-check", 0x5C);
  ASSERT_TRUE(kv->Push().ok());
  network_.ResetStats();
  ASSERT_TRUE(kv->Push().ok());  // nothing dirty since: no bytes move
  EXPECT_EQ(network_.total_bytes(), 0u);
  EXPECT_EQ(kvs_->pending_batch_ops(), 0u);
}

TEST(BatchPushFailureTest, FailedBatchedPushSurfacesAndRemarksRuns) {
  // Centralised client (no shard map: a kWrongMaster bounce is NOT retried,
  // it surfaces immediately) against a store whose migration filter refuses
  // the key: the push must report the failure at its barrier AND re-mark
  // the dirty runs, so the next push delivers the data once the filter
  // clears.
  RealClock clock;
  NetworkConfig no_latency;
  no_latency.charge_latency = false;
  InProcNetwork network(&clock, no_latency);
  KvStore store;
  KvsServer server(&store, &network);
  KvsClient kvs(&network, "host-0");
  LocalTier tier(&kvs, &clock);

  store.SetMigrationFilter([](const std::string& key) { return key == "blocked"; });
  auto kv = tier.Lookup("blocked");
  ASSERT_TRUE(kv->EnsureCapacity(kPage).ok());
  std::memset(kv->WritableData(0, kPage), 0x5D, kPage);

  // Scopeless push: its own barrier, so the bounce surfaces right here.
  EXPECT_EQ(kv->Push().code(), StatusCode::kWrongMaster);
  EXPECT_FALSE(store.Exists("blocked"));

  // The runs were re-marked: after the filter clears, a plain Push ships
  // them again and the full page lands.
  store.ClearMigrationFilter();
  ASSERT_TRUE(kv->Push().ok());
  EXPECT_EQ(store.Get("blocked").value(), Bytes(kPage, 0x5D));
}

TEST(BatchPushFailureTest, FailedPushFullKeepsTheValueDirty) {
  // PushFull clears the dirty marks before it sends; a failed send must put
  // the whole value back, or the next Push() finds nothing dirty and the
  // write is lost.
  RealClock clock;
  NetworkConfig no_latency;
  no_latency.charge_latency = false;
  InProcNetwork network(&clock, no_latency);
  KvStore store;
  KvsServer server(&store, &network);
  KvsClient kvs(&network, "host-0");
  LocalTier tier(&kvs, &clock);

  store.SetMigrationFilter([](const std::string& key) { return key == "blocked"; });
  auto kv = tier.Lookup("blocked");
  ASSERT_TRUE(kv->EnsureCapacity(kPage).ok());
  std::memset(kv->WritableData(0, kPage), 0x5E, kPage);

  EXPECT_EQ(kv->PushFull().code(), StatusCode::kWrongMaster);
  EXPECT_FALSE(store.Exists("blocked"));

  store.ClearMigrationFilter();
  ASSERT_TRUE(kv->Push().ok());
  EXPECT_EQ(store.Get("blocked").value(), Bytes(kPage, 0x5E));
}

TEST(BatchPushFailureTest, FailedPushOfUntrackedWritesKeepsTheFullPushFallback) {
  // A value written only through raw data() has no dirty information, so
  // every Push() ships it whole. A failed push must not mark the tracker:
  // that would switch the fallback off and a later raw write would never
  // ship.
  RealClock clock;
  NetworkConfig no_latency;
  no_latency.charge_latency = false;
  InProcNetwork network(&clock, no_latency);
  KvStore store;
  KvsServer server(&store, &network);
  KvsClient kvs(&network, "host-0");
  LocalTier tier(&kvs, &clock);

  store.SetMigrationFilter([](const std::string& key) { return key == "blocked"; });
  auto kv = tier.Lookup("blocked");
  ASSERT_TRUE(kv->EnsureCapacity(kPage).ok());
  std::memset(kv->data(), 0x5F, kPage);
  EXPECT_EQ(kv->Push().code(), StatusCode::kWrongMaster);
  EXPECT_FALSE(store.Exists("blocked"));

  store.ClearMigrationFilter();
  ASSERT_TRUE(kv->Push().ok());
  EXPECT_EQ(store.Get("blocked").value(), Bytes(kPage, 0x5F));

  std::memset(kv->data(), 0x60, kPage);
  ASSERT_TRUE(kv->Push().ok());
  EXPECT_EQ(store.Get("blocked").value(), Bytes(kPage, 0x60));
}

TEST(BatchScopeThreadingTest, ScopeOnOneActivityDoesNotDeferAnotherActivitysPush) {
  // Scopes are per activity: while call A holds a StateBatch open, a
  // concurrent call B's scopeless Push() must still be its own barrier —
  // durable in the global tier the moment it returns.
  SimExecutor executor;
  NetworkConfig no_latency;
  no_latency.charge_latency = false;
  InProcNetwork network(&executor.clock(), no_latency);
  KvStore store;
  KvsServer server(&store, &network);
  KvsClient kvs(&network, "host-0");
  kvs.SetSpawner([&](std::function<void()> fn) { executor.Spawn(std::move(fn)); });
  LocalTier tier(&kvs, &executor.clock());

  std::atomic<int> phase{0};
  executor.Spawn([&] {  // call A
    auto kv = tier.Lookup("a");
    ASSERT_TRUE(kv->EnsureCapacity(kPage).ok());
    std::memset(kv->WritableData(0, kPage), 0xA1, kPage);
    StateBatch batch(tier);
    ASSERT_TRUE(kv->Push().ok());  // deferred by A's own scope
    phase.store(1);
    while (phase.load() < 2) {
      executor.clock().SleepFor(50 * kMicrosecond);
    }
    ASSERT_TRUE(batch.Close().ok());
  });
  executor.Spawn([&] {  // call B
    while (phase.load() < 1) {
      executor.clock().SleepFor(50 * kMicrosecond);
    }
    auto kv = tier.Lookup("b");
    ASSERT_TRUE(kv->EnsureCapacity(kPage).ok());
    std::memset(kv->WritableData(0, kPage), 0xB2, kPage);
    ASSERT_TRUE(kv->Push().ok());
    // B never opened a scope: its push is already durable, despite A's
    // scope being open on the same host.
    EXPECT_EQ(store.Get("b").value(), Bytes(kPage, 0xB2));
    phase.store(2);
  });
  executor.JoinAll();
  EXPECT_EQ(store.Get("a").value(), Bytes(kPage, 0xA1));
}

TEST(BatchPipelineTest, GroupsToDifferentShardsOverlapRoundTrips) {
  // Three groups bound for three different shards must overlap their round
  // trips (one activity per group) instead of serialising: with a 100 µs
  // one-way base latency, the batch completes in ~one RTT plus the wait
  // quantum, where three sequential ops pay three RTTs.
  SimExecutor executor;
  InProcNetwork network(&executor.clock(), NetworkConfig{});  // latency ON

  ShardMap map;
  for (int i = 1; i <= 3; ++i) {
    map.AddShard(ShardMap::EndpointForHost("host-" + std::to_string(i)));
  }
  KvStore shards[3];
  std::vector<std::unique_ptr<KvsServer>> servers;
  for (int i = 1; i <= 3; ++i) {
    const std::string endpoint = ShardMap::EndpointForHost("host-" + std::to_string(i));
    shards[i - 1].SetOwnershipGuard(map.MastersAt(endpoint));
    servers.push_back(std::make_unique<KvsServer>(&shards[i - 1], &network, endpoint));
  }
  KvsClient client(&network, "host-0", &map, /*local_store=*/nullptr);
  client.SetSpawner([&](std::function<void()> fn) { executor.Spawn(std::move(fn)); });

  // One key mastered by each shard.
  std::vector<std::string> keys(3);
  for (int i = 0; i < 100000; ++i) {
    std::string probe = "pipe-" + std::to_string(i);
    for (int s = 0; s < 3; ++s) {
      if (keys[s].empty() &&
          map.MasterFor(probe) == ShardMap::EndpointForHost("host-" + std::to_string(s + 1))) {
        keys[s] = probe;
      }
    }
    if (!keys[0].empty() && !keys[1].empty() && !keys[2].empty()) {
      break;
    }
  }

  TimeNs batched_elapsed = 0;
  TimeNs sequential_elapsed = 0;
  executor.Spawn([&] {
    OpBatch batch;
    for (const std::string& key : keys) {
      batch.Set(key, Bytes(1024, 1));
    }
    const TimeNs start = executor.clock().Now();
    ASSERT_TRUE(client.ExecuteBatchNow(std::move(batch)).ok());
    batched_elapsed = executor.clock().Now() - start;

    const TimeNs sequential_start = executor.clock().Now();
    for (const std::string& key : keys) {
      ASSERT_TRUE(client.Set(key, Bytes(1024, 2)).ok());
    }
    sequential_elapsed = executor.clock().Now() - sequential_start;
  });
  executor.JoinAll();

  // Sequential: three full RTTs. Batched: the three RTTs overlap.
  EXPECT_LT(batched_elapsed, sequential_elapsed)
      << "batched=" << batched_elapsed << "ns sequential=" << sequential_elapsed << "ns";
  EXPECT_LT(batched_elapsed, 2 * sequential_elapsed / 3);
}

}  // namespace
}  // namespace faasm
