// The push protocol: every Push()/PushChunk()/PushFull() is one
// synchronous write, and LocalTier::Push(keys) is the multi-key write — K
// keys mastered on M hosts cost at most M batch RPCs, with the master-local
// group free, per-op acks, and unchanged bytes landing in each key's master
// shard. A failed push re-marks its runs whichever path sent it, and no push
// or warm pull waits on another activity's batch. Everything runs in virtual
// time (SimExecutor), so the redirect-budget failures cost no wall time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>

#include "sim/sim_clock.h"
#include "state/local_tier.h"

namespace faasm {
namespace {

constexpr size_t kPage = StateKeyValue::kStatePageBytes;

NetworkConfig NoLatency() {
  NetworkConfig config;
  config.charge_latency = false;
  return config;
}

// Runs `body` as one simulated activity and waits for it (and everything it
// spawned) to finish.
void RunActivity(SimExecutor& executor, std::function<void()> body) {
  executor.Spawn(std::move(body));
  executor.JoinAll();
}

// Sharded fixture: four host-colocated shards; this host ("host-0") serves
// its own shard in process and reaches the other three over the network.
class BatchPushTest : public ::testing::Test {
 protected:
  static constexpr int kHosts = 4;

  BatchPushTest() : network_(&executor_.clock(), NoLatency()) {
    for (int i = 0; i < kHosts; ++i) {
      map_.AddShard(ShardMap::EndpointForHost(HostName(i)));
    }
    for (int i = 1; i < kHosts; ++i) {
      shards_[i].SetOwnershipGuard(map_.MastersAt(ShardMap::EndpointForHost(HostName(i))));
      servers_.push_back(std::make_unique<KvsServer>(
          &shards_[i], &network_, ShardMap::EndpointForHost(HostName(i))));
    }
    kvs_ = std::make_unique<KvsClient>(&network_, HostName(0), &map_, &shards_[0]);
    kvs_->SetSpawner([this](std::function<void()> fn) { executor_.Spawn(std::move(fn)); });
    tier_ = std::make_unique<LocalTier>(kvs_.get(), &executor_.clock());
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

  void Run(std::function<void()> body) { RunActivity(executor_, std::move(body)); }

  SimExecutor executor_;
  InProcNetwork network_;
  ShardMap map_;
  KvStore shards_[kHosts];
  std::vector<std::unique_ptr<KvsServer>> servers_;
  std::unique_ptr<KvsClient> kvs_;
  std::unique_ptr<LocalTier> tier_;
};

TEST_F(BatchPushTest, MultiKeyPushCostsAtMostOneRpcPerMasterHost) {
  constexpr int kKeys = 12;
  std::vector<std::string> keys;
  int remote_keys = 0;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back("key-" + std::to_string(i));
    WriteValue(keys.back(), static_cast<uint8_t>(i + 1));
    remote_keys += map_.MasterFor(keys.back()) == ShardMap::EndpointForHost(HostName(0)) ? 0 : 1;
  }
  ASSERT_GT(remote_keys, kHosts - 1) << "want more remote keys than remote hosts";

  network_.ResetStats();
  Run([&] {
    Status pushed = tier_->Push(keys);
    ASSERT_TRUE(pushed.ok()) << pushed.ToString();
  });

  // THE acceptance bound: K keys mastered on M hosts cost at most M batch
  // RPCs — here at most M-1 = 3 messages leave this host (its own shard's
  // group runs in process) although `remote_keys` > 3 keys crossed shards.
  const uint64_t rpcs = network_.StatsFor(HostName(0)).tx_messages;
  EXPECT_LE(rpcs, static_cast<uint64_t>(kHosts - 1));
  EXPECT_GE(rpcs, 1u);

  // Every key's bytes landed on its master shard, exactly once.
  for (int i = 0; i < kKeys; ++i) {
    auto value = ShardMastering(keys[i]).Get(keys[i]);
    ASSERT_TRUE(value.ok()) << keys[i];
    EXPECT_EQ(value.value(), Bytes(kPage, static_cast<uint8_t>(i + 1))) << keys[i];
  }
}

TEST_F(BatchPushTest, BatchedPushMovesFewerBytesThanUnbatched) {
  // Same workload, one LocalTier::Push vs a Push() per key: the batch saves
  // the per-RPC framing (request op + key + response per op) while moving
  // the same payload, so its byte count must be strictly smaller.
  constexpr int kKeys = 8;
  auto run = [&](bool batched, const std::string& prefix) -> uint64_t {
    std::vector<std::string> keys;
    for (int i = 0; i < kKeys; ++i) {
      keys.push_back(prefix + std::to_string(i));
      WriteValue(keys.back(), 0x42);
    }
    network_.ResetStats();
    Run([&] {
      if (batched) {
        EXPECT_TRUE(tier_->Push(keys).ok());
        return;
      }
      for (const std::string& key : keys) {
        EXPECT_TRUE(tier_->Lookup(key)->Push().ok());
      }
    });
    return network_.total_bytes();
  };
  // Key prefixes chosen so both runs route the same way per index.
  const uint64_t batched = run(true, "bytes-");
  const uint64_t unbatched = run(false, "bytes-x");
  EXPECT_LT(batched, unbatched) << "batched=" << batched << " unbatched=" << unbatched;
}

TEST_F(BatchPushTest, ScopelessPushIsItsOwnBarrier) {
  // Push() returning Ok means the bytes are in the global tier.
  auto kv = WriteValue("solo", 0x77);
  Run([&] { ASSERT_TRUE(kv->Push().ok()); });
  EXPECT_EQ(ShardMastering("solo").Get("solo").value(), Bytes(kPage, 0x77));
}

TEST_F(BatchPushTest, SuccessfulBatchedPushClearsDirtyRuns) {
  auto kv = WriteValue("clear-check", 0x5C);
  Run([&] { ASSERT_TRUE(tier_->Push({"clear-check"}).ok()); });
  network_.ResetStats();
  Run([&] {
    ASSERT_TRUE(kv->Push().ok());  // nothing dirty since: no bytes move
    ASSERT_TRUE(tier_->Push({"clear-check"}).ok());
  });
  EXPECT_EQ(network_.total_bytes(), 0u);
}

TEST_F(BatchPushTest, FailedKeyInMultiKeyPushStillShipsTheOthers) {
  // A key that was never written cannot be pushed; the keys listed around
  // it still ship, and the error is returned.
  WriteValue("written-a", 0x0A);
  WriteValue("written-b", 0x0B);
  Run([&] {
    EXPECT_EQ(tier_->Push({"written-a", "never-written", "written-b"}).code(),
              StatusCode::kFailedPrecondition);
  });
  EXPECT_EQ(ShardMastering("written-a").Get("written-a").value(), Bytes(kPage, 0x0A));
  EXPECT_EQ(ShardMastering("written-b").Get("written-b").value(), Bytes(kPage, 0x0B));
}

// One-shard tier whose store's migration filter refuses every key starting
// with "blocked": every attempt bounces, so a push of it fails with the client's typed
// retry-budget error once kMaxRedirectRetries backoffs of virtual time pass.
class BatchPushFailureTest : public ::testing::Test {
 protected:
  BatchPushFailureTest()
      : network_(&executor_.clock(), NoLatency()),
        server_(&store_, &network_),
        kvs_(&network_, "host-0"),
        tier_(&kvs_, &executor_.clock()) {
    store_.SetMigrationFilter([](const std::string& key) { return key.rfind("blocked", 0) == 0; });
  }

  std::shared_ptr<StateKeyValue> Blocked(const std::string& key = "blocked") {
    auto kv = tier_.Lookup(key);
    EXPECT_TRUE(kv->EnsureCapacity(kPage).ok());
    return kv;
  }

  void Run(std::function<void()> body) { RunActivity(executor_, std::move(body)); }

  SimExecutor executor_;
  InProcNetwork network_;
  KvStore store_;
  KvsServer server_;
  KvsClient kvs_;
  LocalTier tier_;
};

TEST_F(BatchPushFailureTest, FailedBatchedPushSurfacesAndRemarksRuns) {
  // The push must report the failure AND re-mark the dirty runs, so the
  // next push delivers the data once the filter clears — through either
  // push path.
  auto single = Blocked("blocked");
  auto batched = Blocked("blocked-batched");
  Run([&] {
    std::memset(single->WritableData(0, kPage), 0x5C, kPage);
    std::memset(batched->WritableData(0, kPage), 0x5D, kPage);
    EXPECT_EQ(single->Push().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(tier_.Push({"blocked-batched"}).code(), StatusCode::kDeadlineExceeded);
  });
  EXPECT_FALSE(store_.Exists("blocked"));
  EXPECT_FALSE(store_.Exists("blocked-batched"));

  store_.ClearMigrationFilter();
  Run([&] {
    ASSERT_TRUE(single->Push().ok());
    ASSERT_TRUE(batched->Push().ok());
  });
  EXPECT_EQ(store_.Get("blocked").value(), Bytes(kPage, 0x5C));
  EXPECT_EQ(store_.Get("blocked-batched").value(), Bytes(kPage, 0x5D));
}

TEST_F(BatchPushFailureTest, FailedPushFullKeepsTheValueDirty) {
  // PushFull clears the dirty marks before it sends; a failed send must put
  // the whole value back, or the next Push() finds nothing dirty and the
  // write is lost.
  auto kv = Blocked();
  Run([&] {
    std::memset(kv->WritableData(0, kPage), 0x5E, kPage);
    EXPECT_EQ(kv->PushFull().code(), StatusCode::kDeadlineExceeded);
  });
  EXPECT_FALSE(store_.Exists("blocked"));

  store_.ClearMigrationFilter();
  Run([&] { ASSERT_TRUE(kv->Push().ok()); });
  EXPECT_EQ(store_.Get("blocked").value(), Bytes(kPage, 0x5E));
}

TEST_F(BatchPushFailureTest, FailedPushOfUntrackedWritesKeepsTheFullPushFallback) {
  // A value written only through raw data() has no dirty information, so
  // every Push() ships it whole. A failed push must not mark the tracker:
  // that would switch the fallback off and a later raw write would never
  // ship.
  auto kv = Blocked();
  std::memset(kv->data(), 0x5F, kPage);
  Run([&] { EXPECT_EQ(kv->Push().code(), StatusCode::kDeadlineExceeded); });
  EXPECT_FALSE(store_.Exists("blocked"));

  store_.ClearMigrationFilter();
  Run([&] { ASSERT_TRUE(kv->Push().ok()); });
  EXPECT_EQ(store_.Get("blocked").value(), Bytes(kPage, 0x5F));

  std::memset(kv->data(), 0x60, kPage);
  Run([&] { ASSERT_TRUE(kv->Push().ok()); });
  EXPECT_EQ(store_.Get("blocked").value(), Bytes(kPage, 0x60));
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
      batch.SetRanges(key, {ValueRange{0, Bytes(1024, 1)}});
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

TEST(SyncPointTest, WarmPullAndLocalPushNeverWaitOnAnotherActivitysPrefetch) {
  // One host, latency charged. While activity B's Prefetch across two remote
  // shards is in flight, activity A's warm Pull and its Push of a key this
  // host masters touch nothing B holds: both return after 0 virtual ns.
  SimExecutor executor;
  InProcNetwork network(&executor.clock());  // latency ON
  ShardMap map;
  KvStore shards[3];
  std::vector<std::unique_ptr<KvsServer>> servers;
  for (int i = 0; i < 3; ++i) {
    map.AddShard(ShardMap::EndpointForHost("host-" + std::to_string(i)));
  }
  for (int i = 1; i < 3; ++i) {
    const std::string endpoint = ShardMap::EndpointForHost("host-" + std::to_string(i));
    shards[i].SetOwnershipGuard(map.MastersAt(endpoint));
    servers.push_back(std::make_unique<KvsServer>(&shards[i], &network, endpoint));
  }
  KvsClient kvs(&network, "host-0", &map, &shards[0]);
  kvs.SetSpawner([&](std::function<void()> fn) { executor.Spawn(std::move(fn)); });
  LocalTier tier(&kvs, &executor.clock());

  // keys[s]: a key host-s masters. warm: a second host-1 key A pulls early.
  std::vector<std::string> keys(3);
  std::string warm;
  for (int i = 0; i < 100000 && (keys[0].empty() || keys[1].empty() || keys[2].empty() ||
                                 warm.empty());
       ++i) {
    std::string probe = "sync-" + std::to_string(i);
    for (int s = 0; s < 3; ++s) {
      if (map.MasterFor(probe) != ShardMap::EndpointForHost("host-" + std::to_string(s))) {
        continue;
      }
      if (keys[s].empty()) {
        keys[s] = probe;
      } else if (s == 1 && warm.empty()) {
        warm = probe;
      }
    }
  }
  ASSERT_TRUE(shards[1].Set(keys[1], Bytes(kPage, 1)).ok());
  ASSERT_TRUE(shards[2].Set(keys[2], Bytes(kPage, 2)).ok());
  ASSERT_TRUE(shards[1].Set(warm, Bytes(kPage, 3)).ok());

  // Starts B's prefetch, lets it get on the wire, and returns how long
  // `op` took on A while the prefetch was in flight.
  auto elapsed_during_prefetch = [&](const std::function<Status()>& op) -> TimeNs {
    std::atomic<bool> prefetched{false};
    executor.Spawn([&] {  // activity B
      EXPECT_TRUE(tier.Prefetch({keys[1], keys[2]}).ok());
      prefetched.store(true);
    });
    executor.clock().SleepFor(kMicrosecond);
    EXPECT_FALSE(prefetched.load()) << "the prefetch should still be in flight";
    const TimeNs start = executor.clock().Now();
    EXPECT_TRUE(op().ok());
    const TimeNs elapsed = executor.clock().Now() - start;
    executor.clock().WaitFor([&] { return prefetched.load(); });
    return elapsed;
  };

  executor.Spawn([&] {  // activity A
    auto remote = tier.Lookup(warm);
    ASSERT_TRUE(remote->Pull().ok());  // first touch: one round trip
    auto local = tier.Lookup(keys[0]);
    ASSERT_TRUE(local->EnsureCapacity(kPage).ok());
    std::memset(local->WritableData(0, kPage), 0x0C, kPage);

    EXPECT_EQ(elapsed_during_prefetch([&] { return remote->Pull(); }), 0);
    EXPECT_EQ(elapsed_during_prefetch([&] { return local->Push(); }), 0);
  });
  executor.JoinAll();
  EXPECT_EQ(shards[0].Get(keys[0]).value(), Bytes(kPage, 0x0C));
}

}  // namespace
}  // namespace faasm
