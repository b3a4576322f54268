// Crash-failover tests (ISSUE 7 acceptance): FaasmCluster::KillHost removes
// a host abruptly — no drain, mail dropped, endpoints gone — while writer
// functions hammer counters through DDOs. With replication_factor > 1 every
// acknowledged increment must survive the crash (promoted from a live
// backup before the epoch flips), held distributed locks must keep
// excluding, and clients must recover through the ordinary
// kUnavailable/kWrongMaster bounce. At factor 1 the dead shard's keys are
// lost — counted, never silent.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>

#include "runtime/cluster.h"
#include "state/ddo.h"

namespace faasm {
namespace {

constexpr int kCounters = 8;

std::string CounterKey(int i) { return "counter-" + std::to_string(i); }

// The exact cross-host increment from rebalance_test.cc: global write lock,
// invalidate + pull, bump, delta push, unlock.
void RegisterIncrement(FaasmCluster& cluster) {
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("inc",
                                  [](InvocationContext& ctx) {
                                    ByteReader reader(ctx.Input());
                                    auto index = reader.Get<uint32_t>();
                                    if (!index.ok()) {
                                      return 1;
                                    }
                                    SharedArray<uint64_t> counter(&ctx.state(),
                                                                  CounterKey(index.value()));
                                    if (!counter.kv().LockGlobalWrite().ok()) {
                                      return 2;
                                    }
                                    counter.kv().InvalidateReplica();
                                    if (!counter.Attach().ok()) {
                                      (void)counter.kv().UnlockGlobalWrite();
                                      return 3;
                                    }
                                    uint64_t* value = counter.WritableElements(0, 1);
                                    if (value == nullptr) {
                                      (void)counter.kv().UnlockGlobalWrite();
                                      return 4;
                                    }
                                    *value += 1;
                                    counter.MarkDirtyElements(0, 1);
                                    const bool pushed = counter.Push().ok();
                                    const bool unlocked =
                                        counter.kv().UnlockGlobalWrite().ok();
                                    return pushed && unlocked ? 0 : 5;
                                  })
                  .ok());
}

uint64_t ReadCounter(FaasmCluster& cluster, int i) {
  auto value = cluster.kvs().Get(CounterKey(i));
  if (!value.ok() || value.value().size() != sizeof(uint64_t)) {
    ADD_FAILURE() << "counter " << i << " unreadable: " << value.status().ToString();
    return 0;
  }
  uint64_t count = 0;
  std::memcpy(&count, value.value().data(), sizeof(count));
  return count;
}

TEST(FailoverTest, NoAcknowledgedIncrementLostAcrossHostKills) {
  // THE acceptance property of the replication substrate: two hosts crash
  // mid-load (no drain — their mailboxes are dropped, their shards never
  // hand anything over) and still every acked increment — and nothing else
  // — is in the final counters.
  ClusterConfig config;
  config.hosts = 5;
  config.replication_factor = 2;  // sync forwarding is the default
  FaasmCluster cluster(config);
  for (int i = 0; i < kCounters; ++i) {
    ASSERT_TRUE(cluster.kvs().Set(CounterKey(i), Bytes(sizeof(uint64_t), 0)).ok());
  }
  // Ballast spreads state over every shard so each crash has something to
  // promote (eight counters alone can all hash away from a victim).
  constexpr int kBallast = 40;
  for (int i = 0; i < kBallast; ++i) {
    ASSERT_TRUE(
        cluster.kvs().Set("ballast-" + std::to_string(i), Bytes(32, uint8_t(i))).ok());
  }
  RegisterIncrement(cluster);

  const uint64_t epoch_before = cluster.shard_map().epoch();
  std::array<uint64_t, kCounters> acked{};
  uint64_t mail_failures = 0;

  cluster.Run([&](Frontend& frontend) {
    for (const std::string victim : {"host-1", "host-3"}) {
      std::vector<std::pair<uint64_t, uint32_t>> batch;
      for (int i = 0; i < 3 * kCounters; ++i) {
        const uint32_t counter = i % kCounters;
        Bytes input;
        ByteWriter writer(input);
        writer.Put<uint32_t>(counter);
        auto id = frontend.Submit("inc", std::move(input));
        ASSERT_TRUE(id.ok());
        batch.emplace_back(id.value(), counter);
      }

      auto stats = cluster.KillHost(victim);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(stats.value().lost_keys, 0u) << "acked state lost in the crash";

      for (const auto& [id, counter] : batch) {
        auto code = frontend.Await(id);
        if (code.ok() && code.value() == 0) {
          acked[counter] += 1;
        } else {
          // A call the victim had accepted but never executed: failed by
          // FailAbandonedMail, surfaced here instead of hanging. It must
          // NOT have incremented.
          mail_failures += 1;
        }
      }
    }
  });

  // Two crashes, two epoch flips, and the cluster kept a live master for
  // every key.
  EXPECT_EQ(cluster.shard_map().epoch(), epoch_before + 2);
  EXPECT_EQ(cluster.shard_map().shard_count(), 3u);
  EXPECT_EQ(cluster.host_count(), 3u);
  EXPECT_EQ(cluster.failover_stats().lost_keys, 0u);
  EXPECT_GT(cluster.failover_stats().promoted_keys, 0u);

  // Every acked increment — and nothing else — survived both crashes, and
  // the ballast came through byte-for-byte.
  for (int i = 0; i < kCounters; ++i) {
    EXPECT_EQ(ReadCounter(cluster, i), acked[i]) << CounterKey(i);
  }
  for (int i = 0; i < kBallast; ++i) {
    auto value = cluster.kvs().Get("ballast-" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(value.value(), Bytes(32, uint8_t(i)));
  }
  // The harness is honest: dropped-mail calls error out rather than ack.
  // (Whether any land in the window is timing-dependent; losing THOSE is
  // allowed — they were never acked.)
  (void)mail_failures;
}

TEST(FailoverTest, WithoutReplicationLostKeysAreCountedNotSilent) {
  ClusterConfig config;
  config.hosts = 3;  // replication_factor stays 1
  FaasmCluster cluster(config);
  ASSERT_EQ(cluster.replication(), nullptr);

  // Seed enough keys that every shard masters a few.
  constexpr int kSeeded = 48;
  for (int i = 0; i < kSeeded; ++i) {
    ASSERT_TRUE(cluster.kvs().Set("seed-" + std::to_string(i), Bytes(64, 9)).ok());
  }

  cluster.Run([&](Frontend&) {
    auto stats = cluster.KillHost("host-1");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats.value().lost_keys, 0u);
    EXPECT_EQ(stats.value().promoted_keys, 0u);

    // Survivor-mastered keys still read; keys the corpse mastered are GONE
    // (NotFound through the survivors), never silently resurrected stale.
    uint64_t live = 0;
    uint64_t lost = 0;
    for (int i = 0; i < kSeeded; ++i) {
      auto value = cluster.kvs().Get("seed-" + std::to_string(i));
      if (value.ok()) {
        EXPECT_EQ(value.value().size(), 64u);
        live += 1;
      } else {
        lost += 1;
      }
    }
    EXPECT_EQ(lost, stats.value().lost_keys);
    EXPECT_EQ(live + lost, kSeeded);
  });
}

TEST(FailoverTest, LockHeldAcrossFailoverStillExcludes) {
  ClusterConfig config;
  config.hosts = 4;
  config.replication_factor = 2;
  FaasmCluster cluster(config);

  // A key mastered by host-2's shard, locked from host-0. The lock state is
  // forwarded to the backup like any other mutation.
  std::string key;
  for (int i = 0; i < 100000 && key.empty(); ++i) {
    std::string probe = "lock-probe-" + std::to_string(i);
    if (cluster.shard_map().MasterFor(probe) == ShardMap::EndpointForHost("host-2")) {
      key = std::move(probe);
    }
  }
  ASSERT_FALSE(key.empty());
  ASSERT_TRUE(cluster.kvs().Set(key, Bytes{1, 2, 3}).ok());

  cluster.Run([&](Frontend&) {
    ASSERT_TRUE(cluster.host(0).kvs().TryLockWrite(key).value());

    // The master CRASHES with the lock held by someone else.
    auto stats = cluster.KillHost("host-2");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_NE(cluster.shard_map().MasterFor(key), ShardMap::EndpointForHost("host-2"));

    // The promoted copy still excludes a second acquirer; the original
    // holder unlocks against the NEW master, then the second gets in. The
    // value survived too.
    EXPECT_FALSE(cluster.host(1).kvs().TryLockWrite(key).value());
    EXPECT_FALSE(cluster.host(1).kvs().TryLockRead(key).value());
    ASSERT_TRUE(cluster.host(0).kvs().UnlockWrite(key).ok());
    EXPECT_TRUE(cluster.host(1).kvs().TryLockWrite(key).value());
    ASSERT_TRUE(cluster.host(1).kvs().UnlockWrite(key).ok());
    EXPECT_EQ(cluster.host(1).kvs().Read(key).value(), (Bytes{1, 2, 3}));
  });
}

TEST(FailoverTest, CachedReadsDoNotGoStaleAcrossPromotion) {
  // Read-cache coherence across a crash: cache entries are keyed
  // (key, epoch), and the failover's epoch flip invalidates them all — a
  // value cached against the dead master's epoch cannot be served after a
  // backup promotes with newer bytes.
  ClusterConfig config;
  config.hosts = 4;
  config.replication_factor = 2;
  config.host.read_cache = true;
  FaasmCluster cluster(config);

  std::string key;
  for (int i = 0; i < 100000 && key.empty(); ++i) {
    std::string probe = "cache-probe-" + std::to_string(i);
    if (cluster.shard_map().MasterFor(probe) == ShardMap::EndpointForHost("host-1")) {
      key = std::move(probe);
    }
  }
  ASSERT_FALSE(key.empty());
  ASSERT_TRUE(cluster.kvs().Set(key, Bytes{1}).ok());

  cluster.Run([&](Frontend&) {
    // host-0 reads and caches the pre-crash value.
    EXPECT_EQ(cluster.host(0).kvs().Read(key).value(), (Bytes{1}));

    ASSERT_TRUE(cluster.KillHost("host-1").ok());
    // The promoted master takes a fresh write the cached entry predates.
    ASSERT_TRUE(cluster.kvs().Set(key, Bytes{2}).ok());

    // Same client, same lease window: the epoch moved, so the cached {1}
    // must NOT be served.
    EXPECT_EQ(cluster.host(0).kvs().Read(key).value(), (Bytes{2}));
  });
}

TEST(FailoverTest, RefusesToKillTheLastHost) {
  ClusterConfig config;
  config.hosts = 1;
  FaasmCluster cluster(config);
  cluster.Run([&](Frontend&) {
    auto stats = cluster.KillHost("host-0");
    EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
    auto missing = cluster.KillHost("host-9");
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  });
  EXPECT_EQ(cluster.host_count(), 1u);
}

TEST(FailoverTest, GracefulChurnKeepsBackupsConverged) {
  // Replication and elastic membership compose: with R=2 on, graceful
  // add/remove churn (migrations + Reconcile) must neither lose acked
  // updates nor leave backups behind — a kill AFTER the churn still
  // recovers everything.
  ClusterConfig config;
  config.hosts = 4;
  config.replication_factor = 2;
  FaasmCluster cluster(config);
  for (int i = 0; i < kCounters; ++i) {
    ASSERT_TRUE(cluster.kvs().Set(CounterKey(i), Bytes(sizeof(uint64_t), 0)).ok());
  }
  RegisterIncrement(cluster);

  std::array<uint64_t, kCounters> acked{};
  cluster.Run([&](Frontend& frontend) {
    const std::vector<std::pair<bool, std::string>> churn = {
        {true, ""},         // + host-4 (graceful)
        {false, "host-1"},  // - graceful removal
    };
    for (const auto& [add, name] : churn) {
      std::vector<std::pair<uint64_t, uint32_t>> batch;
      for (int i = 0; i < 2 * kCounters; ++i) {
        const uint32_t counter = i % kCounters;
        Bytes input;
        ByteWriter writer(input);
        writer.Put<uint32_t>(counter);
        auto id = frontend.Submit("inc", std::move(input));
        ASSERT_TRUE(id.ok());
        batch.emplace_back(id.value(), counter);
      }
      if (add) {
        ASSERT_TRUE(cluster.AddHost().ok());
      } else {
        ASSERT_TRUE(cluster.RemoveHost(name).ok());
      }
      for (const auto& [id, counter] : batch) {
        auto code = frontend.Await(id);
        ASSERT_TRUE(code.ok()) << code.status().ToString();
        ASSERT_EQ(code.value(), 0);
        acked[counter] += 1;
      }
    }

    // The crash after the churn: if Reconcile kept the rotated backup
    // assignments converged, nothing is lost now either.
    auto stats = cluster.KillHost("host-2");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats.value().lost_keys, 0u);
  });

  for (int i = 0; i < kCounters; ++i) {
    EXPECT_EQ(ReadCounter(cluster, i), acked[i]) << CounterKey(i);
  }
  EXPECT_GT(cluster.replication()->stats().catchup_keys.value(), 0u);
}

}  // namespace
}  // namespace faasm
