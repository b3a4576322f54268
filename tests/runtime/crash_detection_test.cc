// Cluster-level failure detection (ISSUE 9 acceptance): CrashHost pulls the
// plug and NOTHING tells the cluster — the heartbeat detector has to notice
// the silence, corroborate with a probe, and drive the same fence → quiesce
// → Failover → Reconcile recovery the KillHost oracle uses. Covers the
// detection-latency bound, the no-false-positive flap case (a slow host is
// suspected, probed, and cleared — never failed over), and the double-crash
// during in-flight recovery that exercises the deferred-promotion path in
// replication.cc.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "kvs/replication.h"
#include "runtime/cluster.h"
#include "state/ddo.h"

namespace faasm {
namespace {

constexpr int kCounters = 8;

std::string CounterKey(int i) { return "counter-" + std::to_string(i); }

// The cross-host increment from failover_test.cc: global write lock,
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

void SeedCountersAndBallast(FaasmCluster& cluster, int ballast) {
  for (int i = 0; i < kCounters; ++i) {
    ASSERT_TRUE(cluster.kvs().Set(CounterKey(i), Bytes(sizeof(uint64_t), 0)).ok());
  }
  for (int i = 0; i < ballast; ++i) {
    ASSERT_TRUE(
        cluster.kvs().Set("ballast-" + std::to_string(i), Bytes(32, uint8_t(i))).ok());
  }
}

// No live shard may route at a corpse: not as a master (the map) and not as
// a replication target (BackupsFor over the live endpoint set).
void ExpectNoDeadEndpoints(FaasmCluster& cluster, const std::set<std::string>& dead_endpoints,
                           int replication_factor) {
  const std::vector<std::string> shards = cluster.shard_map().shards();
  const std::set<std::string> live(shards.begin(), shards.end());
  for (const std::string& dead : dead_endpoints) {
    EXPECT_EQ(live.count(dead), 0u) << dead << " still in the shard map";
  }
  for (const std::string& shard : shards) {
    for (const std::string& backup : BackupsFor(live, shard, replication_factor)) {
      EXPECT_EQ(dead_endpoints.count(backup), 0u)
          << shard << " lists dead backup " << backup;
    }
  }
}

TEST(CrashDetectionTest, DetectorConfirmsCrashAndClusterSelfHeals) {
  ClusterConfig config;
  config.hosts = 4;
  config.replication_factor = 2;
  config.failure_detection = true;
  FaasmCluster cluster(config);
  SeedCountersAndBallast(cluster, 40);
  RegisterIncrement(cluster);

  const std::string dead_endpoint = ShardMap::EndpointForHost("host-1");
  const uint64_t epoch_before = cluster.shard_map().epoch();
  std::array<uint64_t, kCounters> acked{};
  uint64_t mail_failures = 0;

  cluster.Run([&](Frontend& frontend) {
    // Load in flight when the plug is pulled.
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

    const TimeNs crashed_at = cluster.clock().Now();
    ASSERT_TRUE(cluster.CrashHost("host-1").ok());  // no oracle after this

    const FailureDetector* detector = cluster.failure_detector();
    ASSERT_NE(detector, nullptr);
    ASSERT_TRUE(cluster.clock().WaitFor([&] { return detector->death_count() >= 1; },
                                        100 * kMicrosecond, crashed_at + kSecond))
        << "detector never confirmed the crash";

    // Detection latency bound (the fig10 --detect gate, asserted here too):
    // suspicion timeout + one heartbeat interval covers the last-beat-to-
    // silence gap plus the sweep that probes.
    const std::vector<DeathRecord> deaths = detector->deaths();
    ASSERT_EQ(deaths.size(), 1u);
    EXPECT_EQ(deaths[0].host, "host-1");
    EXPECT_LE(deaths[0].confirmed_at_ns - crashed_at, kSuspicionTimeoutNs + kHeartbeatIntervalNs);
    EXPECT_EQ(detector->HealthOf("host-1"), HostHealth::kDead);

    // In-flight calls resolve: acked or failed, never hung.
    for (const auto& [id, counter] : batch) {
      auto code = frontend.Await(id);
      if (code.ok() && code.value() == 0) {
        acked[counter] += 1;
      } else {
        mail_failures += 1;
      }
    }
  });

  // Recovery ran to completion before death_count() ticked: epoch flipped,
  // corpse out of routing AND out of every backup set, its mirror fenced.
  EXPECT_EQ(cluster.shard_map().epoch(), epoch_before + 1);
  EXPECT_EQ(cluster.shard_map().shard_count(), 3u);
  ExpectNoDeadEndpoints(cluster, {dead_endpoint}, config.replication_factor);
  ASSERT_NE(cluster.replication(), nullptr);
  const ReplicaShard* mirror = cluster.replication()->ReplicaForHost("host-1");
  ASSERT_NE(mirror, nullptr);
  EXPECT_TRUE(mirror->fenced()) << "dead host's rep: mirror accepts forwards";

  // The replicated substrate held: every acked increment survived.
  EXPECT_EQ(cluster.failover_stats().lost_keys, 0u);
  EXPECT_GT(cluster.failover_stats().promoted_keys, 0u);
  for (int i = 0; i < kCounters; ++i) {
    EXPECT_EQ(ReadCounter(cluster, i), acked[i]) << CounterKey(i);
  }
  (void)mail_failures;  // timing-dependent; un-acked failures are allowed
}

TEST(CrashDetectionTest, SlowHostFlapIsClearedNeverFailedOver) {
  // The flap test the ISSUE gates on: a host whose heartbeats stall but
  // which still answers RPCs must be suspected, probed, CLEARED — and never
  // promoted away from. A timeout-only detector would have split the brain.
  ClusterConfig config;
  config.hosts = 3;
  config.replication_factor = 2;
  config.failure_detection = true;
  FaasmCluster cluster(config);
  SeedCountersAndBallast(cluster, 0);
  RegisterIncrement(cluster);

  const uint64_t epoch_before = cluster.shard_map().epoch();
  std::array<uint64_t, kCounters> acked{};

  cluster.Run([&](Frontend& frontend) {
    FaasmInstance* slow = nullptr;
    for (size_t i = 0; i < cluster.host_count(); ++i) {
      if (cluster.host(i).name() == "host-2") {
        slow = &cluster.host(i);
      }
    }
    ASSERT_NE(slow, nullptr);
    slow->set_heartbeats_suppressed(true);  // stalls the publisher, NOT the host

    // Keep load flowing while the detector grows suspicious.
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

    const FailureDetector* detector = cluster.failure_detector();
    ASSERT_NE(detector, nullptr);
    ASSERT_TRUE(cluster.clock().WaitFor(
        [&] { return detector->false_suspicions() >= 1; }, 100 * kMicrosecond,
        cluster.clock().Now() + kSecond))
        << "the silent host was never suspected";

    // Suspected — and the probe cleared it. No death, no failover.
    EXPECT_GE(detector->suspicions(), 1u);
    EXPECT_EQ(detector->death_count(), 0u);
    EXPECT_EQ(detector->HealthOf("host-2"), HostHealth::kAlive);

    for (const auto& [id, counter] : batch) {
      auto code = frontend.Await(id);
      ASSERT_TRUE(code.ok());
      EXPECT_EQ(code.value(), 0);
      acked[counter] += 1;
    }

    // Heartbeats resume; give the detector several windows to prove the
    // flap left no residue.
    slow->set_heartbeats_suppressed(false);
    cluster.clock().SleepFor(4 * kSuspicionTimeoutNs);
    EXPECT_EQ(detector->death_count(), 0u);
    EXPECT_EQ(detector->HealthOf("host-2"), HostHealth::kAlive);
  });

  // No failover ran: same epoch, all three shards still routed, nothing
  // promoted, and every acked increment is exactly where it was written.
  EXPECT_EQ(cluster.shard_map().epoch(), epoch_before);
  EXPECT_EQ(cluster.shard_map().shard_count(), 3u);
  EXPECT_EQ(cluster.host_count(), 3u);
  EXPECT_EQ(cluster.failover_stats().promoted_keys, 0u);
  for (int i = 0; i < kCounters; ++i) {
    EXPECT_EQ(ReadCounter(cluster, i), acked[i]) << CounterKey(i);
  }
}

TEST(CrashDetectionTest, DoubleCrashDuringRecoveryLosesNoAckedState) {
  // Two hosts die back-to-back, so the first Failover re-masters keys onto a
  // shard that is ALSO dead — just not confirmed yet. The replication layer
  // must park those promotions (deferred, not lost) and the second recovery
  // must land them on a live host; the Reconcile GC must not collect the
  // last surviving copies in between.
  ClusterConfig config;
  config.hosts = 5;
  config.replication_factor = 2;
  config.failure_detection = true;
  FaasmCluster cluster(config);
  SeedCountersAndBallast(cluster, 40);
  RegisterIncrement(cluster);

  std::array<uint64_t, kCounters> acked{};
  uint64_t mail_failures = 0;

  cluster.Run([&](Frontend& frontend) {
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

    const TimeNs crashed_at = cluster.clock().Now();
    ASSERT_TRUE(cluster.CrashHost("host-1").ok());
    ASSERT_TRUE(cluster.CrashHost("host-3").ok());  // before anyone noticed #1

    const FailureDetector* detector = cluster.failure_detector();
    ASSERT_NE(detector, nullptr);
    ASSERT_TRUE(cluster.clock().WaitFor([&] { return detector->death_count() >= 2; },
                                        100 * kMicrosecond, crashed_at + 2 * kSecond))
        << "detector confirmed " << detector->death_count() << " of 2 crashes";

    for (const auto& [id, counter] : batch) {
      auto code = frontend.Await(id);
      if (code.ok() && code.value() == 0) {
        acked[counter] += 1;
      } else {
        mail_failures += 1;
      }
    }
  });

  // Both recoveries converged: three live hosts, no corpse routed anywhere.
  EXPECT_EQ(cluster.shard_map().shard_count(), 3u);
  EXPECT_EQ(cluster.host_count(), 3u);
  ExpectNoDeadEndpoints(
      cluster,
      {ShardMap::EndpointForHost("host-1"), ShardMap::EndpointForHost("host-3")},
      config.replication_factor);

  // THE acceptance bit: nothing acked was lost, even for keys whose
  // promotion target was the second corpse.
  EXPECT_EQ(cluster.failover_stats().lost_keys, 0u);
  EXPECT_GT(cluster.failover_stats().promoted_keys, 0u);
  for (int i = 0; i < kCounters; ++i) {
    EXPECT_EQ(ReadCounter(cluster, i), acked[i]) << CounterKey(i);
  }
  for (int i = 0; i < 40; ++i) {
    auto value = cluster.kvs().Get("ballast-" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << "ballast-" << i << ": " << value.status().ToString();
    EXPECT_EQ(value.value(), Bytes(32, uint8_t(i)));
  }
  (void)mail_failures;
}

}  // namespace
}  // namespace faasm
