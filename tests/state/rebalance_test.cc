// Chaos tests for live shard rebalancing (ISSUE 4 acceptance): writer
// functions hammer counters through DDOs while hosts join and leave the
// sharded tier. Every acknowledged increment must be reflected in the final
// counter values — migration may stall ops (kWrongMaster redirects) but must
// never lose or double an update — and a distributed lock held across a
// migration keeps excluding a second acquirer.
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

// Registers "inc": reads a counter index from the input, then performs an
// exact cross-host increment — global write lock, invalidate + pull (the
// lock makes the re-pull see every prior push), increment, delta push,
// unlock. Any failure path returns a distinct nonzero code so a lost ack is
// distinguishable from a refused one.
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

TEST(RebalanceTest, NoAcknowledgedIncrementLostAcrossHostChurn) {
  ClusterConfig config;
  config.hosts = 4;  // sharded tier is the default
  FaasmCluster cluster(config);
  for (int i = 0; i < kCounters; ++i) {
    ASSERT_TRUE(cluster.kvs().Set(CounterKey(i), Bytes(sizeof(uint64_t), 0)).ok());
  }
  RegisterIncrement(cluster);

  const uint64_t epoch_before = cluster.shard_map().epoch();
  std::array<uint64_t, kCounters> acked{};

  cluster.Run([&](Frontend& frontend) {
    // Each round: launch a batch of increments, churn the membership while
    // they are in flight, then await the batch. The schedule removes both
    // original hosts (shards populated since epoch 0) and a freshly added
    // one, wandering between 4 and 5 hosts.
    const std::vector<std::pair<bool, std::string>> churn = {
        {true, ""},          // + host-4
        {false, "host-1"},   // - an original host
        {true, ""},          // + host-5
        {false, "host-4"},   // - a host added under load
        {true, ""},          // + host-6
        {false, "host-0"},   // - another original
    };
    for (const auto& [add, name] : churn) {
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

      if (add) {
        auto added = cluster.AddHost();
        ASSERT_TRUE(added.ok()) << added.status().ToString();
      } else {
        Status removed = cluster.RemoveHost(name);
        ASSERT_TRUE(removed.ok()) << removed.ToString();
      }

      for (const auto& [id, counter] : batch) {
        auto code = frontend.Await(id);
        ASSERT_TRUE(code.ok()) << code.status().ToString();
        ASSERT_EQ(code.value(), 0) << "increment refused mid-churn";
        acked[counter] += 1;
      }
    }
  });

  // Six membership changes happened and keys really moved between shards.
  EXPECT_EQ(cluster.shard_map().epoch(), epoch_before + 6);
  EXPECT_EQ(cluster.shard_map().shard_count(), 4u);  // 4 seed + 3 added - 3 removed
  EXPECT_GT(cluster.migration_stats().keys_moved, 0u);
  EXPECT_GT(cluster.migration_stats().bytes_moved, 0u);
  EXPECT_EQ(cluster.migration_stats().epoch_flips, 6u);

  // THE acceptance property: every acknowledged increment — and nothing
  // else — is in the final values, wherever each key's master ended up.
  for (int i = 0; i < kCounters; ++i) {
    EXPECT_EQ(ReadCounter(cluster, i), acked[i]) << CounterKey(i);
  }
}

// Registers "inc_all": one call increments EVERY counter exactly once
// through the BATCHED push path — global write locks on all counters
// (ordered, so concurrent calls serialise instead of deadlocking), fresh
// pulls, increments, deferred pushes inside one StateBatch scope, then the
// scope's flush barrier (per-op kWrongMaster retry underneath) and the
// unlocks. The call acks only if the barrier and every unlock succeeded.
void RegisterBatchedIncrementAll(FaasmCluster& cluster) {
  ASSERT_TRUE(
      cluster.registry()
          .RegisterNative(
              "inc_all",
              [](InvocationContext& ctx) {
                std::array<std::unique_ptr<SharedArray<uint64_t>>, kCounters> counters;
                for (int i = 0; i < kCounters; ++i) {
                  counters[i] = std::make_unique<SharedArray<uint64_t>>(&ctx.state(),
                                                                       CounterKey(i));
                  if (!counters[i]->kv().LockGlobalWrite().ok()) {
                    for (int j = 0; j < i; ++j) {
                      (void)counters[j]->kv().UnlockGlobalWrite();
                    }
                    return 2;
                  }
                }
                int code = 0;
                // Pull + increment everything BEFORE the batch scope: Pull
                // is itself a flush barrier, so pulls interleaved with the
                // deferred pushes would flush them one by one.
                for (int i = 0; i < kCounters && code == 0; ++i) {
                  counters[i]->kv().InvalidateReplica();
                  if (!counters[i]->Attach().ok()) {
                    code = 3;
                    break;
                  }
                  uint64_t* value = counters[i]->WritableElements(0, 1);
                  if (value == nullptr) {
                    code = 4;
                    break;
                  }
                  *value += 1;
                  counters[i]->MarkDirtyElements(0, 1);
                }
                if (code == 0) {
                  StateBatch batch(ctx.state());
                  for (int i = 0; i < kCounters && code == 0; ++i) {
                    if (!counters[i]->Push().ok()) {  // accepted into the batch
                      code = 5;
                    }
                  }
                  // THE barrier: all eight pushes become durable here, in at
                  // most one RPC per master shard, before any lock releases.
                  if (!batch.Close().ok() && code == 0) {
                    code = 6;
                  }
                }
                for (int i = kCounters - 1; i >= 0; --i) {
                  if (!counters[i]->kv().UnlockGlobalWrite().ok() && code == 0) {
                    code = 7;
                  }
                }
                return code;
              })
          .ok());
}

TEST(RebalanceTest, BatchedCountersSurviveHostChurnWithoutLostAcks) {
  // The PR-4 churn harness rerun through the BATCHED path: counters are
  // hammered via StateBatch-scoped multi-key pushes while six membership
  // changes migrate their masters underneath. A batch racing a migration
  // bounces per op and retries only the bounced ops; every acked call must
  // be reflected exactly once in the final values.
  ClusterConfig config;
  config.hosts = 4;
  FaasmCluster cluster(config);
  for (int i = 0; i < kCounters; ++i) {
    ASSERT_TRUE(cluster.kvs().Set(CounterKey(i), Bytes(sizeof(uint64_t), 0)).ok());
  }
  RegisterBatchedIncrementAll(cluster);

  const uint64_t epoch_before = cluster.shard_map().epoch();
  uint64_t acked_calls = 0;

  cluster.Run([&](Frontend& frontend) {
    const std::vector<std::pair<bool, std::string>> churn = {
        {true, ""},         {false, "host-1"}, {true, ""},
        {false, "host-4"},  {true, ""},        {false, "host-0"},
    };
    for (const auto& [add, name] : churn) {
      std::vector<uint64_t> batch_ids;
      for (int i = 0; i < 4; ++i) {
        auto id = frontend.Submit("inc_all", Bytes{});
        ASSERT_TRUE(id.ok());
        batch_ids.push_back(id.value());
      }

      if (add) {
        auto added = cluster.AddHost();
        ASSERT_TRUE(added.ok()) << added.status().ToString();
      } else {
        Status removed = cluster.RemoveHost(name);
        ASSERT_TRUE(removed.ok()) << removed.ToString();
      }

      for (uint64_t id : batch_ids) {
        auto code = frontend.Await(id);
        ASSERT_TRUE(code.ok()) << code.status().ToString();
        ASSERT_EQ(code.value(), 0) << "batched increment refused mid-churn";
        acked_calls += 1;
      }
    }
  });

  EXPECT_EQ(cluster.shard_map().epoch(), epoch_before + 6);
  EXPECT_GT(cluster.migration_stats().keys_moved, 0u);
  EXPECT_EQ(cluster.migration_stats().epoch_flips, 6u);

  // Every acked call incremented every counter exactly once — nothing lost,
  // nothing doubled, wherever each key's master ended up.
  for (int i = 0; i < kCounters; ++i) {
    EXPECT_EQ(ReadCounter(cluster, i), acked_calls) << CounterKey(i);
  }
}

constexpr int kFrozenKeys = 12;
constexpr size_t kFrozenBytes = 64;

std::string FrozenKey(int i) { return "frozen-" + std::to_string(i); }

// Registers "read_all": drops every local replica, then pulls all frozen
// keys through the GROUPED read path (one kGetBatch per master endpoint,
// per-op kWrongMaster retry underneath) and byte-checks each value against
// its seeded pattern. Distinct nonzero codes separate a refused prefetch
// from a stale or torn read.
void RegisterBatchedReadAll(FaasmCluster& cluster) {
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("read_all",
                                  [](InvocationContext& ctx) {
                                    std::vector<std::string> keys;
                                    for (int i = 0; i < kFrozenKeys; ++i) {
                                      keys.push_back(FrozenKey(i));
                                      ctx.state().Lookup(keys.back())->InvalidateReplica();
                                    }
                                    if (!ctx.state().Prefetch(keys).ok()) {
                                      return 2;
                                    }
                                    for (int i = 0; i < kFrozenKeys; ++i) {
                                      auto kv = ctx.state().Lookup(keys[i]);
                                      if (kv->Pull().ok() == false || kv->size() != kFrozenBytes) {
                                        return 3;
                                      }
                                      const uint8_t* bytes = kv->data();
                                      for (size_t b = 0; b < kFrozenBytes; ++b) {
                                        if (bytes[b] != uint8_t(i + 1)) {
                                          return 4;  // stale or torn read
                                        }
                                      }
                                    }
                                    return 0;
                                  })
                  .ok());
}

TEST(RebalanceTest, BatchedReadsSurviveHostChurnWithoutBadReads) {
  // The read-side churn harness: immutable values are prefetched via
  // kGetBatch groups while six membership changes migrate their masters
  // underneath. A grouped read racing a migration bounces per op and
  // retries against the new route; every acked call must have observed
  // every key's exact seeded bytes — zero stale or torn reads.
  ClusterConfig config;
  config.hosts = 4;
  FaasmCluster cluster(config);
  for (int i = 0; i < kFrozenKeys; ++i) {
    ASSERT_TRUE(cluster.kvs().Set(FrozenKey(i), Bytes(kFrozenBytes, uint8_t(i + 1))).ok());
  }
  RegisterBatchedReadAll(cluster);

  const uint64_t epoch_before = cluster.shard_map().epoch();
  uint64_t acked_calls = 0;

  cluster.Run([&](Frontend& frontend) {
    const std::vector<std::pair<bool, std::string>> churn = {
        {true, ""},         {false, "host-1"}, {true, ""},
        {false, "host-4"},  {true, ""},        {false, "host-0"},
    };
    for (const auto& [add, name] : churn) {
      std::vector<uint64_t> batch_ids;
      for (int i = 0; i < 4; ++i) {
        auto id = frontend.Submit("read_all", Bytes{});
        ASSERT_TRUE(id.ok());
        batch_ids.push_back(id.value());
      }

      if (add) {
        auto added = cluster.AddHost();
        ASSERT_TRUE(added.ok()) << added.status().ToString();
      } else {
        Status removed = cluster.RemoveHost(name);
        ASSERT_TRUE(removed.ok()) << removed.ToString();
      }

      for (uint64_t id : batch_ids) {
        auto code = frontend.Await(id);
        ASSERT_TRUE(code.ok()) << code.status().ToString();
        ASSERT_EQ(code.value(), 0) << "batched read failed mid-churn";
        acked_calls += 1;
      }
    }
  });

  EXPECT_EQ(cluster.shard_map().epoch(), epoch_before + 6);
  EXPECT_GT(cluster.migration_stats().keys_moved, 0u);
  EXPECT_EQ(acked_calls, 24u);
}

TEST(RebalanceTest, ReplicaServedReadsSurviveChurnAndCrashesWithoutBadReads) {
  // The replica-read chaos harness: the same byte-checked read_all workload,
  // but with R=2 co-located replica serving ON (the default) while six
  // membership changes churn the ring and two hosts crash with NO oracle —
  // only the heartbeat detector notices. Acceptance: zero stale reads, zero
  // torn reads (code 4 never comes back, even from calls racing a crash),
  // the replica tier demonstrably served (its serves are what the churn is
  // trying to poison), and no read was ever served by a fenced mirror.
  ClusterConfig config;
  config.hosts = 5;
  config.replication_factor = 2;
  config.failure_detection = true;
  ASSERT_TRUE(config.replica_reads);  // the three-tier path is the default
  FaasmCluster cluster(config);
  for (int i = 0; i < kFrozenKeys; ++i) {
    ASSERT_TRUE(cluster.kvs().Set(FrozenKey(i), Bytes(kFrozenBytes, uint8_t(i + 1))).ok());
  }
  RegisterBatchedReadAll(cluster);

  uint64_t clean_calls = 0;    // code 0
  uint64_t refused_calls = 0;  // codes 2/3 or mail failure, crash rounds only
  uint64_t fenced_mirror_serves = 0;
  uint64_t deaths_confirmed = 0;

  cluster.Run([&](Frontend& frontend) {
    // '+' add, '-<name>' remove, '!<name>' crash (detector-confirmed).
    const std::vector<std::string> schedule = {
        "+", "!host-1", "-host-2", "+", "!host-5", "+", "-host-0", "+",
    };
    for (const std::string& step : schedule) {
      const bool crash_round = step[0] == '!';
      std::vector<uint64_t> batch_ids;
      for (int i = 0; i < 3; ++i) {
        auto id = frontend.Submit("read_all", Bytes{});
        ASSERT_TRUE(id.ok());
        batch_ids.push_back(id.value());
      }

      if (step == "+") {
        auto added = cluster.AddHost();
        ASSERT_TRUE(added.ok()) << added.status().ToString();
      } else if (crash_round) {
        const std::string victim = step.substr(1);
        const TimeNs crashed_at = cluster.clock().Now();
        ASSERT_TRUE(cluster.CrashHost(victim).ok());  // no oracle after this
        const FailureDetector* detector = cluster.failure_detector();
        ASSERT_NE(detector, nullptr);
        deaths_confirmed += 1;
        ASSERT_TRUE(cluster.clock().WaitFor(
            [&] { return detector->death_count() >= deaths_confirmed; },
            100 * kMicrosecond, crashed_at + 2 * kSecond))
            << "detector never confirmed the crash of " << victim;
        // The corpse's mirror is fenced by recovery; from here on its serve
        // counter must not move (a fenced ReadValue bounces WITHOUT
        // counting, so any tick would be a serve that escaped the fence).
        const ReplicaShard* mirror = cluster.replication()->ReplicaForHost(victim);
        ASSERT_NE(mirror, nullptr);
        EXPECT_TRUE(mirror->fenced());
        fenced_mirror_serves += mirror->replica_read_count();
      } else {
        Status removed = cluster.RemoveHost(step.substr(1));
        ASSERT_TRUE(removed.ok()) << removed.ToString();
      }

      for (uint64_t id : batch_ids) {
        auto code = frontend.Await(id);
        if (code.ok() && code.value() == 0) {
          clean_calls += 1;
          continue;
        }
        // A call racing a crash may be refused (dead master, recovery in
        // flight) or lost with the host running it — but it must NEVER
        // return bad bytes: code 4 is a stale or torn read, the one
        // outcome the replica tier is not allowed to produce.
        ASSERT_TRUE(crash_round) << "read refused outside a crash round: "
                                 << (code.ok() ? std::to_string(code.value())
                                               : code.status().ToString());
        if (code.ok()) {
          ASSERT_NE(code.value(), 4) << "stale or torn read mid-crash";
        }
        refused_calls += 1;
      }
    }

    // The replica tier actually served under churn: sum the per-client
    // counters across the hosts still alive.
    uint64_t replica_serves = 0;
    for (size_t i = 0; i < cluster.host_count(); ++i) {
      replica_serves += cluster.host(i).kvs().replica_served_count();
    }
    EXPECT_GT(replica_serves, 0u) << "churn suite never exercised the replica tier";

    // The fenced mirrors stayed silent for the rest of the run.
    uint64_t fenced_now = 0;
    for (const std::string& victim : {std::string("host-1"), std::string("host-5")}) {
      const ReplicaShard* mirror = cluster.replication()->ReplicaForHost(victim);
      ASSERT_NE(mirror, nullptr);
      EXPECT_TRUE(mirror->fenced());
      fenced_now += mirror->replica_read_count();
    }
    EXPECT_EQ(fenced_now, fenced_mirror_serves) << "a fenced mirror served a read";
  });

  // Every call resolved; most ran clean. Refusals are bounded by the calls
  // in flight across the two crash rounds.
  EXPECT_EQ(clean_calls + refused_calls, 24u);
  EXPECT_LE(refused_calls, 6u);
  EXPECT_GT(cluster.migration_stats().keys_moved, 0u);
  EXPECT_EQ(cluster.failover_stats().lost_keys, 0u);

  // The frozen values themselves are intact after all eight disruptions.
  for (int i = 0; i < kFrozenKeys; ++i) {
    auto value = cluster.kvs().Get(FrozenKey(i));
    ASSERT_TRUE(value.ok()) << FrozenKey(i) << ": " << value.status().ToString();
    EXPECT_EQ(value.value(), Bytes(kFrozenBytes, uint8_t(i + 1)));
  }
}

TEST(RebalanceTest, LockHeldAcrossMigrationStillExcludes) {
  ClusterConfig config;
  config.hosts = 4;
  FaasmCluster cluster(config);

  // Pick a key that WILL move to the next host added ("host-4"): the
  // prospective assignment is a pure function of the endpoint set.
  const auto before = cluster.shard_map().Snapshot();
  const ShardAssignment after = before->With(ShardMap::EndpointForHost("host-4"));
  std::string key;
  for (int i = 0; i < 100000 && key.empty(); ++i) {
    std::string probe = "lock-probe-" + std::to_string(i);
    if (before->MasterFor(probe) != after.MasterFor(probe)) {
      key = std::move(probe);
    }
  }
  ASSERT_FALSE(key.empty());
  ASSERT_TRUE(cluster.kvs().Set(key, Bytes{1, 2, 3}).ok());

  cluster.Run([&](Frontend&) {
    // host-0 takes the global write lock, the key migrates to the new
    // host's shard, and the lock must keep excluding host-1 afterwards.
    ASSERT_TRUE(cluster.host(0).kvs().TryLockWrite(key).value());

    auto added = cluster.AddHost();
    ASSERT_TRUE(added.ok());
    EXPECT_EQ(cluster.shard_map().MasterFor(key), ShardMap::EndpointForHost(added.value()));

    EXPECT_FALSE(cluster.host(1).kvs().TryLockWrite(key).value());
    EXPECT_FALSE(cluster.host(1).kvs().TryLockRead(key).value());
    // Ownership travelled with the key: the original holder unlocks against
    // the NEW master, then the second acquirer gets in.
    ASSERT_TRUE(cluster.host(0).kvs().UnlockWrite(key).ok());
    EXPECT_TRUE(cluster.host(1).kvs().TryLockWrite(key).value());
    ASSERT_TRUE(cluster.host(1).kvs().UnlockWrite(key).ok());

    // The value itself survived the move.
    EXPECT_EQ(cluster.host(2).kvs().Read(key).value(), (Bytes{1, 2, 3}));
  });
}

TEST(RebalanceTest, RemovedHostsShardEndsEmpty) {
  // After a removal every key the leaver mastered is readable through the
  // survivors — the leaver's shard keeps no data, and its live-map
  // ownership guard bounces any straggler op.
  ClusterConfig config;
  config.hosts = 3;
  FaasmCluster cluster(config);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(cluster.kvs().Set("seed-" + std::to_string(i), Bytes(128, 1)).ok());
  }
  cluster.Run([&](Frontend&) {
    ASSERT_TRUE(cluster.RemoveHost("host-2").ok());
    for (int i = 0; i < 32; ++i) {
      auto value = cluster.kvs().Get("seed-" + std::to_string(i));
      ASSERT_TRUE(value.ok()) << "seed-" << i << ": " << value.status().ToString();
      EXPECT_EQ(value.value().size(), 128u);
      EXPECT_NE(cluster.shard_map().MasterFor("seed-" + std::to_string(i)),
                ShardMap::EndpointForHost("host-2"));
    }
  });
  EXPECT_EQ(cluster.migration_stats().epoch_flips, 1u);
}

}  // namespace
}  // namespace faasm
