// Unit tests for the replication substrate (kvs/replication.h): backup
// placement, sync forwarding through the update hook, the per-key seq-floor
// duplicate filter (the double-Append hazard), forward RPC accounting
// against the new write_rpc_count() twin, and Reconcile catch-up / GC.
#include "kvs/replication.h"

#include <gtest/gtest.h>

#include "kvs/batch_codec.h"
#include "kvs/kvs_client.h"
#include "net/network.h"

namespace faasm {
namespace {

// --- BackupsFor ----------------------------------------------------------------

std::set<std::string> Endpoints(int n) {
  std::set<std::string> endpoints;
  for (int i = 0; i < n; ++i) {
    endpoints.insert(ShardMap::EndpointForHost("host-" + std::to_string(i)));
  }
  return endpoints;
}

TEST(BackupsForTest, NextClockwiseDistinctExcludingPrimary) {
  const auto endpoints = Endpoints(4);  // kvs:host-0 .. kvs:host-3 (sorted)
  EXPECT_EQ(BackupsFor(endpoints, "kvs:host-0", 3),
            (std::vector<std::string>{"kvs:host-1", "kvs:host-2"}));
  EXPECT_EQ(BackupsFor(endpoints, "kvs:host-1", 2),
            (std::vector<std::string>{"kvs:host-2"}));
}

TEST(BackupsForTest, WrapsAroundTheSortedOrder) {
  const auto endpoints = Endpoints(3);
  EXPECT_EQ(BackupsFor(endpoints, "kvs:host-2", 3),
            (std::vector<std::string>{"kvs:host-0", "kvs:host-1"}));
}

TEST(BackupsForTest, FactorClampedToAvailableHosts) {
  const auto endpoints = Endpoints(2);
  // Asking for 5 copies of a 2-host cluster yields the one possible backup.
  EXPECT_EQ(BackupsFor(endpoints, "kvs:host-0", 5),
            (std::vector<std::string>{"kvs:host-1"}));
}

TEST(BackupsForTest, FactorOneMeansNoBackups) {
  EXPECT_TRUE(BackupsFor(Endpoints(4), "kvs:host-0", 1).empty());
}

TEST(BackupsForTest, PrimaryAbsentFromTheSetStillResolves) {
  // Mid-failover lookups resolve backups for a shard the map has already
  // dropped: the walk starts from where the primary WOULD sort.
  auto endpoints = Endpoints(4);
  endpoints.erase("kvs:host-1");
  EXPECT_EQ(BackupsFor(endpoints, "kvs:host-1", 2),
            (std::vector<std::string>{"kvs:host-2"}));
}

TEST(BackupsForTest, EveryHostComputesTheSamePlacement) {
  // Pure function of (endpoint set, primary, factor): recomputing is
  // coordination-free, like mastership itself.
  const auto endpoints = Endpoints(5);
  for (const std::string& primary : endpoints) {
    const auto once = BackupsFor(endpoints, primary, 3);
    EXPECT_EQ(once, BackupsFor(endpoints, primary, 3));
    EXPECT_EQ(once.size(), 2u);
    for (const std::string& backup : once) {
      EXPECT_NE(backup, primary);
      EXPECT_TRUE(endpoints.count(backup) > 0);
    }
  }
}

// --- The substrate -------------------------------------------------------------

constexpr int kHosts = 3;

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest() : network_(&clock_, NoLatency()) {
    for (int i = 0; i < kHosts; ++i) {
      const std::string name = "host-" + std::to_string(i);
      const std::string endpoint = ShardMap::EndpointForHost(name);
      stores_[endpoint] = &shards_[i];
      shards_[i].SetOwnershipGuard(map_.MastersAt(endpoint));
      servers_.push_back(std::make_unique<KvsServer>(&shards_[i], &network_, endpoint));
      map_.AddShard(endpoint);
    }
  }

  void Attach(ReplicationManager& manager) {
    for (int i = 0; i < kHosts; ++i) {
      manager.AttachHost("host-" + std::to_string(i),
                         stores_[ShardMap::EndpointForHost("host-" + std::to_string(i))]);
    }
  }

  // The routing map at replication factor `factor` (the manager reads it).
  ShardMap* Replicated(int factor) {
    map_.set_replication_factor(factor);
    return &map_;
  }

  // A key mastered by `host`'s shard under the current map.
  std::string KeyMasteredBy(const std::string& host, const std::string& prefix = "probe-") {
    const std::string endpoint = ShardMap::EndpointForHost(host);
    for (int i = 0; i < 100000; ++i) {
      std::string probe = prefix + std::to_string(i);
      if (map_.MasterFor(probe) == endpoint) {
        return probe;
      }
    }
    ADD_FAILURE() << "no key mastered by " << host;
    return "";
  }

  KvStore* StoreOf(const std::string& host) {
    return stores_[ShardMap::EndpointForHost(host)];
  }

  static NetworkConfig NoLatency() {
    NetworkConfig config;
    config.charge_latency = false;
    return config;
  }

  RealClock clock_;
  InProcNetwork network_;
  KvStore shards_[kHosts];
  std::map<std::string, KvStore*> stores_;
  std::vector<std::unique_ptr<KvsServer>> servers_;
  ShardMap map_;
};

TEST_F(ReplicationTest, SyncForwardPutsTheWriteOnEveryBackup) {
  ReplicationManager manager(&network_, Replicated(3), &stores_);
  Attach(manager);

  const std::string key = KeyMasteredBy("host-0");
  ASSERT_TRUE(StoreOf("host-0")->Set(key, Bytes{1, 2, 3}).ok());

  // R=3 over 3 hosts: both other hosts back the key up, synchronously.
  const auto backups =
      BackupsFor(map_.Snapshot()->endpoints(), ShardMap::EndpointForHost("host-0"), 3);
  ASSERT_EQ(backups.size(), 2u);
  for (const std::string& backup : backups) {
    ReplicaShard* replica = manager.ReplicaForHost(ShardMap::HostForEndpoint(backup));
    ASSERT_NE(replica, nullptr);
    EXPECT_EQ(replica->store()->Get(key).value(), (Bytes{1, 2, 3}));
  }
  EXPECT_EQ(manager.stats().forwarded_ops.value(), 2u);  // one op, two backups
  EXPECT_EQ(manager.stats().forward_rpcs.value(), 2u);
  EXPECT_EQ(manager.stats().dropped_forward_ops.value(), 0u);
}

TEST_F(ReplicationTest, LockAndSetOpsForwardTooAndDialectsDifferOnlyBySeq) {
  ReplicationManager manager(&network_, Replicated(2), &stores_);
  Attach(manager);

  const std::string key = KeyMasteredBy("host-0");
  const std::string set_key = KeyMasteredBy("host-0", "set-");
  ASSERT_TRUE(StoreOf("host-0")->TryLockWrite(key, "host-9").value());
  ASSERT_TRUE(StoreOf("host-0")->SetAdd(set_key, "member-a").value());

  const auto backups =
      BackupsFor(map_.Snapshot()->endpoints(), ShardMap::EndpointForHost("host-0"), 2);
  ASSERT_EQ(backups.size(), 1u);
  ReplicaShard* replica = manager.ReplicaForHost(ShardMap::HostForEndpoint(backups[0]));
  ASSERT_NE(replica, nullptr);
  // Lock ownership is backup state: a promoted replica must keep excluding.
  EXPECT_FALSE(replica->store()->TryLockRead(key, "host-8").value());
  EXPECT_EQ(replica->store()->SetMembers(set_key),
            (std::vector<std::string>{"member-a"}));

  // One op set on both channels: a lock op encodes in the public dialect
  // too (a single-key TryLockWrite is a one-op batch), and the replica
  // dialect adds exactly the u64 apply sequence.
  KvsBatchOp op;
  op.op = KvsOp::kLockWrite;
  op.key = key;
  op.member = "host-8";
  Bytes encoded = EncodeBatchOp(op);
  auto decoded = DecodeBatchOp(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().op, KvsOp::kLockWrite);
  EXPECT_EQ(decoded.value().key, key);
  EXPECT_EQ(decoded.value().member, "host-8");
  EXPECT_EQ(decoded.value().seq, 0u);
  EXPECT_EQ(EncodeReplicaOp(op, 42).size(), encoded.size() + sizeof(uint64_t));
  auto forwarded = DecodeReplicaOp(EncodeReplicaOp(op, 42));
  ASSERT_TRUE(forwarded.ok());
  EXPECT_EQ(forwarded.value().member, "host-8");
  EXPECT_EQ(forwarded.value().seq, 42u);
}

TEST_F(ReplicationTest, SeqFloorDropsDuplicateAndStaleForwards) {
  ReplicaShard replica;
  KvsBatchOp append;
  append.op = KvsOp::kAppend;
  append.key = "log";
  append.bytes = Bytes{1, 2};

  std::vector<KvsBatchOp> ops;
  ops.push_back(append);
  ops.back().seq = 7;
  ASSERT_TRUE(replica.ApplyForwarded({&ops[0]})[0].status.ok());
  EXPECT_EQ(replica.store()->Get("log").value(), (Bytes{1, 2}));

  // The same forward resent (seq 7 again): dropped, NOT double-appended —
  // the hazard the floor exists for — and still answered Ok.
  EXPECT_TRUE(replica.ApplyForwarded({&ops[0]})[0].status.ok());
  EXPECT_EQ(replica.store()->Get("log").value(), (Bytes{1, 2}));
  EXPECT_EQ(replica.skipped_op_count(), 1u);

  // A STALE forward (seq 5 < floor 7) is dropped too; a fresh one applies.
  ops.back().seq = 5;
  EXPECT_TRUE(replica.ApplyForwarded({&ops[0]})[0].status.ok());
  ops.back().seq = 8;
  EXPECT_TRUE(replica.ApplyForwarded({&ops[0]})[0].status.ok());
  EXPECT_EQ(replica.store()->Get("log").value(), (Bytes{1, 2, 1, 2}));
  EXPECT_EQ(replica.skipped_op_count(), 2u);
}

TEST_F(ReplicationTest, InstallAnchorsTheFloorAcrossTheSnapshotSeq) {
  ReplicaShard replica;
  KvStore primary;
  ASSERT_TRUE(primary.Set("key", Bytes{9}).ok());
  const KeyExport record = primary.ExportKey("key");

  replica.Install("key", record, /*only_if_newer=*/false, /*epoch=*/0);
  EXPECT_EQ(replica.store()->Get("key").value(), (Bytes{9}));

  // A forward the snapshot already folded in (seq <= snapshot seq) is a
  // duplicate; the next one is fresh.
  KvsBatchOp op;
  op.op = KvsOp::kAppend;
  op.key = "key";
  op.bytes = Bytes{5};
  op.seq = record.seq;
  std::vector<KvsBatchOp> ops{op};
  EXPECT_TRUE(replica.ApplyForwarded({&ops[0]})[0].status.ok());
  EXPECT_EQ(replica.store()->Get("key").value(), (Bytes{9}));  // dropped
  ops[0].seq = record.seq + 1;
  EXPECT_TRUE(replica.ApplyForwarded({&ops[0]})[0].status.ok());
  EXPECT_EQ(replica.store()->Get("key").value(), (Bytes{9, 5}));
}

TEST_F(ReplicationTest, OnlyIfNewerInstallNeverRegressesPastAForward) {
  // The in-process mirror path: a stale snapshot racing a newer forward
  // must not roll the replica back.
  ReplicaShard replica;
  KvStore primary;
  ASSERT_TRUE(primary.Set("key", Bytes{1}).ok());
  const KeyExport stale = primary.ExportKey("key");

  KvsBatchOp op;
  op.op = KvsOp::kSet;
  op.key = "key";
  op.bytes = Bytes{2};
  op.seq = stale.seq + 3;
  ASSERT_TRUE(replica.ApplyForwarded({&op})[0].status.ok());

  replica.Install("key", stale, /*only_if_newer=*/true, /*epoch=*/0);
  EXPECT_EQ(replica.store()->Get("key").value(), (Bytes{2}));  // kept the forward

  // A FORCED install (catch-up/failover) re-anchors even downward: it is a
  // fresh seq space.
  replica.Install("key", stale, /*only_if_newer=*/false, /*epoch=*/0);
  EXPECT_EQ(replica.store()->Get("key").value(), (Bytes{1}));
}

TEST_F(ReplicationTest, ForwardRpcAccountingMatchesWriteRpcTwin) {
  ReplicationManager manager(&network_, Replicated(2), &stores_);
  Attach(manager);

  const std::string key = KeyMasteredBy("host-1");
  KvsClient client(&network_, "client", &map_, nullptr);
  ASSERT_TRUE(client.Set(key, Bytes{4}).ok());
  ASSERT_TRUE(client.Set(key, Bytes{5}).ok());

  // Two mutating RPCs at the primary's KvsServer (the new write-side
  // counter), each forwarded once (R=2): the replica channel answered
  // exactly as many forward RPCs, and no reads were miscounted.
  KvsServer* primary = nullptr;
  for (auto& server : servers_) {
    if (server->endpoint() == ShardMap::EndpointForHost("host-1")) {
      primary = server.get();
    }
  }
  ASSERT_NE(primary, nullptr);
  EXPECT_EQ(primary->write_rpc_count(), 2u);
  EXPECT_EQ(primary->read_rpc_count(), 0u);
  EXPECT_EQ(manager.stats().forward_rpcs.value(), 2u);
  EXPECT_EQ(manager.stats().forwarded_ops.value(), 2u);
}

TEST_F(ReplicationTest, ReconcileCatchesUpABackupThatMissedForwards) {
  // Writes land BEFORE the substrate attaches (no hook, no backups) — the
  // stand-in for any divergence window. Reconcile streams the missing keys.
  const std::string key = KeyMasteredBy("host-2");
  ASSERT_TRUE(StoreOf("host-2")->Set(key, Bytes{42}).ok());
  ASSERT_TRUE(StoreOf("host-2")->SetAdd(KeyMasteredBy("host-2", "set-"), "m").value());

  ReplicationManager manager(&network_, Replicated(2), &stores_);
  Attach(manager);
  manager.Reconcile();

  const auto backups =
      BackupsFor(map_.Snapshot()->endpoints(), ShardMap::EndpointForHost("host-2"), 2);
  ReplicaShard* replica = manager.ReplicaForHost(ShardMap::HostForEndpoint(backups[0]));
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(replica->store()->Get(key).value(), (Bytes{42}));
  EXPECT_GT(manager.stats().catchup_keys.value(), 0u);
  EXPECT_GT(manager.stats().catchup_bytes.value(), 0u);

  // Idempotent: a second pass finds the content already matching and
  // streams nothing new.
  const uint64_t streamed = manager.stats().catchup_keys.value();
  manager.Reconcile();
  EXPECT_EQ(manager.stats().catchup_keys.value(), streamed);
}

TEST_F(ReplicationTest, ReconcileReclaimsCopiesTheAssignmentNoLongerWants) {
  ReplicationManager manager(&network_, Replicated(2), &stores_);
  Attach(manager);

  const std::string key = KeyMasteredBy("host-0");
  ASSERT_TRUE(StoreOf("host-0")->Set(key, Bytes{3}).ok());
  const auto backups =
      BackupsFor(map_.Snapshot()->endpoints(), ShardMap::EndpointForHost("host-0"), 2);
  const std::string backup_host = ShardMap::HostForEndpoint(backups[0]);
  ASSERT_TRUE(manager.ReplicaForHost(backup_host)->store()->Exists(key));

  // The primary deletes the key: the forward erases the backup copy; a
  // Reconcile afterwards has nothing left to reclaim but must not recreate
  // it either.
  ASSERT_TRUE(StoreOf("host-0")->Delete(key).ok());
  manager.Reconcile();
  EXPECT_FALSE(manager.ReplicaForHost(backup_host)->store()->Exists(key));
}

TEST_F(ReplicationTest, FailoverPromotesEveryKeyTheDeadShardMastered) {
  ReplicationManager manager(&network_, Replicated(2), &stores_);
  Attach(manager);

  // A handful of keys mastered by host-1, written through its primary (so
  // the backups hold them), plus a held lock that must survive promotion.
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 5 && i < 100000; ++i) {
    std::string probe = "fo-" + std::to_string(i);
    if (map_.MasterFor(probe) == ShardMap::EndpointForHost("host-1")) {
      ASSERT_TRUE(
          StoreOf("host-1")->Set(probe, Bytes{uint8_t(keys.size())}).ok());
      keys.push_back(probe);
    }
  }
  ASSERT_EQ(keys.size(), 5u);
  ASSERT_TRUE(StoreOf("host-1")->TryLockWrite(keys[0], "locker").value());

  const uint64_t epoch_before = map_.epoch();
  const FailoverStats stats = manager.Failover(ShardMap::EndpointForHost("host-1"));
  manager.Reconcile();

  EXPECT_EQ(map_.epoch(), epoch_before + 1);  // Failover flips inside
  EXPECT_EQ(stats.epoch, map_.epoch());
  EXPECT_GE(stats.promoted_keys, 5u);
  EXPECT_EQ(stats.lost_keys, 0u);

  for (size_t i = 0; i < keys.size(); ++i) {
    const std::string master = map_.MasterFor(keys[i]);
    ASSERT_NE(master, ShardMap::EndpointForHost("host-1"));
    auto value = stores_[master]->Get(keys[i]);
    ASSERT_TRUE(value.ok()) << keys[i];
    EXPECT_EQ(value.value(), Bytes{uint8_t(i)});
  }
  // The lock travelled: the promoted master still excludes other owners,
  // and the original holder can unlock there.
  KvStore* new_master = stores_[map_.MasterFor(keys[0])];
  EXPECT_FALSE(new_master->TryLockWrite(keys[0], "intruder").value());
  EXPECT_TRUE(new_master->UnlockWrite(keys[0], "locker").ok());
}

}  // namespace
}  // namespace faasm
