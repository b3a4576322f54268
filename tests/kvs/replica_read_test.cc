// Unit tests for tier two of the read path: ReplicaShard::Read's
// certification contract (anchor-only epoch stamps, fencing, forwarded-op
// exactness, the duplicate filter), holder resolution (ShardMap::HoldersFor),
// and the client integration — reads served in-process from a co-located
// backup with zero read RPCs at the master, only on hosts that hold a copy
// under the current epoch, falling through whenever the copy cannot prove
// itself.
#include <gtest/gtest.h>

#include <algorithm>

#include "kvs/kvs_client.h"
#include "kvs/migration.h"
#include "kvs/replication.h"
#include "net/network.h"

namespace faasm {
namespace {

KeyExport Exported(KvStore& store, const std::string& key) { return store.ExportKey(key); }

// The value window {offset, len} of `key` as the replica serves it.
Result<Bytes> ReadValue(ReplicaShard& replica, const std::string& key, uint64_t offset,
                        uint64_t len) {
  const ReadOptions options{.offset = offset, .len = len};
  return Answer(replica.Read({.op = options.whole_value() ? KvsOp::kGet : KvsOp::kGetRange,
                              .key = key,
                              .offset = offset,
                              .len = len}),
                &KvsBatchResult::value);
}

// --- ReplicaShard::Read certification ------------------------------------------

TEST(ReplicaReadValueTest, CertifiedInstallServesTheStoresAnswer) {
  const ShardMap map;  // never changes membership: epoch 0 throughout
  ReplicaShard replica(&map);
  KvStore primary;
  ASSERT_TRUE(primary.Set("key", Bytes{1, 2, 3, 4}).ok());
  replica.Install("key", Exported(primary, "key"), /*only_if_newer=*/false, /*epoch=*/0);

  auto whole = ReadValue(replica, "key", 0, ReadOptions::kWholeValue);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole.value(), (Bytes{1, 2, 3, 4}));
  // Ranged reads serve the requested window, exactly like the master would.
  auto window = ReadValue(replica, "key", 1, 2);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(window.value(), (Bytes{2, 3}));
  // The answer carries the whole value's length with the window.
  EXPECT_EQ(replica.Read({.op = KvsOp::kGetRange, .key = "key", .offset = 1, .len = 2}).length,
            4u);
  EXPECT_EQ(replica.replica_read_count(), 3u);
}

TEST(ReplicaReadValueTest, ForwardOnlyKeyIsNeverCertified) {
  // Forwards keep a certified copy exact but never certify one themselves:
  // a key that only ever arrived via ApplyForwarded must not serve (the
  // forward stream alone cannot prove the copy is complete).
  const ShardMap map;  // epoch 0
  ReplicaShard replica(&map);
  KvsBatchOp op;
  op.op = KvsOp::kSet;
  op.key = "key";
  op.bytes = Bytes{7};
  op.seq = 3;
  ASSERT_TRUE(replica.ApplyForwarded({&op})[0].status.ok());

  auto read = ReadValue(replica, "key", 0, ReadOptions::kWholeValue);
  EXPECT_EQ(read.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(replica.replica_read_count(), 0u);
}

TEST(ReplicaReadValueTest, OnlyIfNewerSkipDoesNotCertify) {
  // The mirror path's skipped (stale) snapshot must not stamp: the copy it
  // declined to write proves nothing about what IS there.
  const ShardMap map;  // epoch 0
  ReplicaShard replica(&map);
  KvStore primary;
  ASSERT_TRUE(primary.Set("key", Bytes{1}).ok());
  const KeyExport stale = Exported(primary, "key");

  KvsBatchOp newer;
  newer.op = KvsOp::kSet;
  newer.key = "key";
  newer.bytes = Bytes{2};
  newer.seq = stale.seq + 5;
  ASSERT_TRUE(replica.ApplyForwarded({&newer})[0].status.ok());

  // Skipped: the floor is higher.
  replica.Install("key", stale, /*only_if_newer=*/true, /*epoch=*/0);
  EXPECT_EQ(ReadValue(replica, "key", 0, ReadOptions::kWholeValue).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ReplicaReadValueTest, UnknownKeyFallsThroughButCertifiedDeleteServesNotFound) {
  const ShardMap map;  // epoch 0
  ReplicaShard replica(&map);
  // Never-seen key: no stamp, fall through (the master may well have it).
  EXPECT_EQ(ReadValue(replica, "ghost", 0, ReadOptions::kWholeValue).status().code(),
            StatusCode::kFailedPrecondition);

  // Install, then a newer snapshot of the key erased at the primary (the
  // catch-up of a key whose footprint is gone): the copy is exact — both
  // sides empty — so the replica's NotFound IS the master's answer, and it
  // counts as a served read (a read RPC that never happened).
  KvStore primary;
  ASSERT_TRUE(primary.Set("key", Bytes{1}).ok());
  const KeyExport record = Exported(primary, "key");
  replica.Install("key", record, /*only_if_newer=*/false, /*epoch=*/0);
  primary.EraseKey("key");
  const KeyExport erased = Exported(primary, "key");
  ASSERT_TRUE(erased.empty());
  replica.Install("key", erased, /*only_if_newer=*/true, /*epoch=*/0);

  EXPECT_EQ(ReadValue(replica, "key", 0, ReadOptions::kWholeValue).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(replica.replica_read_count(), 1u);
}

TEST(ReplicaReadValueTest, FencedReplicaBouncesUnavailable) {
  const ShardMap map;  // epoch 0
  ReplicaShard replica(&map);
  KvStore primary;
  ASSERT_TRUE(primary.Set("key", Bytes{1}).ok());
  replica.Install("key", Exported(primary, "key"), /*only_if_newer=*/false, /*epoch=*/0);
  ASSERT_TRUE(ReadValue(replica, "key", 0, ReadOptions::kWholeValue).ok());

  replica.Fence();
  // The fence clears every stamp AND rejects outright: a zombie host must
  // find nothing servable after the cluster declared it dead.
  EXPECT_EQ(ReadValue(replica, "key", 0, ReadOptions::kWholeValue).status().code(),
            StatusCode::kUnavailable);
}

TEST(ReplicaReadValueTest, EpochFlipInvalidatesUntilReanchored) {
  ShardMap map;
  map.AddShard("kvs:host-0");
  ReplicaShard replica(&map);
  KvStore primary;
  ASSERT_TRUE(primary.Set("key", Bytes{6}).ok());
  const KeyExport record = Exported(primary, "key");
  replica.Install("key", record, /*only_if_newer=*/false, map.epoch());
  ASSERT_TRUE(ReadValue(replica, "key", 0, ReadOptions::kWholeValue).ok());

  // Membership moves: the stamp is now stale, exactly like a read-cache
  // entry installed under the old epoch.
  map.AddShard("kvs:host-1");
  EXPECT_EQ(ReadValue(replica, "key", 0, ReadOptions::kWholeValue).status().code(),
            StatusCode::kFailedPrecondition);

  // Reconcile's content-match path re-certifies at the live epoch without
  // moving bytes.
  replica.AnchorFloor("key", record.seq, map.epoch());
  EXPECT_TRUE(ReadValue(replica, "key", 0, ReadOptions::kWholeValue).ok());
}

TEST(ReplicaReadValueTest, ForwardsKeepACertifiedCopyServableAcrossMutations) {
  // Between the anchor and any flip the key's master (hence seq space) is
  // constant, so sync forwards keep the copy exact — the stamp stays valid
  // and reads observe every forwarded write.
  const ShardMap map;  // epoch 0
  ReplicaShard replica(&map);
  KvStore primary;
  ASSERT_TRUE(primary.Set("key", Bytes{1}).ok());
  const KeyExport record = Exported(primary, "key");
  replica.Install("key", record, /*only_if_newer=*/false, /*epoch=*/0);

  KvsBatchOp append;
  append.op = KvsOp::kAppend;
  append.key = "key";
  append.bytes = Bytes{9};
  append.seq = record.seq + 1;
  ASSERT_TRUE(replica.ApplyForwarded({&append})[0].status.ok());

  auto read = ReadValue(replica, "key", 0, ReadOptions::kWholeValue);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), (Bytes{1, 9}));
  // The forward raised the key's floor to its seq: a resend of the same op
  // is dropped as a duplicate, so the copy stays exact.
  EXPECT_EQ(replica.skipped_op_count(), 0u);
  ASSERT_TRUE(replica.ApplyForwarded({&append})[0].status.ok());
  EXPECT_EQ(replica.skipped_op_count(), 1u);
  EXPECT_EQ(ReadValue(replica, "key", 0, ReadOptions::kWholeValue).value(), (Bytes{1, 9}));
}

// --- Holder resolution ---------------------------------------------------------

TEST(HoldersForTest, MasterFirstThenBackupsAtTheConfiguredFactor) {
  ShardMap map;
  for (int i = 0; i < 4; ++i) {
    map.AddShard(ShardMap::EndpointForHost("host-" + std::to_string(i)));
  }
  // Factor defaults to 1: holders are the master alone.
  EXPECT_EQ(map.HoldersFor("key").size(), 1u);
  EXPECT_EQ(map.HoldersFor("key")[0], map.MasterFor("key"));

  map.set_replication_factor(3);
  const auto holders = map.HoldersFor("key");
  ASSERT_EQ(holders.size(), 3u);
  EXPECT_EQ(holders[0], map.MasterFor("key"));
  const auto backups = BackupsFor(map.Snapshot()->endpoints(), holders[0], 3);
  ASSERT_EQ(backups.size(), 2u);
  EXPECT_EQ(holders[1], backups[0]);
  EXPECT_EQ(holders[2], backups[1]);
}

// --- Client integration: reads served from the co-located backup ---------------

constexpr int kHosts = 3;

class ReplicaReadClientTest : public ::testing::Test {
 protected:
  ReplicaReadClientTest() : network_(&clock_, NoLatency()) {
    for (int i = 0; i < kHosts; ++i) {
      const std::string name = "host-" + std::to_string(i);
      const std::string endpoint = ShardMap::EndpointForHost(name);
      stores_[endpoint] = &shards_[i];
      shards_[i].SetOwnershipGuard(map_.MastersAt(endpoint));
      servers_.push_back(std::make_unique<KvsServer>(&shards_[i], &network_, endpoint));
      map_.AddShard(endpoint);
    }
    map_.set_replication_factor(2);
  }

  std::unique_ptr<ReplicationManager> MakeManager() {
    auto manager = std::make_unique<ReplicationManager>(&network_, &map_, &stores_);
    for (int i = 0; i < kHosts; ++i) {
      const std::string name = "host-" + std::to_string(i);
      manager->AttachHost(name, stores_[ShardMap::EndpointForHost(name)]);
    }
    return manager;
  }

  // A client running ON `host`, wired for replica reads like the cluster
  // wires every instance's client.
  std::unique_ptr<KvsClient> MakeClient(const std::string& host, ReplicationManager* manager) {
    auto client = std::make_unique<KvsClient>(&network_, host, &map_,
                                              stores_[ShardMap::EndpointForHost(host)]);
    client->EnableReplicaReads(manager->ReplicaForHost(host));
    return client;
  }

  // A key mastered by `master` and backed up on `backup` (R=2).
  std::string KeyHeldBy(const std::string& master, const std::string& backup) {
    const std::string master_endpoint = ShardMap::EndpointForHost(master);
    const std::string backup_endpoint = ShardMap::EndpointForHost(backup);
    for (int i = 0; i < 100000; ++i) {
      std::string probe = "probe-" + std::to_string(i);
      if (map_.MasterFor(probe) != master_endpoint) {
        continue;
      }
      const auto backups = BackupsFor(map_.Snapshot()->endpoints(), master_endpoint, 2);
      if (!backups.empty() && backups[0] == backup_endpoint) {
        return probe;
      }
    }
    ADD_FAILURE() << "no key mastered by " << master << " backed by " << backup;
    return "";
  }

  // The backup host for keys `master` masters (R=2: exactly one).
  std::string BackupHostOf(const std::string& master) {
    const auto backups =
        BackupsFor(map_.Snapshot()->endpoints(), ShardMap::EndpointForHost(master), 2);
    return backups.empty() ? "" : ShardMap::HostForEndpoint(backups[0]);
  }

  uint64_t MasterReadRpcs(const std::string& master) {
    for (auto& server : servers_) {
      if (server->endpoint() == ShardMap::EndpointForHost(master)) {
        return server->read_rpc_count();
      }
    }
    ADD_FAILURE() << "no server for " << master;
    return 0;
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

TEST_F(ReplicaReadClientTest, SyncBackupServesReadsWithZeroReadRpcs) {
  auto manager = MakeManager();
  const std::string backup = BackupHostOf("host-0");
  const std::string key = KeyHeldBy("host-0", backup);
  auto client = MakeClient(backup, manager.get());

  // Write through a plain client at the master, so the sync forward lands
  // the value on the backup before the ack.
  KvsClient writer(&network_, "client", &map_, nullptr);
  ASSERT_TRUE(writer.Set(key, Bytes{1, 2}).ok());
  const uint64_t rpcs_before = MasterReadRpcs("host-0");
  const uint64_t bytes_before = network_.total_bytes();

  // Wait: the MIRROR installed the key (certified); sync the manager state.
  manager->Reconcile();

  auto read = client->Read(key);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), (Bytes{1, 2}));
  EXPECT_EQ(MasterReadRpcs("host-0"), rpcs_before);        // no read RPC happened
  EXPECT_EQ(network_.total_bytes(), bytes_before);         // zero network bytes
  EXPECT_EQ(client->replica_served_count(), 1u);
  EXPECT_EQ(manager->ReplicaForHost(backup)->replica_read_count(), 1u);

  // An acked write through the master is observed by the very next replica
  // read: sync mode applies at every live backup before the ack.
  ASSERT_TRUE(writer.Set(key, Bytes{9}).ok());
  auto fresh = client->Read(key);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value(), (Bytes{9}));
  EXPECT_EQ(client->replica_served_count(), 2u);
}

TEST_F(ReplicaReadClientTest, NonHolderFallsThroughToTheMaster) {
  auto manager = MakeManager();
  const std::string backup = BackupHostOf("host-0");
  // The third host neither masters nor backs the key: its client pays the
  // read RPC like before.
  std::string outsider;
  for (int i = 0; i < kHosts; ++i) {
    const std::string name = "host-" + std::to_string(i);
    if (name != "host-0" && name != backup) {
      outsider = name;
    }
  }
  const std::string key = KeyHeldBy("host-0", backup);
  auto client = MakeClient(outsider, manager.get());

  KvsClient writer(&network_, "client", &map_, nullptr);
  ASSERT_TRUE(writer.Set(key, Bytes{4}).ok());
  const uint64_t rpcs_before = MasterReadRpcs("host-0");
  auto read = client->Read(key);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), (Bytes{4}));
  EXPECT_EQ(MasterReadRpcs("host-0"), rpcs_before + 1);
  EXPECT_EQ(client->replica_served_count(), 0u);
}

TEST_F(ReplicaReadClientTest, EpochFlipFallsThroughUntilReconcileRecertifies) {
  auto manager = MakeManager();
  const std::string backup = BackupHostOf("host-0");
  const std::string key = KeyHeldBy("host-0", backup);
  auto client = MakeClient(backup, manager.get());

  KvsClient writer(&network_, "client", &map_, nullptr);
  ASSERT_TRUE(writer.Set(key, Bytes{3}).ok());
  manager->Reconcile();
  ASSERT_TRUE(client->Read(key).ok());
  ASSERT_EQ(client->replica_served_count(), 1u);

  // Membership moves: a scratch shard joins and leaves again. The ring ends
  // up byte-identical, but the epoch advanced twice — every stamp predates
  // the flips, so the replica refuses and the read pays the master RPC.
  map_.AddShard("kvs:host-9");
  map_.RemoveShard("kvs:host-9");
  const uint64_t rpcs_before = MasterReadRpcs("host-0");
  auto read = client->Read(key);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), (Bytes{3}));
  EXPECT_EQ(client->replica_served_count(), 1u);  // unchanged: fell through
  EXPECT_EQ(MasterReadRpcs("host-0"), rpcs_before + 1);

  // Reconcile re-certifies the (unchanged) copies at the live epoch: the
  // content-match path anchors without moving bytes, and serves resume.
  manager->Reconcile();
  ASSERT_TRUE(client->Read(key).ok());
  EXPECT_EQ(client->replica_served_count(), 2u);
}

TEST_F(ReplicaReadClientTest, FencedReplicaNeverServesAndFeedsSuspicion) {
  auto manager = MakeManager();
  const std::string backup = BackupHostOf("host-0");
  const std::string key = KeyHeldBy("host-0", backup);
  auto client = MakeClient(backup, manager.get());

  KvsClient writer(&network_, "client", &map_, nullptr);
  ASSERT_TRUE(writer.Set(key, Bytes{8}).ok());
  manager->Reconcile();
  std::vector<std::string> suspicions;
  client->SetSuspicionHook([&](const std::string& endpoint) { suspicions.push_back(endpoint); });

  // The cluster fences this host's mirror (its crash was confirmed); a
  // zombie read must fall through to the master, never serve locally, and
  // report itself as crash evidence.
  manager->FenceHost(backup);
  auto read = client->Read(key);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), (Bytes{8}));
  EXPECT_EQ(client->replica_served_count(), 0u);
  ASSERT_EQ(suspicions.size(), 1u);
  EXPECT_EQ(suspicions[0], ReplicaEndpointForHost(backup));
}

TEST_F(ReplicaReadClientTest, ReadYourWritesFlushesTheAmbientBatchFirst) {
  auto manager = MakeManager();
  const std::string backup = BackupHostOf("host-0");
  const std::string key = KeyHeldBy("host-0", backup);
  auto client = MakeClient(backup, manager.get());
  KvsClient writer(&network_, "client", &map_, nullptr);
  ASSERT_TRUE(writer.Set(key, Bytes{1}).ok());
  manager->Reconcile();

  // Enqueue a write into the ambient batch WITHOUT flushing; the very next
  // replica-eligible read must observe it (flush-before-serve), not the
  // pre-write replica copy.
  client->BeginBatchScope();
  client->EnqueueSetRanges(key, {ValueRange{0, Bytes{42}}}, nullptr);
  auto read = client->Read(key);
  client->EndBatchScope();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), (Bytes{42}));
}

TEST_F(ReplicaReadClientTest, BatchReadsServeFromTheReplicaAndSkipSelfMutatedKeys) {
  auto manager = MakeManager();
  const std::string backup = BackupHostOf("host-0");
  const std::string key = KeyHeldBy("host-0", backup);
  auto client = MakeClient(backup, manager.get());
  KvsClient writer(&network_, "client", &map_, nullptr);
  ASSERT_TRUE(writer.Set(key, Bytes{1}).ok());
  manager->Reconcile();

  // A pure read batch: the replica-held key is served locally, in-process.
  {
    OpBatch batch;
    Result<Bytes> got = NotFound("unset");
    batch.Read(key, [&](const Result<Bytes>& result) { got = result; });
    ASSERT_TRUE(client->ExecuteBatchNow(std::move(batch)).ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), (Bytes{1}));
    EXPECT_EQ(client->replica_served_count(), 1u);
  }

  // A batch that writes the key THEN reads it: the read must not jump the
  // batch's own write — it rides to the master and returns the new bytes.
  {
    OpBatch batch;
    Result<Bytes> got = NotFound("unset");
    batch.SetRanges(key, {ValueRange{0, Bytes{77}}});
    batch.Read(key, [&](const Result<Bytes>& result) { got = result; });
    ASSERT_TRUE(client->ExecuteBatchNow(std::move(batch)).ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), (Bytes{77}));
    EXPECT_EQ(client->replica_served_count(), 1u);  // unchanged: skipped
  }
}

TEST_F(ReplicaReadClientTest, ReplicaServesFollowHoldersAcrossAMembershipChange) {
  // A fourth shard wired the way the cluster's AddHost wires one: store,
  // server and mirror exist before the shard joins the map.
  const std::string joiner = "host-3";
  const std::string joiner_endpoint = ShardMap::EndpointForHost(joiner);
  KvStore joiner_store;
  joiner_store.SetOwnershipGuard(map_.MastersAt(joiner_endpoint));
  KvsServer joiner_server(&joiner_store, &network_, joiner_endpoint);
  stores_[joiner_endpoint] = &joiner_store;
  auto manager = MakeManager();
  manager->AttachHost(joiner, &joiner_store);

  const std::vector<std::string> hosts = {"host-0", "host-1", "host-2", joiner};
  std::vector<std::unique_ptr<KvsClient>> clients;
  for (const std::string& host : hosts) {
    clients.push_back(MakeClient(host, manager.get()));
  }
  std::vector<std::string> keys;
  KvsClient writer(&network_, "client", &map_, nullptr);
  for (int i = 0; i < 32; ++i) {
    keys.push_back("member-" + std::to_string(i));
    ASSERT_TRUE(writer.Set(keys.back(), Bytes{static_cast<uint8_t>(i)}).ok());
  }
  manager->Reconcile();

  // Every host reads every key once. Exactly the non-master holders serve
  // from their replica; the oracle walks BackupsFor over the live endpoint
  // set. Returns each key's backups in the phase.
  auto check = [&](const std::string& phase) {
    std::vector<std::vector<std::string>> backups_of;
    const auto snapshot = map_.Snapshot();
    for (size_t k = 0; k < keys.size(); ++k) {
      const std::string master = snapshot->MasterFor(keys[k]);
      const auto backups = BackupsFor(snapshot->endpoints(), master, 2);
      backups_of.push_back(backups);
      for (size_t h = 0; h < hosts.size(); ++h) {
        const std::string endpoint = ShardMap::EndpointForHost(hosts[h]);
        const bool backs = std::find(backups.begin(), backups.end(), endpoint) != backups.end();
        const uint64_t served_before = clients[h]->replica_served_count();
        auto read = clients[h]->Read(keys[k]);
        EXPECT_TRUE(read.ok() && read.value() == Bytes{static_cast<uint8_t>(k)})
            << phase << ": " << keys[k] << " on " << hosts[h];
        EXPECT_EQ(clients[h]->replica_served_count() - served_before, backs ? 1u : 0u)
            << phase << ": " << keys[k] << " on " << hosts[h];
      }
    }
    return backups_of;
  };
  const auto before = check("before the join");

  ShardMigrator migrator(&network_, &map_, &stores_);
  ASSERT_TRUE(migrator.AddShard(joiner_endpoint).ok());
  manager->Reconcile();
  const auto after = check("after the join");

  // The join rotated some backups, and the joiner serves the keys it now
  // holds: the check above saw eligibility change in both directions.
  EXPECT_NE(before, after);
  EXPECT_GT(clients[3]->replica_served_count(), 0u);
}

}  // namespace
}  // namespace faasm
