#include "kvs/kvs_client.h"

#include <gtest/gtest.h>

#include "kvs/batch_codec.h"
#include "net/framing.h"
#include "runtime/cluster.h"

namespace faasm {
namespace {

// A multi-range write as a one-op batch, run now; returns its status.
Status SetRangesNow(KvsClient& client, const std::string& key, std::vector<ValueRange> ranges) {
  OpBatch batch;
  batch.SetRanges(key, std::move(ranges));
  return client.ExecuteBatchNow(std::move(batch));
}

class KvsClientTest : public ::testing::Test {
 protected:
  KvsClientTest() : network_(&clock_, NoLatency()), server_(&store_, &network_) {}

  static NetworkConfig NoLatency() {
    NetworkConfig config;
    config.charge_latency = false;
    return config;
  }

  RealClock clock_;
  InProcNetwork network_;
  KvStore store_;
  KvsServer server_;
};

TEST_F(KvsClientTest, SetGetRoundTrip) {
  KvsClient client(&network_, "host-0");
  ASSERT_TRUE(client.Set("key", Bytes{5, 6, 7}).ok());
  EXPECT_EQ(client.Read("key").value(), (Bytes{5, 6, 7}));
  EXPECT_EQ(store_.Get("key").value(), (Bytes{5, 6, 7}));  // really server-side
}

TEST_F(KvsClientTest, MissingKeyPropagatesNotFound) {
  KvsClient client(&network_, "host-0");
  EXPECT_EQ(client.Read("missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.Read("missing", ReadOptions{.len = 0}).status().code(), StatusCode::kNotFound);
}

TEST_F(KvsClientTest, RangedOps) {
  KvsClient client(&network_, "host-0");
  ASSERT_TRUE(client.Set("key", Bytes{0, 1, 2, 3, 4}).ok());
  EXPECT_EQ(client.Read("key", ReadOptions{.offset = 1, .len = 3}).value(), (Bytes{1, 2, 3}));
  ASSERT_TRUE(SetRangesNow(client, "key", {ValueRange{4, Bytes{9, 9}}}).ok());
  // A ranged read answers the whole value's length with its window.
  uint64_t size = 0;
  EXPECT_EQ(client.Read("key", ReadOptions{.offset = 4, .len = 2}, &size).value(), (Bytes{9, 9}));
  EXPECT_EQ(size, 6u);
}

TEST_F(KvsClientTest, SetRangesAppliesAllRangesInOneRoundTrip) {
  KvsClient client(&network_, "host-0");
  ASSERT_TRUE(client.Set("key", Bytes(6, 0)).ok());
  network_.ResetStats();
  std::vector<ValueRange> ranges;
  ranges.push_back(ValueRange{1, Bytes{7, 7}});
  ranges.push_back(ValueRange{4, Bytes{8, 8, 8}});  // extends the value to 7
  ASSERT_TRUE(SetRangesNow(client, "key", ranges).ok());
  EXPECT_EQ(store_.Get("key").value(), (Bytes{0, 7, 7, 0, 8, 8, 8}));
  // The whole batch costs one request/response pair.
  EXPECT_EQ(network_.StatsFor("host-0").tx_messages, 1u);
  EXPECT_EQ(network_.StatsFor("host-0").rx_messages, 1u);
}

TEST_F(KvsClientTest, AbsurdRangeOffsetsRejected) {
  // Offsets come off the wire: an overflowing offset + length must be
  // rejected, not wrap around and scribble past the value buffer.
  KvsClient client(&network_, "host-0");
  std::vector<ValueRange> ranges;
  ranges.push_back(ValueRange{~uint64_t{0} - 1, Bytes{1, 2}});
  EXPECT_FALSE(SetRangesNow(client, "key", ranges).ok());
  EXPECT_FALSE(store_.Exists("key"));
}

TEST_F(KvsClientTest, SetRangesOnMissingKeyCreatesIt) {
  KvsClient client(&network_, "host-0");
  std::vector<ValueRange> ranges;
  ranges.push_back(ValueRange{2, Bytes{9}});
  ASSERT_TRUE(SetRangesNow(client, "fresh", ranges).ok());
  EXPECT_EQ(store_.Get("fresh").value(), (Bytes{0, 0, 9}));
}

TEST_F(KvsClientTest, AppendReturnsNewLength) {
  KvsClient client(&network_, "host-0");
  EXPECT_EQ(client.Append("log", Bytes{1, 2}).value(), 2u);
  EXPECT_EQ(client.Append("log", Bytes{3}).value(), 3u);
}

TEST_F(KvsClientTest, DistributedLocks) {
  KvsClient host_a(&network_, "host-a");
  KvsClient host_b(&network_, "host-b");
  EXPECT_TRUE(host_a.TryLockWrite("key").value());
  EXPECT_FALSE(host_b.TryLockWrite("key").value());
  EXPECT_FALSE(host_b.TryLockRead("key").value());
  ASSERT_TRUE(host_a.UnlockWrite("key").ok());
  EXPECT_TRUE(host_b.TryLockRead("key").value());
  ASSERT_TRUE(host_b.UnlockRead("key").ok());
}

TEST_F(KvsClientTest, SetOps) {
  KvsClient client(&network_, "host-0");
  EXPECT_TRUE(client.SetAdd("warm:f", "host-0").value());
  EXPECT_FALSE(client.SetAdd("warm:f", "host-0").value());
  auto members = client.SetMembers("warm:f");
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(members.value(), (std::vector<std::string>{"host-0"}));
  OpBatch batch;
  batch.SetRemove("warm:f", "host-0");
  ASSERT_TRUE(client.ExecuteBatchNow(std::move(batch)).ok());
  EXPECT_TRUE(client.SetMembers("warm:f").value().empty());
}

// --- kWrongMaster redirect path ------------------------------------------------

TEST_F(KvsClientTest, RoutedClientRetriesWrongMasterUntilOpLands) {
  // A sharded client that gets kWrongMaster (stale route / key frozen
  // mid-migration) backs off and retries the op; when the redirect clears
  // (here: a scripted endpoint that bounces the first two attempts, as a
  // mid-handoff shard would) the op lands. This is the client half of the
  // redirect protocol; the store half is covered by kv_store_test.
  ShardMap map;
  map.AddShard(ShardMap::EndpointForHost("host-1"));
  int attempts = 0;
  network_.RegisterEndpoint(ShardMap::EndpointForHost("host-1"), [&](const Bytes&) {
    ++attempts;
    const StatusCode code = attempts <= 2 ? StatusCode::kWrongMaster : StatusCode::kOk;
    // A one-op batch answer: framing-level OK, then the op's own status.
    Bytes response;
    ByteWriter writer(response);
    writer.Put<uint8_t>(static_cast<uint8_t>(StatusCode::kOk));
    WriteFrameBatch(writer, {Bytes{static_cast<uint8_t>(code)}});
    return response;
  });
  KvsClient client(&network_, "host-0", &map, /*local_store=*/nullptr);
  Status status = client.Set("migrating-key", Bytes{7});
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(attempts, 3);  // two redirects, then the op landed
  network_.UnregisterEndpoint(ShardMap::EndpointForHost("host-1"));
}

TEST(KvsClientStaleRouteTest, MasterLocalExistsAndSetMembersWaitOutTheOwnershipGuard) {
  // The map routes the key to this host's own shard, but the shard's
  // ownership guard still rejects it until a virtual instant: an epoch flip
  // that has not settled, with the key's footprint installed mid-window. A
  // master-local zero-length read and SetMembers must bounce and
  // re-route like every other op — not answer NotFound / {} from a shard
  // that does not own the key.
  SimExecutor executor;
  NetworkConfig netcfg;
  netcfg.charge_latency = false;
  InProcNetwork network(&executor.clock(), netcfg);
  ShardMap map;
  map.AddShard(ShardMap::EndpointForHost("host-0"));
  KvStore store;
  constexpr TimeNs kInstalledAt = 2 * kMillisecond;
  constexpr TimeNs kOwnedAt = 5 * kMillisecond;
  store.SetOwnershipGuard([&](const std::string&) { return executor.clock().Now() >= kOwnedAt; });
  KvsClient client(&network, "host-0", &map, &store);
  ASSERT_TRUE(client.MasterLocal("moving"));

  KeyExport record;
  record.has_value = true;
  record.value = Bytes{1};
  record.set_members = {"host-7"};
  uint64_t size = 0;
  Result<Bytes> sized = Bytes{};
  TimeNs sized_at = 0;
  Result<std::vector<std::string>> members = std::vector<std::string>{};
  executor.Spawn([&] {
    executor.clock().SleepFor(kInstalledAt);
    store.InstallKey("moving", record);  // the migration stream lands
  });
  executor.Spawn([&] {
    sized = client.Read("moving", ReadOptions{.len = 0}, &size);
    sized_at = executor.clock().Now();
    members = client.SetMembers("moving");
  });
  executor.JoinAll();

  ASSERT_TRUE(sized.ok()) << sized.status().ToString();
  EXPECT_EQ(size, 1u);
  EXPECT_GE(sized_at, kOwnedAt);
  ASSERT_TRUE(members.ok()) << members.status().ToString();
  EXPECT_EQ(members.value(), (std::vector<std::string>{"host-7"}));
}

// --- Central-tier no-op membership behaviour -----------------------------------

TEST_F(KvsClientTest, CentralTierAddRemoveHostLeavesTierUntouched) {
  // With state_tier = kCentral, AddHost/RemoveHost change compute only: the
  // single "kvs" endpoint keeps mastering everything, the epoch never
  // moves, nothing migrates, and clients never see a redirect.
  ClusterConfig config;
  config.hosts = 2;
  config.state_tier = StateTier::kCentral;
  FaasmCluster cluster(config);
  ASSERT_TRUE(cluster.kvs().Set("stable", Bytes{4, 2}).ok());
  const uint64_t epoch_before = cluster.shard_map().epoch();

  cluster.Run([&](Frontend&) {
    auto added = cluster.AddHost();
    ASSERT_TRUE(added.ok());
    EXPECT_EQ(cluster.host(cluster.host_count() - 1).name(), added.value());
    // The new host's client routes to the central endpoint like everyone.
    EXPECT_FALSE(cluster.host(cluster.host_count() - 1).kvs().MasterLocal("stable"));
    EXPECT_EQ(cluster.host(0).kvs().Read("stable").value(), (Bytes{4, 2}));

    ASSERT_TRUE(cluster.RemoveHost(added.value()).ok());
    EXPECT_EQ(cluster.host(0).kvs().Read("stable").value(), (Bytes{4, 2}));
  });

  EXPECT_EQ(cluster.shard_map().epoch(), epoch_before);
  EXPECT_EQ(cluster.shard_map().MasterFor("stable"), "kvs");
  EXPECT_EQ(cluster.migration_stats().epoch_flips, 0u);
  EXPECT_EQ(cluster.migration_stats().keys_moved, 0u);
  EXPECT_EQ(cluster.migration_stats().bytes_moved, 0u);
}

// --- Batched ops ----------------------------------------------------------------

TEST_F(KvsClientTest, BatchShipsAllOpsInOneRpc) {
  KvsClient client(&network_, "host-0");
  ASSERT_TRUE(client.Set("seed", Bytes{1, 2, 3}).ok());
  network_.ResetStats();

  Status set_status = Internal("ack never fired");
  Result<Bytes> got = Internal("ack never fired");
  bool added = false;

  OpBatch batch;
  batch.SetRanges("a", {ValueRange{0, Bytes{4}}}, [&](const Status& s) { set_status = s; });
  batch.SetRanges("seed", {ValueRange{1, Bytes{9}}});
  batch.SetAdd("members", "m1", [&](const Status& s) { added = s.ok(); });
  batch.Read("seed", [&](const Result<Bytes>& value) { got = value; });
  batch.SetRemove("members", "m0");
  ASSERT_EQ(batch.size(), 5u);

  Status status = client.ExecuteBatchNow(std::move(batch));
  ASSERT_TRUE(status.ok()) << status.ToString();
  // Five ops, ONE round trip.
  EXPECT_EQ(network_.StatsFor("host-0").tx_messages, 1u);
  EXPECT_EQ(network_.StatsFor("host-0").rx_messages, 1u);

  EXPECT_TRUE(set_status.ok());
  EXPECT_TRUE(added);
  ASSERT_TRUE(got.ok());
  // The Get ran after the SetRanges in the same batch (per-key order holds).
  EXPECT_EQ(got.value(), (Bytes{1, 9, 3}));
  EXPECT_EQ(store_.Get("a").value(), (Bytes{4}));
  EXPECT_EQ(store_.SetMembers("members"), (std::vector<std::string>{"m1"}));
}

TEST_F(KvsClientTest, BatchAggregateStatusReportsPerOpFailure) {
  KvsClient client(&network_, "host-0");
  OpBatch batch;
  Status get_status = OkStatus();
  batch.Read("missing", [&](const Result<Bytes>& value) { get_status = value.status(); });
  batch.SetRanges("fine", {ValueRange{0, Bytes{1}}});
  Status status = client.ExecuteBatchNow(std::move(batch));
  EXPECT_EQ(status.code(), StatusCode::kNotFound);  // aggregate carries the op error
  EXPECT_EQ(get_status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(store_.Exists("fine"));  // the other op still landed
}

TEST_F(KvsClientTest, ConsecutiveSetRangesOnOneKeyCoalesce) {
  KvsClient client(&network_, "host-0");
  int acks = 0;
  OpBatch batch;
  std::vector<ValueRange> first;
  first.push_back(ValueRange{0, Bytes{1, 2}});
  std::vector<ValueRange> second;
  second.push_back(ValueRange{2, Bytes{3, 4}});  // adjacent to the first push
  batch.SetRanges("k", std::move(first), [&](const Status& s) { acks += s.ok() ? 1 : 0; });
  batch.SetRanges("k", std::move(second), [&](const Status& s) { acks += s.ok() ? 1 : 0; });
  // Two pushes of one key in one batch: a single sub-op with merged runs.
  EXPECT_EQ(batch.size(), 1u);
  ASSERT_TRUE(client.ExecuteBatchNow(std::move(batch)).ok());
  EXPECT_EQ(acks, 2);  // both acks fire with the merged op's status
  EXPECT_EQ(store_.Get("k").value(), (Bytes{1, 2, 3, 4}));
}

TEST_F(KvsClientTest, BatchGroupsPerEndpointAndRunsMasterLocalInProcess) {
  // Sharded layout: host-0 serves its own shard, host-1's shard is remote.
  ShardMap map;
  map.AddShard(ShardMap::EndpointForHost("host-0"));
  map.AddShard(ShardMap::EndpointForHost("host-1"));
  KvStore local_shard;
  KvStore remote_shard;
  remote_shard.SetOwnershipGuard(map.MastersAt(ShardMap::EndpointForHost("host-1")));
  KvsServer remote_server(&remote_shard, &network_, ShardMap::EndpointForHost("host-1"));
  KvsClient client(&network_, "host-0", &map, &local_shard);

  // Pick keys mastered on each side.
  std::string local_key, remote_key;
  for (int i = 0; i < 100000 && (local_key.empty() || remote_key.empty()); ++i) {
    std::string probe = "probe-" + std::to_string(i);
    std::string& slot =
        map.MasterFor(probe) == ShardMap::EndpointForHost("host-0") ? local_key : remote_key;
    if (slot.empty()) {
      slot = std::move(probe);
    }
  }

  network_.ResetStats();
  OpBatch batch;
  batch.SetRanges(local_key, {ValueRange{0, Bytes{1}}});
  batch.SetRanges(remote_key, {ValueRange{0, Bytes{3}}});
  ASSERT_TRUE(client.ExecuteBatchNow(std::move(batch)).ok());

  // The master-local group ran in process: at most ONE RPC left this host
  // (the remote group), regardless of how many keys each group held.
  EXPECT_LE(network_.StatsFor("host-0").tx_messages, 1u);
  EXPECT_EQ(remote_shard.Get(remote_key).value(), (Bytes{3}));
  EXPECT_EQ(local_shard.Get(local_key).value(), (Bytes{1}));
}

TEST_F(KvsClientTest, BatchRetriesOnlyBouncedOpsUntilTheyLand) {
  // Scripted shard: bounces every op of the first two batch requests with a
  // per-op kWrongMaster (a shard mid-handoff), then serves for real. The
  // client must retry JUST the bounced ops against the (unchanged) route
  // until they land.
  ShardMap map;
  map.AddShard(ShardMap::EndpointForHost("host-1"));
  KvStore shard;
  int requests = 0;
  network_.RegisterEndpoint(ShardMap::EndpointForHost("host-1"), [&](const Bytes& request) {
    ++requests;
    ByteReader reader(request);
    auto op = reader.Get<uint8_t>();
    EXPECT_EQ(op.value(), 18);  // kBatch
    auto count_in = ReadFrameBatch(reader);
    Bytes response;
    ByteWriter writer(response);
    writer.Put<uint8_t>(0);  // framing-level OK
    if (requests <= 2) {
      // Bounce every sub-op individually.
      BeginFrameBatch(writer, static_cast<uint32_t>(count_in.value().size()));
      for (size_t i = 0; i < count_in.value().size(); ++i) {
        Bytes part;
        ByteWriter part_writer(part);
        part_writer.Put<uint8_t>(static_cast<uint8_t>(StatusCode::kWrongMaster));
        AppendFrame(writer, part);
      }
      return response;
    }
    // Serve for real from the third request on.
    BeginFrameBatch(writer, static_cast<uint32_t>(count_in.value().size()));
    for (const Bytes& part : count_in.value()) {
      auto sub_op = DecodeBatchOp(part);
      EXPECT_TRUE(sub_op.ok());
      const std::vector<KvsBatchResult> result =
          shard.ExecuteBatch(std::vector<KvsBatchOp>{sub_op.value()});
      AppendFrame(writer, EncodeBatchResult(sub_op.value().op, result[0]));
    }
    return response;
  });

  KvsClient client(&network_, "host-0", &map, /*local_store=*/nullptr);
  OpBatch batch;
  batch.SetRanges("k1", {ValueRange{0, Bytes{1}}});
  batch.SetRanges("k2", {ValueRange{0, Bytes{2}}});
  Status status = client.ExecuteBatchNow(std::move(batch));
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(requests, 3);  // two full bounces, then the ops landed together
  EXPECT_EQ(shard.Get("k1").value(), (Bytes{1}));
  EXPECT_EQ(shard.Get("k2").value(), (Bytes{2}));
  network_.UnregisterEndpoint(ShardMap::EndpointForHost("host-1"));
}

// --- Unified read API + read cache ----------------------------------------------

TEST_F(KvsClientTest, ReadCacheServesRepeatReadsWithoutRpcs) {
  KvsClient client(&network_, "host-0");
  client.EnableReadCache(kSecond);
  ASSERT_TRUE(client.Set("key", Bytes{1, 2, 3}).ok());
  ASSERT_TRUE(client.Read("key").ok());  // miss: fetches and installs

  network_.ResetStats();
  auto again = client.Read("key");  // hit: served locally
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), (Bytes{1, 2, 3}));
  // Ranged reads slice the cached full value, and a hit answers the whole
  // value's length too.
  uint64_t size = 0;
  EXPECT_EQ(client.Read("key", ReadOptions{.offset = 1, .len = 2}, &size).value(), (Bytes{2, 3}));
  EXPECT_EQ(size, 3u);
  size = 0;
  EXPECT_TRUE(client.Read("key", ReadOptions{.offset = 3, .len = 0}, &size).value().empty());
  EXPECT_EQ(size, 3u);
  EXPECT_EQ(network_.StatsFor("host-0").tx_messages, 0u);  // zero network bytes
  EXPECT_GE(client.read_cache().hits(), 3u);
}

TEST_F(KvsClientTest, OwnWritesInvalidateCachedReads) {
  KvsClient client(&network_, "host-0");
  client.EnableReadCache(kSecond);
  ASSERT_TRUE(client.Set("key", Bytes{1}).ok());
  ASSERT_TRUE(client.Read("key").ok());
  // The host's own write drops its cached read: the next read refetches.
  ASSERT_TRUE(client.Set("key", Bytes{2}).ok());
  EXPECT_EQ(client.Read("key").value(), (Bytes{2}));
  EXPECT_GE(client.read_cache().invalidations(), 1u);
}

TEST_F(KvsClientTest, LockAcquisitionForcesFreshReadOfForeignWrite) {
  KvsClient client(&network_, "host-0");
  client.EnableReadCache(kSecond);
  ASSERT_TRUE(client.Set("key", Bytes{1}).ok());
  ASSERT_TRUE(client.Read("key").ok());

  // Another host writes behind this client's cache (directly at the store:
  // no invalidation reaches host-0). Within the lease the cached read is
  // allowed to be stale...
  ASSERT_TRUE(store_.Set("key", Bytes{9}).ok());
  EXPECT_EQ(client.Read("key").value(), (Bytes{1}));

  // ...but never under a global lock: acquisition drops the cached entry,
  // so the first read under the lock observes the serialised bytes.
  ASSERT_TRUE(client.TryLockWrite("key").value());
  EXPECT_EQ(client.Read("key").value(), (Bytes{9}));
  ASSERT_TRUE(client.UnlockWrite("key").ok());
}

TEST_F(KvsClientTest, PureReadBatchShipsAsGetBatchInOneRpc) {
  KvsClient client(&network_, "host-0");
  ASSERT_TRUE(client.Set("a", Bytes{1}).ok());
  ASSERT_TRUE(client.Set("b", Bytes{2, 2}).ok());
  network_.ResetStats();
  const uint64_t reads_before = server_.read_rpc_count();

  Result<Bytes> got_a = Internal("ack never fired");
  Result<Bytes> got_b = Internal("ack never fired");
  OpBatch batch;
  batch.Read("a", [&](const Result<Bytes>& value) { got_a = value; });
  batch.Read("b", ReadOptions{.offset = 1, .len = 1},
             [&](const Result<Bytes>& value) { got_b = value; });
  ASSERT_TRUE(client.ExecuteBatchNow(std::move(batch)).ok());

  EXPECT_EQ(got_a.value(), (Bytes{1}));
  EXPECT_EQ(got_b.value(), (Bytes{2}));
  // One RPC for the group, and it arrived as kGetBatch: the server's read-RPC
  // counter moved (kBatch would not count).
  EXPECT_EQ(network_.StatsFor("host-0").tx_messages, 1u);
  EXPECT_EQ(server_.read_rpc_count(), reads_before + 1);
}

TEST_F(KvsClientTest, MixedBatchShipsAsMutatingBatch) {
  KvsClient client(&network_, "host-0");
  ASSERT_TRUE(client.Set("seed", Bytes{5}).ok());
  const uint64_t reads_before = server_.read_rpc_count();
  Result<Bytes> got = Internal("ack never fired");
  OpBatch batch;
  batch.SetRanges("w", {ValueRange{0, Bytes{1}}});
  batch.Read("seed", [&](const Result<Bytes>& value) { got = value; });
  ASSERT_TRUE(client.ExecuteBatchNow(std::move(batch)).ok());
  EXPECT_EQ(got.value(), (Bytes{5}));
  EXPECT_TRUE(store_.Exists("w"));
  // The group held a mutation, so it travelled as kBatch (not counted as a
  // read RPC).
  EXPECT_EQ(server_.read_rpc_count(), reads_before);
}

TEST_F(KvsClientTest, ServerRejectsMutatingOpSmuggledIntoReadBatch) {
  // Hand-craft a kGetBatch frame holding a kGet AND a kSet: the server must
  // serve the read and reject the mutation per-op, leaving the store clean.
  ASSERT_TRUE(store_.Set("present", Bytes{3}).ok());
  Bytes get_part;
  {
    ByteWriter w(get_part);
    w.Put<uint8_t>(static_cast<uint8_t>(KvsOp::kGet));
    w.PutString("present");
  }
  Bytes set_part;
  {
    ByteWriter w(set_part);
    w.Put<uint8_t>(static_cast<uint8_t>(KvsOp::kSet));
    w.PutString("smuggled");
    w.PutBytes(Bytes{9});
  }
  Bytes request;
  ByteWriter writer(request);
  writer.Put<uint8_t>(static_cast<uint8_t>(KvsOp::kGetBatch));
  WriteFrameBatch(writer, {get_part, set_part});

  auto response = network_.Call("host-0", "kvs", request);
  ASSERT_TRUE(response.ok());
  ByteReader reader(response.value());
  EXPECT_EQ(reader.Get<uint8_t>().value(), 0u);  // framing-level OK
  auto parts = ReadFrameBatch(reader);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts.value().size(), 2u);
  EXPECT_EQ(static_cast<StatusCode>(parts.value()[0][0]), StatusCode::kOk);
  EXPECT_EQ(static_cast<StatusCode>(parts.value()[1][0]), StatusCode::kInvalidArgument);
  EXPECT_FALSE(store_.Exists("smuggled"));  // the mutation never ran
}

TEST_F(KvsClientTest, TrafficIsAccounted) {
  KvsClient client(&network_, "host-0");
  network_.ResetStats();
  ASSERT_TRUE(client.Set("key", Bytes(1000)).ok());
  // Request carries at least the 1000-byte value.
  EXPECT_GT(network_.StatsFor("host-0").tx_bytes, 1000u);
  const uint64_t after_set = network_.total_bytes();
  auto value = client.Read("key");
  ASSERT_TRUE(value.ok());
  EXPECT_GT(network_.total_bytes(), after_set + 1000);  // response carries value
}

// --- Crash-path error surfacing (ISSUE 9 satellites) ---------------------------
// A shard whose endpoint never answers (a crashed master nobody recovered)
// must cost a BOUNDED retry budget and then surface a typed
// kDeadlineExceeded naming the key, the endpoint, and the attempt count —
// for single ops, for every stranded op in a batch, and for a Wait whose
// dispatch wedged. Virtual time makes the 2048-retry budget free to test.

TEST(KvsClientDeadShardTest, RedirectBudgetExhaustionIsTypedAndAttributed) {
  SimExecutor executor;
  NetworkConfig netcfg;
  netcfg.charge_latency = false;
  InProcNetwork network(&executor.clock(), netcfg);
  ShardMap map;
  map.AddShard(ShardMap::EndpointForHost("host-1"));  // never registered: dead
  KvsClient client(&network, "host-0", &map, nullptr);

  uint64_t hints = 0;
  client.SetSuspicionHook([&](const std::string& endpoint) {
    EXPECT_EQ(endpoint, ShardMap::EndpointForHost("host-1"));
    ++hints;
  });

  Status status = OkStatus();
  executor.Spawn([&] { status = client.Set("orphan-key", Bytes{1}); });
  executor.JoinAll();

  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  const std::string text = status.ToString();
  EXPECT_NE(text.find("orphan-key"), std::string::npos) << text;
  EXPECT_NE(text.find(ShardMap::EndpointForHost("host-1")), std::string::npos) << text;
  EXPECT_NE(text.find(std::to_string(KvsClient::kMaxRedirectRetries)), std::string::npos)
      << text;
  // Every bounce was reported as detector evidence, not silently retried.
  EXPECT_GE(hints, static_cast<uint64_t>(KvsClient::kMaxRedirectRetries));
}

TEST(KvsClientDeadShardTest, StrandedBatchOpsEachGetTypedAcks) {
  SimExecutor executor;
  NetworkConfig netcfg;
  netcfg.charge_latency = false;
  InProcNetwork network(&executor.clock(), netcfg);
  ShardMap map;
  map.AddShard(ShardMap::EndpointForHost("host-1"));
  KvsClient client(&network, "host-0", &map, nullptr);

  Status set_ack = OkStatus();
  Status read_ack = OkStatus();
  executor.Spawn([&] {
    OpBatch batch;
    batch.SetRanges("orphan-a", {ValueRange{0, Bytes{1}}}, [&](const Status& s) { set_ack = s; });
    batch.Read("orphan-b", [&](const Result<Bytes>& v) { read_ack = v.status(); });
    const Status aggregate = client.ExecuteBatchNow(std::move(batch));
    EXPECT_EQ(aggregate.code(), StatusCode::kDeadlineExceeded);
  });
  executor.JoinAll();

  // Both acks fired — stranded, not hung — and each names ITS OWN key.
  EXPECT_EQ(set_ack.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(set_ack.ToString().find("orphan-a"), std::string::npos);
  EXPECT_EQ(read_ack.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(read_ack.ToString().find("orphan-b"), std::string::npos);
}

TEST(KvsClientDeadShardTest, WaitDeadlineFiresOnWedgedDispatch) {
  // A spawner that drops its closures models a wedged executor: the groups
  // never run, outstanding never reaches zero, and Wait's own deadline is
  // the only way out.
  SimExecutor executor;
  NetworkConfig netcfg;
  netcfg.charge_latency = false;
  InProcNetwork network(&executor.clock(), netcfg);
  ShardMap map;
  map.AddShard(ShardMap::EndpointForHost("host-1"));
  map.AddShard(ShardMap::EndpointForHost("host-2"));
  KvsClient client(&network, "host-0", &map, nullptr);
  client.SetSpawner([](std::function<void()>) {});  // drops every group

  // One key per shard, so both groups are remote and both go to the spawner.
  std::string key_1;
  std::string key_2;
  for (int i = 0; i < 100000 && (key_1.empty() || key_2.empty()); ++i) {
    std::string probe = "wedge-probe-" + std::to_string(i);
    if (map.MasterFor(probe) == ShardMap::EndpointForHost("host-1")) {
      if (key_1.empty()) key_1 = std::move(probe);
    } else if (key_2.empty()) {
      key_2 = std::move(probe);
    }
  }
  ASSERT_FALSE(key_1.empty());
  ASSERT_FALSE(key_2.empty());

  Status status = OkStatus();
  bool done_after_wait = true;
  executor.Spawn([&] {
    OpBatch batch;
    batch.SetRanges(key_1, {ValueRange{0, Bytes{1}}});
    batch.SetRanges(key_2, {ValueRange{0, Bytes{2}}});
    BatchHandle handle = client.DispatchBatch(std::move(batch));
    status = handle.Wait(10 * kMillisecond);
    done_after_wait = handle.done();
  });
  executor.JoinAll();

  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.ToString().find("outstanding"), std::string::npos) << status.ToString();
  EXPECT_FALSE(done_after_wait);  // the deadline reported, it did not fabricate completion
}

TEST(KvsClientDeadShardTest, CrashWithoutRecoveryStrandsOpsWithTypedErrorNotAHang) {
  // The kill-mid-batch regression: CrashHost with NO failure detection and
  // NO oracle recovery leaves the dead shard orphaned in the map. A batch
  // with one op on the corpse and one on a survivor must complete the
  // survivor, strand the corpse op with the typed budget error, and return
  // from Wait — the pre-deadline client hung here forever.
  ClusterConfig config;
  config.hosts = 3;  // replication_factor 1, failure_detection off
  FaasmCluster cluster(config);

  std::string doomed;
  std::string safe;
  for (int i = 0; i < 100000 && (doomed.empty() || safe.empty()); ++i) {
    std::string probe = "crash-probe-" + std::to_string(i);
    const std::string master = cluster.shard_map().MasterFor(probe);
    if (master == ShardMap::EndpointForHost("host-1")) {
      if (doomed.empty()) doomed = std::move(probe);
    } else if (master == ShardMap::EndpointForHost("host-0") && safe.empty()) {
      safe = std::move(probe);
    }
  }
  ASSERT_FALSE(doomed.empty());
  ASSERT_FALSE(safe.empty());

  cluster.Run([&](Frontend&) {
    ASSERT_TRUE(cluster.CrashHost("host-1").ok());  // nobody will ever recover it

    Status doomed_ack = OkStatus();
    Status safe_ack = Internal("never fired");
    OpBatch batch;
    batch.SetRanges(doomed, {ValueRange{0, Bytes{1}}}, [&](const Status& s) { doomed_ack = s; });
    batch.SetRanges(safe, {ValueRange{0, Bytes{2}}}, [&](const Status& s) { safe_ack = s; });
    BatchHandle handle = cluster.host(0).kvs().DispatchBatch(std::move(batch));

    const Status aggregate = handle.Wait();
    EXPECT_TRUE(handle.done());  // every group resolved — errored, not wedged
    EXPECT_EQ(aggregate.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(doomed_ack.code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(doomed_ack.ToString().find(doomed), std::string::npos)
        << doomed_ack.ToString();
    EXPECT_TRUE(safe_ack.ok()) << safe_ack.ToString();
    EXPECT_EQ(cluster.kvs().Get(safe).value(), (Bytes{2}));
  });
}

}  // namespace
}  // namespace faasm
