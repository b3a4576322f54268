#include "kvs/kv_store.h"

#include <gtest/gtest.h>

namespace faasm {
namespace {

// The status every public single-key method answers for `key`, in one call
// each (the unchecked Exists/SetMembers inspectors have no status).
std::vector<StatusCode> EverySingleKeyMethod(KvStore& store, const std::string& key) {
  return {
      store.Set(key, Bytes{9}).code(),
      store.Get(key).status().code(),
      store.GetRange(key, 0, 1).status().code(),
      store.Size(key).status().code(),
      store.SetRanges(key, {ValueRange{1, Bytes{9}}}).code(),
      store.Append(key, Bytes{9}).status().code(),
      store.TryLockRead(key, "a").status().code(),
      store.UnlockRead(key, "a").code(),
      store.TryLockWrite(key, "a").status().code(),
      store.UnlockWrite(key, "a").code(),
      store.SetAdd(key, "m").status().code(),
      store.SetRemove(key, "m").status().code(),
      store.Delete(key).code(),
  };
}

TEST(KvStoreTest, SetGetDelete) {
  KvStore store;
  ASSERT_TRUE(store.Set("k", Bytes{1, 2, 3}).ok());
  EXPECT_TRUE(store.Exists("k"));
  EXPECT_EQ(store.Get("k").value(), (Bytes{1, 2, 3}));
  EXPECT_EQ(store.Size("k").value(), 3u);
  ASSERT_TRUE(store.Delete("k").ok());
  EXPECT_FALSE(store.Exists("k"));
  EXPECT_EQ(store.Get("k").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Delete("k").code(), StatusCode::kNotFound);
}

TEST(KvStoreTest, RangeReadWrite) {
  KvStore store;
  ASSERT_TRUE(store.Set("k", Bytes{0, 1, 2, 3, 4, 5, 6, 7}).ok());
  EXPECT_EQ(store.GetRange("k", 2, 3).value(), (Bytes{2, 3, 4}));
  // Range past end is clamped.
  EXPECT_EQ(store.GetRange("k", 6, 100).value(), (Bytes{6, 7}));
  EXPECT_EQ(store.GetRange("k", 9, 1).status().code(), StatusCode::kOutOfRange);

  // A one-range SetRanges extends the value.
  ASSERT_TRUE(store.SetRanges("k", {ValueRange{10, Bytes{9, 9}}}).ok());
  EXPECT_EQ(store.Size("k").value(), 12u);
  EXPECT_EQ(store.GetRange("k", 10, 2).value(), (Bytes{9, 9}));
  // ...and creates a missing key.
  ASSERT_TRUE(store.SetRanges("new", {ValueRange{4, Bytes{1}}}).ok());
  EXPECT_EQ(store.Size("new").value(), 5u);
}

TEST(KvStoreTest, Append) {
  KvStore store;
  EXPECT_EQ(store.Append("log", Bytes{1}).value(), 1u);
  EXPECT_EQ(store.Append("log", Bytes{2, 3}).value(), 3u);
  EXPECT_EQ(store.Get("log").value(), (Bytes{1, 2, 3}));
}

TEST(KvStoreTest, ReadWriteLocks) {
  KvStore store;
  EXPECT_TRUE(store.TryLockRead("k", "a").value());
  EXPECT_TRUE(store.TryLockRead("k", "b").value());    // shared readers
  EXPECT_FALSE(store.TryLockWrite("k", "c").value());  // blocked by readers
  ASSERT_TRUE(store.UnlockRead("k", "a").ok());
  ASSERT_TRUE(store.UnlockRead("k", "b").ok());
  EXPECT_TRUE(store.TryLockWrite("k", "c").value());
  EXPECT_FALSE(store.TryLockRead("k", "a").value());   // blocked by writer
  EXPECT_FALSE(store.TryLockWrite("k", "d").value());  // exclusive
  EXPECT_EQ(store.UnlockWrite("k", "other").code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(store.UnlockWrite("k", "c").ok());
  EXPECT_TRUE(store.TryLockRead("k", "a").value());
}

TEST(KvStoreTest, UnlockWithoutLockFails) {
  KvStore store;
  EXPECT_EQ(store.UnlockRead("k", "a").code(), StatusCode::kFailedPrecondition);
}

TEST(KvStoreTest, SetOperations) {
  KvStore store;
  EXPECT_TRUE(store.SetAdd("warm:f", "host-1").value());
  EXPECT_FALSE(store.SetAdd("warm:f", "host-1").value());  // duplicate
  EXPECT_TRUE(store.SetAdd("warm:f", "host-2").value());
  auto members = store.SetMembers("warm:f");
  EXPECT_EQ(members.size(), 2u);
  EXPECT_TRUE(store.SetRemove("warm:f", "host-1").value());
  EXPECT_FALSE(store.SetRemove("warm:f", "host-1").value());
  EXPECT_EQ(store.SetMembers("warm:f").size(), 1u);
  EXPECT_TRUE(store.SetMembers("nonexistent").empty());
}

TEST(KvStoreTest, Accounting) {
  KvStore store;
  ASSERT_TRUE(store.Set("a", Bytes(100)).ok());
  ASSERT_TRUE(store.Set("b", Bytes(50)).ok());
  EXPECT_EQ(store.key_count(), 2u);
  EXPECT_EQ(store.total_bytes(), 150u);
}

TEST(KvStoreTest, KeysListsEveryFootprint) {
  KvStore store;
  ASSERT_TRUE(store.Set("value-key", Bytes{1}).ok());
  ASSERT_TRUE(store.TryLockWrite("lock-key", "owner").value());
  ASSERT_TRUE(store.SetAdd("set-key", "member").value());
  auto keys = store.Keys();
  EXPECT_EQ(keys.size(), 3u);
  // Released locks and emptied sets drop out of the listing.
  ASSERT_TRUE(store.UnlockWrite("lock-key", "owner").ok());
  ASSERT_TRUE(store.SetRemove("set-key", "member").value());
  EXPECT_EQ(store.Keys(), std::vector<std::string>{"value-key"});
}

TEST(KvStoreTest, FrozenKeyBouncesOpsUntilUnfrozen) {
  KvStore store;
  ASSERT_TRUE(store.Set("k", Bytes{1, 2}).ok());
  store.FreezeKey("k");
  EXPECT_TRUE(store.IsFrozen("k"));
  // Every mutation AND every read answers kWrongMaster (the migration
  // redirect); other keys are untouched.
  for (StatusCode code : EverySingleKeyMethod(store, "k")) {
    EXPECT_EQ(code, StatusCode::kWrongMaster);
  }
  EXPECT_EQ(EverySingleKeyMethod(store, "other"), std::vector<StatusCode>(13, StatusCode::kOk));

  store.UnfreezeKey("k");
  EXPECT_EQ(store.Get("k").value(), (Bytes{1, 2}));  // untouched by bounced ops
}

TEST(KvStoreTest, ExportInstallMovesFullFootprint) {
  KvStore source;
  KvStore destination;
  ASSERT_TRUE(source.Set("k", Bytes{7, 8}).ok());
  ASSERT_TRUE(source.TryLockWrite("k", "host-3").value());
  ASSERT_TRUE(source.SetAdd("k", "member-a").value());

  KeyExport record = source.ExportKey("k");
  // Round-trips through the wire encoding.
  auto decoded = KeyExport::Deserialize(record.Serialize());
  ASSERT_TRUE(decoded.ok());
  destination.InstallKey("k", decoded.value());

  EXPECT_EQ(destination.Get("k").value(), (Bytes{7, 8}));
  EXPECT_EQ(destination.SetMembers("k"), std::vector<std::string>{"member-a"});
  // Lock ownership travelled: the original owner can unlock, others cannot
  // acquire.
  EXPECT_FALSE(destination.TryLockWrite("k", "host-4").value());
  EXPECT_TRUE(destination.UnlockWrite("k", "host-3").ok());
}

TEST(KvStoreTest, EraseKeyUnfreezesAndClearsFootprint) {
  KvStore store;
  ASSERT_TRUE(store.Set("k", Bytes{1}).ok());
  store.FreezeKey("k");
  store.EraseKey("k");
  EXPECT_FALSE(store.Exists("k"));
  EXPECT_FALSE(store.IsFrozen("k"));
  // InstallKey likewise thaws a frozen key as it moves (back) in.
  store.FreezeKey("k");
  store.InstallKey("k", KeyExport{true, Bytes{5}, 0, "", {}});
  EXPECT_FALSE(store.IsFrozen("k"));
  EXPECT_EQ(store.Get("k").value(), (Bytes{5}));
}

TEST(KvStoreTest, MigrationFilterBouncesMovingKeysEvenBeforeTheyExist) {
  KvStore store;
  ASSERT_TRUE(store.Set("kept", Bytes{1}).ok());
  store.SetMigrationFilter([](const std::string& key) { return key.rfind("mv-", 0) == 0; });
  // A moving key cannot be CREATED behind the migration's enumeration...
  EXPECT_EQ(store.Set("mv-new", Bytes{2}).code(), StatusCode::kWrongMaster);
  EXPECT_EQ(store.TryLockWrite("mv-new", "a").status().code(), StatusCode::kWrongMaster);
  EXPECT_FALSE(store.Exists("mv-new"));
  // ...while non-moving keys are untouched.
  EXPECT_TRUE(store.SetRanges("kept", {ValueRange{0, Bytes{9}}}).ok());
  store.ClearMigrationFilter();
  EXPECT_TRUE(store.Set("mv-new", Bytes{2}).ok());
}

TEST(KvStoreTest, OwnershipGuardBouncesForeignKeys) {
  KvStore store;
  // Guard mimicking a live shard map: this store masters only "mine-*".
  store.SetOwnershipGuard([](const std::string& key) { return key.rfind("mine-", 0) == 0; });
  EXPECT_TRUE(store.Set("mine-a", Bytes{1}).ok());
  EXPECT_EQ(EverySingleKeyMethod(store, "mine-a"), std::vector<StatusCode>(13, StatusCode::kOk));
  for (StatusCode code : EverySingleKeyMethod(store, "theirs-b")) {
    EXPECT_EQ(code, StatusCode::kWrongMaster);
  }
  EXPECT_FALSE(store.Exists("theirs-b"));
  // InstallKey is exempt (migration streams arrive before the flip makes
  // this store the master), and the guard follows its predicate live.
  store.InstallKey("theirs-b", KeyExport{true, Bytes{3}, 0, "", {}});
  store.SetOwnershipGuard([](const std::string&) { return true; });
  EXPECT_EQ(store.Get("theirs-b").value(), (Bytes{3}));
}

TEST(KvStoreTest, EverySuccessfulMutationReachesTheHookOnceWithAFreshSeq) {
  KvStore store;
  std::vector<KvsOp> forwarded;
  std::vector<uint64_t> seqs;
  store.SetUpdateHook([&](const std::vector<KvStore::ForwardedOp>& ops) {
    for (const KvStore::ForwardedOp& op : ops) {
      forwarded.push_back(op.op->op);
      seqs.push_back(op.seq);
    }
  });
  // Each mutating method once, succeeding; the reads in between forward
  // nothing.
  EXPECT_EQ(EverySingleKeyMethod(store, "k"), std::vector<StatusCode>(13, StatusCode::kOk));
  const std::vector<KvsOp> mutations = {
      KvsOp::kSet,        KvsOp::kSetRanges, KvsOp::kAppend,      KvsOp::kLockRead,
      KvsOp::kUnlockRead, KvsOp::kLockWrite, KvsOp::kUnlockWrite, KvsOp::kSetAdd,
      KvsOp::kSetRemove,  KvsOp::kDelete};
  EXPECT_EQ(forwarded, mutations);
  for (size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_GT(seqs[i], seqs[i - 1]) << "seq " << i << " is not fresh";
  }
  EXPECT_GT(seqs.front(), 0u);

  // Failed ops and a lock try that did not acquire changed nothing: no
  // forward. Neither does a write under HookPause (seeding, mirrors).
  const size_t before = forwarded.size();
  EXPECT_EQ(store.Delete("k").code(), StatusCode::kNotFound);
  EXPECT_EQ(store.UnlockRead("k", "a").code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(store.TryLockWrite("k", "a").value());
  EXPECT_FALSE(store.TryLockRead("k", "b").value());
  {
    KvStore::HookPause pause;
    ASSERT_TRUE(store.Set("k", Bytes{1}).ok());
  }
  EXPECT_EQ(forwarded.size(), before + 1);  // only the acquired write lock
}

// --- Batched execution ----------------------------------------------------------

TEST(KvStoreTest, ExecuteBatchMixedOpsReturnPerOpResults) {
  KvStore store;
  ASSERT_TRUE(store.Set("existing", Bytes{1, 2, 3}).ok());

  std::vector<KvsBatchOp> ops(5);
  ops[0].op = KvsOp::kSet;
  ops[0].key = "a";
  ops[0].bytes = Bytes{9};
  ops[1].op = KvsOp::kGet;
  ops[1].key = "existing";
  ops[2].op = KvsOp::kGet;
  ops[2].key = "missing";
  ops[3].op = KvsOp::kSetAdd;
  ops[3].key = "set";
  ops[3].member = "m1";
  ops[4].op = KvsOp::kAppend;
  ops[4].key = "existing";
  ops[4].bytes = Bytes{4};

  std::vector<KvsBatchResult> results = store.ExecuteBatch(ops);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_TRUE(results[1].status.ok());
  EXPECT_EQ(results[1].value, (Bytes{1, 2, 3}));
  // One op failing (per-op NotFound) does not poison its neighbours.
  EXPECT_EQ(results[2].status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(results[3].status.ok());
  EXPECT_TRUE(results[3].flag);
  EXPECT_TRUE(results[4].status.ok());
  EXPECT_EQ(results[4].length, 4u);
  EXPECT_EQ(store.Get("a").value(), (Bytes{9}));
  EXPECT_EQ(store.Get("existing").value(), (Bytes{1, 2, 3, 4}));
}

TEST(KvStoreTest, ExecuteBatchPreservesPerKeyOrder) {
  KvStore store;
  std::vector<KvsBatchOp> ops(3);
  for (auto& op : ops) {
    op.key = "k";
  }
  ops[0].op = KvsOp::kSet;
  ops[0].bytes = Bytes{1};
  ops[1].op = KvsOp::kAppend;
  ops[1].bytes = Bytes{2};
  ops[2].op = KvsOp::kGet;
  auto results = store.ExecuteBatch(ops);
  EXPECT_EQ(results[2].value, (Bytes{1, 2}));
}

TEST(KvStoreTest, ExecuteBatchBouncesFilteredKeysEvenBeforeTheyExist) {
  // Regression for the batched flavour of the enumeration race: a batch
  // containing a key that does NOT exist yet on a shard whose migration
  // filter marks it as moving must bounce that op per-op — creating it
  // would strand the key behind the coordinator's enumeration — while the
  // non-moving ops in the same batch land.
  KvStore store;
  ASSERT_TRUE(store.Set("kept", Bytes{1}).ok());
  store.SetMigrationFilter([](const std::string& key) { return key.rfind("mv-", 0) == 0; });

  std::vector<KvsBatchOp> ops(3);
  ops[0].op = KvsOp::kSet;
  ops[0].key = "mv-new";  // does not exist; filter says it is moving
  ops[0].bytes = Bytes{2};
  ops[1].op = KvsOp::kSetRanges;
  ops[1].key = "kept";
  ops[1].ranges = {ValueRange{0, Bytes{9}}};
  ops[2].op = KvsOp::kSetAdd;
  ops[2].key = "mv-other";  // also moving, also nonexistent
  ops[2].member = "m";

  auto results = store.ExecuteBatch(ops);
  EXPECT_EQ(results[0].status.code(), StatusCode::kWrongMaster);
  EXPECT_TRUE(results[1].status.ok());
  EXPECT_EQ(results[2].status.code(), StatusCode::kWrongMaster);
  EXPECT_FALSE(store.Exists("mv-new"));
  EXPECT_EQ(store.Get("kept").value(), (Bytes{9}));

  // After the flip the filter clears and the same batch lands whole.
  store.ClearMigrationFilter();
  auto retried = store.ExecuteBatch(ops);
  EXPECT_TRUE(retried[0].status.ok());
  EXPECT_TRUE(retried[2].status.ok());
  EXPECT_EQ(store.Get("mv-new").value(), (Bytes{2}));
}

TEST(KvStoreTest, ExecuteBatchBouncesFrozenKeyOnly) {
  KvStore store;
  ASSERT_TRUE(store.Set("frozen", Bytes{1}).ok());
  ASSERT_TRUE(store.Set("live", Bytes{2}).ok());
  store.FreezeKey("frozen");
  std::vector<KvsBatchOp> ops(2);
  ops[0].op = KvsOp::kSet;
  ops[0].key = "frozen";
  ops[0].bytes = Bytes{9};
  ops[1].op = KvsOp::kSet;
  ops[1].key = "live";
  ops[1].bytes = Bytes{9};
  auto results = store.ExecuteBatch(ops);
  EXPECT_EQ(results[0].status.code(), StatusCode::kWrongMaster);
  EXPECT_TRUE(results[1].status.ok());
  store.UnfreezeKey("frozen");
  EXPECT_EQ(store.Get("frozen").value(), (Bytes{1}));  // the write never landed
}

// --- Range coalescing -----------------------------------------------------------

TEST(MergeValueRangesTest, AdjacentRangesFuseIntoOneRun) {
  std::vector<ValueRange> ranges;
  ranges.push_back(ValueRange{0, Bytes{1, 2}});
  ranges.push_back(ValueRange{2, Bytes{3, 4}});  // touches the first: [0,2)+[2,4)
  ranges.push_back(ValueRange{10, Bytes{5}});    // disjoint
  auto merged = MergeValueRanges(std::move(ranges));
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].offset, 0u);
  EXPECT_EQ(merged[0].bytes, (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(merged[1].offset, 10u);
  EXPECT_EQ(merged[1].bytes, (Bytes{5}));
}

TEST(MergeValueRangesTest, OverlappingRangesLaterWriteWins) {
  // Applying the ranges sequentially through SetRanges would leave the
  // later write's bytes on the overlap; the merge must preserve that.
  std::vector<ValueRange> ranges;
  ranges.push_back(ValueRange{0, Bytes{1, 1, 1, 1}});
  ranges.push_back(ValueRange{2, Bytes{7, 7}});
  auto merged = MergeValueRanges(std::move(ranges));
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].offset, 0u);
  EXPECT_EQ(merged[0].bytes, (Bytes{1, 1, 7, 7}));
}

TEST(MergeValueRangesTest, UnsortedInputAndEmptyRangesHandled) {
  std::vector<ValueRange> ranges;
  ranges.push_back(ValueRange{8, Bytes{8, 9}});
  ranges.push_back(ValueRange{4, Bytes{}});  // empty: dropped
  ranges.push_back(ValueRange{6, Bytes{6, 7}});
  auto merged = MergeValueRanges(std::move(ranges));
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].offset, 6u);
  EXPECT_EQ(merged[0].bytes, (Bytes{6, 7, 8, 9}));
}

TEST(MergeValueRangesTest, DisjointRangesUnchangedBytesAndCount) {
  std::vector<ValueRange> ranges;
  ranges.push_back(ValueRange{0, Bytes{1}});
  ranges.push_back(ValueRange{5, Bytes{2}});
  auto merged = MergeValueRanges(ranges);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].bytes, (Bytes{1}));
  EXPECT_EQ(merged[1].bytes, (Bytes{2}));
}

}  // namespace
}  // namespace faasm
