// Two-tier state tests: replica lifecycle, push/pull (full + chunked), page
// tracking, local and global locks, append. Everything runs in virtual
// time: state calls run inside SimExecutor activities.
#include <gtest/gtest.h>

#include <functional>

#include "sim/sim_clock.h"
#include "state/local_tier.h"

namespace faasm {
namespace {

class StateTest : public ::testing::Test {
 protected:
  StateTest()
      : network_(&executor_.clock(), NoLatency()),
        server_(&store_, &network_),
        kvs_(&network_, "host-0"),
        tier_(&kvs_, &executor_.clock()) {}

  static NetworkConfig NoLatency() {
    NetworkConfig config;
    config.charge_latency = false;
    return config;
  }

  void SeedGlobal(const std::string& key, size_t size, uint8_t fill) {
    store_.Set(key, Bytes(size, fill));
  }

  // Runs `body` as one simulated activity and waits for it (and everything
  // it spawned) to finish.
  void Run(std::function<void()> body) {
    executor_.Spawn(std::move(body));
    executor_.JoinAll();
  }

  SimExecutor executor_;
  InProcNetwork network_;
  KvStore store_;
  KvsServer server_;
  KvsClient kvs_;
  LocalTier tier_;
};

TEST_F(StateTest, PullCreatesSizedReplica) {
  SeedGlobal("k", 10000, 0x5A);
  Run([&] {
    auto kv = tier_.Lookup("k");
    EXPECT_FALSE(kv->allocated());
    ASSERT_TRUE(kv->Pull().ok());
    EXPECT_TRUE(kv->allocated());
    EXPECT_EQ(kv->size(), 10000u);
    EXPECT_EQ(kv->data()[0], 0x5A);
    EXPECT_EQ(kv->data()[9999], 0x5A);
  });
}

TEST_F(StateTest, LookupIsSharedPerKey) {
  Run([&] {
    auto a = tier_.Lookup("k");
    auto b = tier_.Lookup("k");
    EXPECT_EQ(a.get(), b.get());  // same replica object: in-memory sharing
    EXPECT_NE(tier_.Lookup("other").get(), a.get());
  });
}

TEST_F(StateTest, PushWritesGlobal) {
  Run([&] {
    auto kv = tier_.Lookup("k");
    ASSERT_TRUE(kv->EnsureCapacity(128).ok());
    std::memset(kv->data(), 0x7B, 128);
    ASSERT_TRUE(kv->Push().ok());
    EXPECT_EQ(store_.Get("k").value(), Bytes(128, 0x7B));
  });
}

TEST_F(StateTest, ChunkedPullFetchesOnlyTouchedPages) {
  Run([&] {
    const size_t size = 64 * StateKeyValue::kStatePageBytes;
    SeedGlobal("big", size, 0x11);
    auto kv = tier_.Lookup("big");
    network_.ResetStats();
    // Pull a 2-page window in the middle.
    ASSERT_TRUE(
        kv->PullChunk(10 * StateKeyValue::kStatePageBytes, 2 * StateKeyValue::kStatePageBytes)
            .ok());
    EXPECT_EQ(kv->resident_pages(), 2u);
    const uint64_t bytes_after_chunk = network_.total_bytes();
    // Two pages (+ size probe) — far less than the full 256 KiB value.
    EXPECT_LT(bytes_after_chunk, 3 * StateKeyValue::kStatePageBytes);
    EXPECT_EQ(kv->data()[10 * StateKeyValue::kStatePageBytes], 0x11);

    // Re-pulling the same chunk is free (pages resident).
    ASSERT_TRUE(kv->PullChunk(10 * StateKeyValue::kStatePageBytes, StateKeyValue::kStatePageBytes)
                    .ok());
    EXPECT_EQ(network_.total_bytes(), bytes_after_chunk);
  });
}

TEST_F(StateTest, PullAfterInvalidateRefetches) {
  SeedGlobal("k", StateKeyValue::kStatePageBytes, 0x22);
  Run([&] {
    auto kv = tier_.Lookup("k");
    ASSERT_TRUE(kv->Pull().ok());
    store_.Set("k", Bytes(StateKeyValue::kStatePageBytes, 0x33));
    ASSERT_TRUE(kv->Pull().ok());
    EXPECT_EQ(kv->data()[0], 0x22);  // cached: pages resident, no refetch
    kv->InvalidateReplica();
    ASSERT_TRUE(kv->Pull().ok());
    EXPECT_EQ(kv->data()[0], 0x33);
  });
}

TEST_F(StateTest, PushChunkWritesRange) {
  SeedGlobal("k", 8192, 0x00);
  Run([&] {
    auto kv = tier_.Lookup("k");
    ASSERT_TRUE(kv->Pull().ok());
    std::memset(kv->data() + 4096, 0xEE, 100);
    ASSERT_TRUE(kv->PushChunk(4096, 100).ok());
    auto global = store_.Get("k").value();
    EXPECT_EQ(global[4095], 0x00);
    EXPECT_EQ(global[4096], 0xEE);
    EXPECT_EQ(global[4195], 0xEE);
    EXPECT_EQ(global[4196], 0x00);
  });
}

TEST_F(StateTest, PartialPagePushDoesNotMarkPagePresent) {
  Run([&] {
    // Regression: pushing [0, 100) used to mark all of page 0 present, so a
    // later pull skipped fetching bytes the replica never held and read zeros.
    SeedGlobal("k", 2 * StateKeyValue::kStatePageBytes, 0xAA);
    auto kv = tier_.Lookup("k");
    ASSERT_TRUE(kv->EnsureCapacity(2 * StateKeyValue::kStatePageBytes).ok());
    std::memset(kv->data(), 0xBB, 100);
    ASSERT_TRUE(kv->PushChunk(0, 100).ok());
    EXPECT_EQ(kv->resident_pages(), 0u);  // page 0 only partially covered
    ASSERT_TRUE(kv->PullChunk(0, StateKeyValue::kStatePageBytes).ok());
    EXPECT_EQ(kv->data()[0], 0xBB);    // the pushed bytes round-trip via the global tier
    EXPECT_EQ(kv->data()[200], 0xAA);  // bytes the replica never held are fetched, not zeros
  });
}

TEST_F(StateTest, FullyCoveredPagesMarkedPresentByPush) {
  SeedGlobal("k", 3 * StateKeyValue::kStatePageBytes, 0x00);
  Run([&] {
    auto kv = tier_.Lookup("k");
    ASSERT_TRUE(kv->EnsureCapacity(3 * StateKeyValue::kStatePageBytes).ok());
    // [0, page+100): page 0 fully covered, page 1 partially.
    ASSERT_TRUE(kv->PushChunk(0, StateKeyValue::kStatePageBytes + 100).ok());
    EXPECT_EQ(kv->resident_pages(), 1u);
  });
}

TEST_F(StateTest, PushTailPageOfValueCountsAsCovered) {
  Run([&] {
    // A value ending mid-page: pushing through the end covers the tail page.
    SeedGlobal("k", StateKeyValue::kStatePageBytes + 100, 0x00);
    auto kv = tier_.Lookup("k");
    ASSERT_TRUE(kv->Pull().ok());
    kv->InvalidateReplica();
    ASSERT_TRUE(kv->PushChunk(StateKeyValue::kStatePageBytes, 100).ok());
    EXPECT_EQ(kv->resident_pages(), 1u);
  });
}

TEST_F(StateTest, DeltaPushShipsOnlyDirtyRuns) {
  Run([&] {
    const size_t size = 16 * StateKeyValue::kStatePageBytes;
    SeedGlobal("k", size, 0x00);
    auto kv = tier_.Lookup("k");
    ASSERT_TRUE(kv->Pull().ok());

    // Two disjoint dirty runs via the write API.
    uint8_t* first = kv->WritableData(StateKeyValue::kStatePageBytes, 10);
    ASSERT_NE(first, nullptr);
    std::memset(first, 0x11, 10);
    uint8_t* second = kv->WritableData(5 * StateKeyValue::kStatePageBytes,
                                       2 * StateKeyValue::kStatePageBytes);
    ASSERT_NE(second, nullptr);
    std::memset(second, 0x22, 2 * StateKeyValue::kStatePageBytes);

    network_.ResetStats();
    ASSERT_TRUE(kv->Push().ok());
    // Three dirty pages shipped in ONE round trip — not the 64 KiB value, not
    // one RPC per run.
    EXPECT_LT(network_.total_bytes(), 4 * StateKeyValue::kStatePageBytes);
    EXPECT_EQ(network_.StatsFor("host-0").tx_messages, 1u);

    auto global = store_.Get("k").value();
    EXPECT_EQ(global[StateKeyValue::kStatePageBytes], 0x11);
    EXPECT_EQ(global[5 * StateKeyValue::kStatePageBytes], 0x22);
    EXPECT_EQ(global[7 * StateKeyValue::kStatePageBytes - 1], 0x22);
    EXPECT_EQ(global[0], 0x00);
  });
}

TEST_F(StateTest, DeltaPushClearsDirtyAfterSuccess) {
  SeedGlobal("k", 8 * StateKeyValue::kStatePageBytes, 0x00);
  Run([&] {
    auto kv = tier_.Lookup("k");
    ASSERT_TRUE(kv->Pull().ok());
    std::memset(kv->WritableData(0, 100), 0x33, 100);
    ASSERT_TRUE(kv->Push().ok());
    // Nothing dirtied since: a second push moves no bytes at all.
    network_.ResetStats();
    ASSERT_TRUE(kv->Push().ok());
    EXPECT_EQ(network_.total_bytes(), 0u);
  });
}

TEST_F(StateTest, SparseTrackedWriteDoesNotClobberGlobalNeighbours) {
  Run([&] {
    // Delta pushes ship whole pages, so WritableData on a never-pulled page
    // must fill it from the global tier first (write-allocate) — otherwise the
    // push would overwrite live global bytes with local zeros.
    SeedGlobal("k", 2 * StateKeyValue::kStatePageBytes, 0xAA);
    auto kv = tier_.Lookup("k");
    ASSERT_TRUE(kv->EnsureCapacity(2 * StateKeyValue::kStatePageBytes).ok());
    uint8_t* dst = kv->WritableData(0, 10);
    ASSERT_NE(dst, nullptr);
    std::memset(dst, 0xBB, 10);
    ASSERT_TRUE(kv->Push().ok());
    auto global = store_.Get("k").value();
    EXPECT_EQ(global[0], 0xBB);
    EXPECT_EQ(global[9], 0xBB);
    // Bytes of page 0 the writer did not touch keep their global value.
    EXPECT_EQ(global[10], 0xAA);
    EXPECT_EQ(global[StateKeyValue::kStatePageBytes - 1], 0xAA);
  });
}

TEST_F(StateTest, WritableDataOnMissingGlobalValueStillWorks) {
  Run([&] {
    // Brand-new value: nothing in the global tier to fill from; the pull
    // failure is tolerated and the push creates the value.
    auto kv = tier_.Lookup("fresh");
    ASSERT_TRUE(kv->EnsureCapacity(100).ok());
    uint8_t* dst = kv->WritableData(0, 10);
    ASSERT_NE(dst, nullptr);
    std::memset(dst, 0xCC, 10);
    ASSERT_TRUE(kv->Push().ok());
    EXPECT_EQ(store_.Get("fresh").value()[0], 0xCC);
  });
}

TEST_F(StateTest, UntrackedWritersFallBackToFullPush) {
  Run([&] {
    // Legacy writers bypass the write API entirely; with no dirty information
    // ever recorded, Push must conservatively ship the whole value.
    auto kv = tier_.Lookup("k");
    ASSERT_TRUE(kv->EnsureCapacity(2 * StateKeyValue::kStatePageBytes).ok());
    std::memset(kv->data(), 0x44, 2 * StateKeyValue::kStatePageBytes);
    ASSERT_TRUE(kv->Push().ok());
    EXPECT_EQ(store_.Get("k").value(),
              Bytes(2 * StateKeyValue::kStatePageBytes, 0x44));
  });
}

TEST_F(StateTest, PushFullShipsWholeValueDespiteTracking) {
  SeedGlobal("k", 4 * StateKeyValue::kStatePageBytes, 0x00);
  Run([&] {
    auto kv = tier_.Lookup("k");
    ASSERT_TRUE(kv->Pull().ok());
    std::memset(kv->WritableData(0, 10), 0x55, 10);
    // Out-of-band (untracked) write on another page.
    kv->data()[3 * StateKeyValue::kStatePageBytes] = 0x66;
    ASSERT_TRUE(kv->PushFull().ok());
    auto global = store_.Get("k").value();
    EXPECT_EQ(global[0], 0x55);
    EXPECT_EQ(global[3 * StateKeyValue::kStatePageBytes], 0x66);
    // The full push superseded the pending delta: nothing left to push.
    network_.ResetStats();
    ASSERT_TRUE(kv->Push().ok());
    EXPECT_EQ(network_.total_bytes(), 0u);
  });
}

TEST_F(StateTest, OutOfRangeChunksRejected) {
  SeedGlobal("k", 100, 0x01);
  Run([&] {
    auto kv = tier_.Lookup("k");
    ASSERT_TRUE(kv->Pull().ok());
    EXPECT_EQ(kv->PullChunk(90, 20).code(), StatusCode::kOutOfRange);
    EXPECT_EQ(kv->PushChunk(90, 20).code(), StatusCode::kOutOfRange);
  });
}

TEST_F(StateTest, PushBeforeAllocationFails) {
  Run([&] {
    auto kv = tier_.Lookup("k");
    EXPECT_EQ(kv->Push().code(), StatusCode::kFailedPrecondition);
  });
}

TEST_F(StateTest, CapacityIsFixedByFirstAllocation) {
  Run([&] {
    auto kv = tier_.Lookup("k");
    ASSERT_TRUE(kv->EnsureCapacity(4096).ok());
    EXPECT_TRUE(kv->EnsureCapacity(2000).ok());  // shrink request is fine
    EXPECT_EQ(kv->EnsureCapacity(1 << 20).code(), StatusCode::kResourceExhausted);
  });
}

TEST_F(StateTest, AppendBypassesReplica) {
  Run([&] {
    auto kv = tier_.Lookup("events");
    ASSERT_TRUE(kv->Append(Bytes{1, 2}).ok());
    ASSERT_TRUE(kv->Append(Bytes{3}).ok());
    EXPECT_EQ(kv->ReadAppended().value(), (Bytes{1, 2, 3}));
  });
}

TEST_F(StateTest, GlobalLocksSerialiseAcrossTiers) {
  Run([&] {
    auto kv = tier_.Lookup("k");
    ASSERT_TRUE(kv->LockGlobalWrite().ok());
    // Another host cannot take the lock now.
    KvsClient other(&network_, "host-1");
    EXPECT_FALSE(other.TryLockWrite("k").value());
    ASSERT_TRUE(kv->UnlockGlobalWrite().ok());
    EXPECT_TRUE(other.TryLockWrite("k").value());
    ASSERT_TRUE(other.UnlockWrite("k").ok());
  });
}

TEST_F(StateTest, LocalLocksAllowSharedReaders) {
  Run([&] {
    auto kv = tier_.Lookup("k");
    ASSERT_TRUE(kv->EnsureCapacity(16).ok());
    kv->LockRead();
    kv->LockRead();  // second reader does not deadlock
    kv->UnlockRead();
    kv->UnlockRead();
    kv->LockWrite();
    kv->UnlockWrite();
  });
}

TEST_F(StateTest, TierAccounting) {
  SeedGlobal("a", 1000, 1);
  SeedGlobal("b", 2000, 2);
  Run([&] {
    ASSERT_TRUE(tier_.Lookup("a")->Pull().ok());
    ASSERT_TRUE(tier_.Lookup("b")->Pull().ok());
    EXPECT_EQ(tier_.key_count(), 2u);
    EXPECT_EQ(tier_.resident_bytes(), 3000u);
    tier_.Clear();
    EXPECT_EQ(tier_.key_count(), 0u);
  });
}

}  // namespace
}  // namespace faasm
