#include "kvs/read_cache.h"

#include <gtest/gtest.h>

#include "kvs/router.h"

namespace faasm {
namespace {

// Hand-cranked clock: lease expiry is tested by moving time, not sleeping.
class ManualClock final : public Clock {
 public:
  TimeNs Now() const override { return now_; }
  void SleepFor(TimeNs duration_ns) override { now_ += duration_ns; }
  void Advance(TimeNs delta_ns) { now_ += delta_ns; }
  void Wake(WakeChannel& channel) override { channel.Bump(); }

 protected:
  // Single-threaded: nobody else can wake a parked caller, so a park just
  // jumps to its deadline.
  void Park(WakeChannel&, uint64_t, TimeNs deadline_ns) override { now_ = deadline_ns; }

 private:
  TimeNs now_ = 0;
};

constexpr TimeNs kLease = 2 * kMillisecond;
constexpr uint64_t kWhole = ~uint64_t{0};  // ReadOptions::kWholeValue

class ReadCacheTest : public ::testing::Test {
 protected:
  ReadCacheTest() : cache_(&clock_, &map_) { cache_.set_lease(kLease); }

  ManualClock clock_;
  const ShardMap map_;  // never changes membership: entries expire by lease only
  ReadCache cache_;
};

TEST_F(ReadCacheTest, DisabledUntilPositiveLease) {
  ReadCache off(&clock_, &map_);
  EXPECT_FALSE(off.enabled());
  off.InsertFull("k", Bytes{1, 2, 3});
  EXPECT_FALSE(off.Lookup("k", 0, kWhole).has_value());
  off.set_lease(kLease);
  EXPECT_TRUE(off.enabled());
}

TEST_F(ReadCacheTest, ServesWithinLeaseThenExpires) {
  cache_.InsertFull("k", Bytes{1, 2, 3});
  auto hit = cache_.Lookup("k", 0, kWhole);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (Bytes{1, 2, 3}));
  EXPECT_EQ(cache_.hits(), 1u);

  // Still inside the lease after most of it elapses...
  clock_.Advance(kLease - 1);
  EXPECT_TRUE(cache_.Lookup("k", 0, kWhole).has_value());
  // ...but one tick past it the entry no longer serves.
  clock_.Advance(2);
  EXPECT_FALSE(cache_.Lookup("k", 0, kWhole).has_value());
  EXPECT_EQ(cache_.misses(), 1u);
}

TEST_F(ReadCacheTest, SlicesRangedReadsFromTheFullValue) {
  cache_.InsertFull("k", Bytes{0, 1, 2, 3, 4, 5});
  uint64_t size = 0;
  auto middle = cache_.Lookup("k", 2, 3, &size);
  ASSERT_TRUE(middle.has_value());
  EXPECT_EQ(*middle, (Bytes{2, 3, 4}));
  EXPECT_EQ(size, 6u);  // a slice still answers the whole value's length
  // A tail read past the end clamps (the store's GetRange does the same).
  auto tail = cache_.Lookup("k", 4, 100);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(*tail, (Bytes{4, 5}));
  // An offset beyond the value misses: the master owns the error surface.
  EXPECT_FALSE(cache_.Lookup("k", 7, 1).has_value());
}

TEST_F(ReadCacheTest, InvalidateDropsTheEntry) {
  cache_.InsertFull("k", Bytes{1});
  cache_.Invalidate("k");
  EXPECT_EQ(cache_.invalidations(), 1u);
  EXPECT_FALSE(cache_.Lookup("k", 0, kWhole).has_value());
  // Invalidating a key that holds nothing counts nothing.
  cache_.Invalidate("absent");
  EXPECT_EQ(cache_.invalidations(), 1u);
}

TEST_F(ReadCacheTest, EpochFlipInvalidatesImplicitly) {
  ShardMap map;
  map.AddShard(ShardMap::EndpointForHost("host-0"));
  ReadCache cache(&clock_, &map);
  cache.set_lease(kLease);

  cache.InsertFull("k", Bytes{7});
  EXPECT_TRUE(cache.Lookup("k", 0, kWhole).has_value());

  // A membership change bumps the map epoch: the entry was installed under
  // the old epoch, so it must never serve again (its key's mastership — and
  // possibly its value, through the new master — may have changed).
  map.AddShard(ShardMap::EndpointForHost("host-1"));
  EXPECT_FALSE(cache.Lookup("k", 0, kWhole).has_value());
  EXPECT_EQ(cache.invalidations(), 1u);

  // Reinstalling under the new epoch serves again.
  cache.InsertFull("k", Bytes{8});
  auto hit = cache.Lookup("k", 0, kWhole);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (Bytes{8}));
}

TEST_F(ReadCacheTest, FailoverPromotionInvalidatesLikeAnyEpochFlip) {
  // A crash failover is a shard REMOVAL with a backup promoted in its place
  // (runtime/cluster.h KillHost): the epoch bumps exactly once, and a value
  // cached against the dead master's epoch must not be served from the
  // promoted copy's era — the backup may already have taken newer writes.
  ShardMap map;
  map.AddShard(ShardMap::EndpointForHost("host-0"));
  map.AddShard(ShardMap::EndpointForHost("host-1"));
  ReadCache cache(&clock_, &map);
  cache.set_lease(kLease);

  cache.InsertFull("k", Bytes{1});  // read while host-1 was alive
  const uint64_t epoch_before = map.epoch();

  // host-1 dies; Failover promotes its keys elsewhere and removes the shard.
  map.RemoveShard(ShardMap::EndpointForHost("host-1"));
  EXPECT_EQ(map.epoch(), epoch_before + 1);

  // Well inside the lease window, yet the pre-crash value is refused.
  clock_.Advance(1);
  EXPECT_FALSE(cache.Lookup("k", 0, kWhole).has_value());
  EXPECT_EQ(cache.invalidations(), 1u);

  // The first post-promotion read repopulates under the survivor epoch and
  // serves normally from then on.
  cache.InsertFull("k", Bytes{2});
  auto hit = cache.Lookup("k", 0, kWhole);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (Bytes{2}));
}

}  // namespace
}  // namespace faasm
