// Regression: the first sizing of a replica is single-winner. Several calls
// on one host that touch the same unsized key at the same virtual instant
// (concurrent prefetches and chunked pulls) used to race on creating the
// replica's region: two regions could be made and one freed under the other
// call's reader. Every activity must read exact bytes, and the suite must
// run clean under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "sim/sim_clock.h"
#include "state/local_tier.h"

namespace faasm {
namespace {

Bytes Pattern(size_t size, uint8_t salt) {
  Bytes bytes(size);
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<uint8_t>((i * 131 + salt) & 0xff);
  }
  return bytes;
}

TEST(FirstSizingTest, ConcurrentFirstTouchesOfOneKeyShareOneRegion) {
  constexpr int kRounds = 16;
  constexpr int kActivities = 8;
  const size_t size = 3 * StateKeyValue::kStatePageBytes + 123;

  SimExecutor executor;
  InProcNetwork network(&executor.clock(), NetworkConfig{});
  KvStore store;
  KvsServer server(&store, &network);
  KvsClient kvs(&network, "host-0");
  LocalTier tier(&kvs, &executor.clock());

  std::atomic<int> exact_reads{0};
  for (int round = 0; round < kRounds; ++round) {
    const std::string key = "first-touch-" + std::to_string(round);
    const Bytes expected = Pattern(size, static_cast<uint8_t>(round));
    store.Set(key, expected);
    std::vector<const uint8_t*> views(kActivities, nullptr);
    {
      // Every activity starts at the same virtual instant, so their sizing
      // round trips land together too.
      SimClock::Hold hold(executor.clock());
      for (int a = 0; a < kActivities; ++a) {
        executor.Spawn([&, a] {
          std::shared_ptr<StateKeyValue> replica = tier.Lookup(key);
          const Status pulled =
              a % 2 == 0 ? tier.Prefetch({key}) : replica->PullChunk(0, size);
          ASSERT_TRUE(pulled.ok()) << pulled.ToString();
          ASSERT_TRUE(replica->allocated());
          ASSERT_EQ(replica->size(), size);
          replica->LockRead();
          views[a] = replica->data();
          const bool exact = std::equal(expected.begin(), expected.end(), views[a]);
          replica->UnlockRead();
          EXPECT_TRUE(exact) << "activity " << a;
          exact_reads.fetch_add(exact ? 1 : 0);
        });
      }
    }
    executor.JoinAll();
    // One region, whoever won the sizing: every activity read the same view.
    for (const uint8_t* view : views) {
      EXPECT_EQ(view, tier.Lookup(key)->data());
    }
  }
  EXPECT_EQ(exact_reads.load(), kRounds * kActivities);
}

}  // namespace
}  // namespace faasm
