// Property-style tests for epoch-versioned shard assignments: under random
// sequences of host add/remove, (a) a single-host change remaps only ~1/N
// of the keyspace, (b) routing is deterministic within an epoch, (c) the
// router's old→new diff exactly matches a brute-force per-key comparison
// of the two assignments, and (d) readers racing membership changes only
// ever observe assignments the map actually published.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "common/rng.h"
#include "kvs/router.h"

namespace faasm {
namespace {

std::string Endpoint(int i) { return ShardMap::EndpointForHost("host-" + std::to_string(i)); }

std::vector<std::string> ProbeKeys(int n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (int i = 0; i < n; ++i) {
    keys.push_back("key-" + std::to_string(i));
  }
  return keys;
}

// Brute force: rehash every key against both assignments.
std::vector<KeyMove> BruteForceDiff(const ShardAssignment& before, const ShardAssignment& after,
                                    const std::vector<std::string>& keys) {
  std::vector<KeyMove> moves;
  for (const std::string& key : keys) {
    const std::string from = before.MasterFor(key);
    const std::string to = after.MasterFor(key);
    if (from != to) {
      moves.push_back(KeyMove{key, from, to});
    }
  }
  return moves;
}

void ExpectSameMoves(const std::vector<KeyMove>& actual, const std::vector<KeyMove>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  // DiffKeys preserves the input key order, as does the brute force.
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].key, expected[i].key);
    EXPECT_EQ(actual[i].from, expected[i].from);
    EXPECT_EQ(actual[i].to, expected[i].to);
  }
}

TEST(RouterEpochTest, EpochBumpsOnlyOnEffectiveMembershipChanges) {
  ShardMap map;
  EXPECT_EQ(map.epoch(), 0u);
  map.AddShard(Endpoint(0));
  EXPECT_EQ(map.epoch(), 1u);
  map.AddShard(Endpoint(0));  // duplicate: no change, no bump
  EXPECT_EQ(map.epoch(), 1u);
  map.RemoveShard(Endpoint(7));  // not a member: no bump
  EXPECT_EQ(map.epoch(), 1u);
  map.AddShard(Endpoint(1));
  map.RemoveShard(Endpoint(1));
  EXPECT_EQ(map.epoch(), 3u);
}

TEST(RouterEpochTest, RoutingIsDeterministicWithinAnEpoch) {
  Rng rng(7);
  ShardMap map;
  for (int i = 0; i < 5; ++i) {
    map.AddShard(Endpoint(i));
  }
  const auto keys = ProbeKeys(2000);
  const uint64_t epoch = map.epoch();
  std::map<std::string, std::string> first;
  for (const std::string& key : keys) {
    first[key] = map.MasterFor(key);
  }
  // Re-resolution in any order gives identical masters while the epoch
  // stands, and the live map agrees with its own snapshot.
  const auto snapshot = map.Snapshot();
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const std::string& key = keys[rng.NextBelow(keys.size())];
      EXPECT_EQ(map.MasterFor(key), first[key]);
      EXPECT_EQ(snapshot->MasterFor(key), first[key]);
    }
  }
  EXPECT_EQ(map.epoch(), epoch);
}

TEST(RouterEpochTest, SingleHostChangeMovesAboutOneNth) {
  // Adding one host to an 8-host map must migrate well under 2/8 of keys
  // (the ISSUE acceptance bound), and removing one from N+1 the same.
  const auto keys = ProbeKeys(20000);
  std::set<std::string> endpoints;
  for (int i = 0; i < 8; ++i) {
    endpoints.insert(Endpoint(i));
  }
  const ShardAssignment eight(endpoints);
  const ShardAssignment nine = eight.With(Endpoint(8));

  const auto added = DiffKeys(eight, nine, keys);
  // Expected share 1/9 ≈ 11%; the hard ceiling is 2/8 = 25%.
  EXPECT_GT(added.size(), keys.size() / 50);
  EXPECT_LT(added.size(), keys.size() * 2 / 8);
  for (const KeyMove& move : added) {
    EXPECT_EQ(move.to, Endpoint(8));  // keys only move TO the new shard
  }

  const auto removed = DiffKeys(nine, eight, keys);
  EXPECT_EQ(removed.size(), added.size());  // exact inverse
  for (const KeyMove& move : removed) {
    EXPECT_EQ(move.from, Endpoint(8));  // keys only move OFF the leaver
  }
}

TEST(RouterEpochTest, DiffMatchesBruteForceUnderRandomChurn) {
  Rng rng(42);
  const auto keys = ProbeKeys(5000);

  std::set<std::string> members;
  ShardMap map;
  for (int i = 0; i < 4; ++i) {
    members.insert(Endpoint(i));
    map.AddShard(Endpoint(i));
  }
  int next_host = 4;

  for (int step = 0; step < 40; ++step) {
    const auto before = map.Snapshot();
    // Random single-host membership change (grow-biased so the cluster
    // wanders between a few and a dozen hosts).
    const bool grow = members.size() <= 2 || rng.NextBelow(100) < 55;
    std::string changed;
    if (grow) {
      changed = Endpoint(next_host++);
      members.insert(changed);
      map.AddShard(changed);
    } else {
      auto it = members.begin();
      std::advance(it, rng.NextBelow(members.size()));
      changed = *it;
      members.erase(it);
      map.RemoveShard(changed);
    }
    const auto after = map.Snapshot();

    // (c) The diff equals the brute-force rehash, exactly.
    const auto diff = DiffKeys(*before, *after, keys);
    ExpectSameMoves(diff, BruteForceDiff(*before, *after, keys));

    // (a) A single-host change moves roughly the changed host's share —
    // never more than twice 1/N of the keyspace (vnode variance allowed).
    const size_t n_after = members.size();
    const size_t n_smaller = std::min(before->endpoints().size(), n_after);
    EXPECT_LT(diff.size(), 2 * keys.size() / n_smaller)
        << "step " << step << " resized to " << n_after << " hosts";
    // Every move involves the changed endpoint on the correct side.
    for (const KeyMove& move : diff) {
      EXPECT_EQ(grow ? move.to : move.from, changed);
    }

    // (b) Within the new epoch, the live map and snapshot agree.
    for (int probe = 0; probe < 200; ++probe) {
      const std::string& key = keys[rng.NextBelow(keys.size())];
      EXPECT_EQ(map.MasterFor(key), after->MasterFor(key));
    }
  }
}

TEST(RouterEpochTest, ConcurrentReadersOnlyObservePublishedAssignments) {
  // One writer toggles shards 3 and 4 in and out while readers route,
  // resolve holders and take snapshots. The writer's cycle publishes exactly
  // four endpoint sets; every answer a reader sees must come from one of
  // them, never from a half-built ring.
  constexpr int kFactor = 2;
  std::set<std::string> base;
  for (int i = 0; i < 3; ++i) {
    base.insert(Endpoint(i));
  }
  std::vector<std::set<std::string>> published_sets = {base, base, base, base};
  published_sets[1].insert(Endpoint(3));
  published_sets[2].insert({Endpoint(3), Endpoint(4)});
  published_sets[3].insert(Endpoint(4));
  std::vector<ShardAssignment> published;
  for (const auto& endpoints : published_sets) {
    published.emplace_back(endpoints);
  }
  const auto keys = ProbeKeys(64);
  auto is_published_master = [&](const std::string& key, const std::string& master) {
    return std::any_of(published.begin(), published.end(),
                       [&](const ShardAssignment& a) { return a.MasterFor(key) == master; });
  };
  auto is_published_holders = [&](const std::string& key, const std::vector<std::string>& holders) {
    return std::any_of(published.begin(), published.end(), [&](const ShardAssignment& a) {
      std::vector<std::string> expected = {a.MasterFor(key)};
      for (std::string& backup : BackupsFor(a.endpoints(), expected.front(), kFactor)) {
        expected.push_back(std::move(backup));
      }
      return holders == expected;
    });
  };

  ShardMap map;
  map.set_replication_factor(kFactor);
  for (const std::string& endpoint : base) {
    map.AddShard(endpoint);
  }
  std::atomic<bool> done{false};
  std::atomic<int> bad_masters{0}, bad_holders{0}, bad_snapshots{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_epoch = 0;
      for (size_t i = r; !done.load() || i < keys.size() * 4; ++i) {
        const std::string& key = keys[i % keys.size()];
        bad_masters += is_published_master(key, map.MasterFor(key)) ? 0 : 1;
        bad_holders += is_published_holders(key, map.HoldersFor(key)) ? 0 : 1;
        if (i % 16 != 0) {
          continue;
        }
        // A snapshot is one published assignment, immutable, routing
        // exactly like a fresh ring over its own endpoint set, and epochs
        // never run backwards.
        const auto snapshot = map.Snapshot();
        const ShardAssignment rebuilt(snapshot->endpoints());
        const bool known = std::find(published_sets.begin(), published_sets.end(),
                                     snapshot->endpoints()) != published_sets.end();
        bool agrees = known && snapshot->epoch() >= last_epoch;
        for (const std::string& probe : keys) {
          agrees = agrees && snapshot->MasterFor(probe) == rebuilt.MasterFor(probe);
        }
        bad_snapshots += agrees ? 0 : 1;
        last_epoch = snapshot->epoch();
      }
    });
  }
  for (int cycle = 0; cycle < 50; ++cycle) {
    map.AddShard(Endpoint(3));
    map.AddShard(Endpoint(4));
    map.RemoveShard(Endpoint(3));
    map.RemoveShard(Endpoint(4));
  }
  done = true;
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(bad_masters.load(), 0);
  EXPECT_EQ(bad_holders.load(), 0);
  EXPECT_EQ(bad_snapshots.load(), 0);
  EXPECT_EQ(map.epoch(), 3u + 50 * 4);
  EXPECT_EQ(map.Snapshot()->endpoints(), base);
}

}  // namespace
}  // namespace faasm
