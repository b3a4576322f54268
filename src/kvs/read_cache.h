// ReadCache: the per-host cache over global-tier reads (kvs_client.h).
//
// Entries hold WHOLE values only, keyed by (key, shard-map epoch) and
// stamped with the virtual time they were fetched. A lookup is
// served only when ALL of these hold:
//
//   - the entry was installed under the map's CURRENT epoch — a membership
//     change invalidates every older entry implicitly, because a cached
//     value may have been written through its new master since;
//   - the entry is no older than the lease, so a cached read is stale by at
//     most the configured lease (bounded staleness, the Cloudburst-style
//     contract for read-mostly keys). The lease is the cache's only
//     freshness bound;
//   - the requested range lies inside the cached value (ranged reads are
//     served by slicing a cached full value; partial reads never populate
//     the cache, so it can never serve bytes it did not fetch).
//
// Coherence is completed by the owning KvsClient, which Invalidate()s a
// key's entry on every local mutation (Set/SetRanges/Append,
// batched or not, at ENQUEUE time so a host's own pending writes are never
// masked by its cache) and on every global-lock acquisition (a reader under
// a lock must observe the bytes the lock serialises — never a lease). Writes
// by OTHER hosts inside the lease window are by design not observed: the
// cache is opt-in, for read-mostly keys that tolerate bounded staleness.
//
// The cache is disabled until set_lease() is given a positive lease; every
// path through it is then counted (hits/misses/invalidations) for the bench
// ablations.
//
// The cache is tier ONE of the client's three-tier read path (kvs_client.h):
// a miss may still be served in-process by a co-located replica (tier two)
// before any RPC is paid, and a whole-value replica serve re-populates this
// cache under the same rules as a remote fetch — tier two refreshes tier
// one.
#ifndef FAASM_KVS_READ_CACHE_H_
#define FAASM_KVS_READ_CACHE_H_

#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/stats.h"
#include "kvs/router.h"

namespace faasm {

class ReadCache {
 public:
  // Total cached bytes across entries; the stalest entries are evicted when
  // an insert would exceed this.
  static constexpr size_t kMaxCachedBytes = size_t{256} * 1024 * 1024;

  // `shards` is the routing map whose epoch keys the entries.
  ReadCache(Clock* clock, const ShardMap* shards) : clock_(clock), shards_(shards) {}

  // A non-positive lease disables the cache.
  void set_lease(TimeNs lease_ns) { lease_ = lease_ns; }
  TimeNs lease() const { return lease_; }
  bool enabled() const { return lease_ > 0; }

  // Serves [offset, offset+len) sliced out of a fresh full-value entry
  // (len may be the whole-value sentinel); on a hit, `value_size` (when
  // given) receives the whole value's length. Counts a hit or a miss.
  std::optional<Bytes> Lookup(const std::string& key, uint64_t offset, uint64_t len,
                              uint64_t* value_size = nullptr);

  // Installs a full value fetched from the key's master (stamps it with the
  // current epoch and virtual time).
  void InsertFull(const std::string& key, Bytes value);

  // Drops the key's entry (local write / global-lock acquisition).
  void Invalidate(const std::string& key);

  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  uint64_t invalidations() const { return invalidations_.value(); }

 private:
  struct Entry {
    uint64_t epoch = 0;
    Bytes value;
    TimeNs value_at = 0;
  };

  uint64_t CurrentEpoch() const { return shards_->epoch(); }
  // Requires mutex_. Returns the key's entry if it survives the epoch check,
  // dropping (and counting) it otherwise.
  Entry* LiveEntryLocked(const std::string& key);
  // True while `stamp` is within the lease of now.
  bool FreshLocked(TimeNs stamp) const;
  void EvictForLocked(size_t incoming_bytes);

  Clock* clock_;
  const ShardMap* shards_;
  TimeNs lease_ = 0;

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  size_t cached_bytes_ = 0;

  Counter hits_;
  Counter misses_;
  Counter invalidations_;
};

}  // namespace faasm

#endif  // FAASM_KVS_READ_CACHE_H_
