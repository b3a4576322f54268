// StateKeyValue: one state value's local-tier replica (§4.2).
//
// The replica lives in a memfd-backed SharedRegion, so (i) every Faaslet on
// the host that maps the key sees the same bytes with zero copies, and
// (ii) the bytes can be mapped directly into a Faaslet's wasm linear memory
// (get_state returns a pointer, not a copy — §3.3).
//
// Synchronisation with the authoritative copy in the global tier is explicit
// via push/pull. The global tier is SHARDED (kvs/router.h): each key has a
// master shard co-located with one host ("kvs:<host>", per-key consistent
// hashing), and the KvsClient underneath routes every push/pull/lock to the
// key's master. When this host IS the master (master_local()), push/pull run
// against the in-process shard and move zero network bytes — replicas
// co-located with their master sync for free (§4.3). Traffic is otherwise
// proportional to what was touched in BOTH directions:
//
//   Pull  — page-granular presence tracking (`page_present_`): only missing
//           state pages are fetched, so sparse readers (e.g. the SGD matrix
//           column slices) transfer only what they read, and a replica whose
//           pages are all present is served from the local tier with no RPC
//           at all (the warm read of co-located functions, §4.2). A Pull()
//           goes back to the master only on first touch, after
//           InvalidateReplica(), and after a global lock is acquired
//           (RefreshForLock), and then it is ONE whole-value read: the
//           bytes' length sizes the replica, and there is no sizing RPC.
//           The bytes fill every page that is not present, plus what a
//           growth added past the old size in a present tail page. An
//           unsized PullChunk() is likewise one ranged read, whose answer
//           carries the value's length. Fetches go through the client's
//           unified read API (KvsClient::Read), so whole-value pulls are
//           served by (and refresh) the per-host read cache when one is
//           enabled, and multi-key prefetches group into kGetBatch RPCs
//           (LocalTier::Prefetch → InstallPulled).
//   Push  — page-granular dirty tracking (the SharedRegion's DirtyTracker):
//           writers that go through WritableData()/MarkDirty() — the host
//           interface, the DDOs, and guest stores into mapped state — record
//           the pages they touch, and Push() coalesces the dirty pages into
//           runs (adjacent/overlapping runs fused into maximal wire ranges)
//           and ships them as ONE multi-range write (kSetRanges), so N dirty
//           runs cost one accounted round trip. ClearDirty happens
//           atomically with run collection; a push failure re-marks the
//           runs.
//
// ONE PUSH PATH. Push(), PushChunk() and PushFull() are each one synchronous
// write: a one-op kSetRanges through the client's single-key pipeline
// (KvsClient::SetRanges). A push that returns Ok is applied at the key's
// master — and, with replication on, at every live backup. Pushes of one key
// made by one caller land in the order they were made. The multi-key write
// is LocalTier::Push(keys), the write twin of LocalTier::Prefetch: one
// OpBatch of every key's dirty ranges, so K keys mastered on M hosts cost at
// most M round trips, pipelined, instead of K.
//
// Per-op error model: whichever path sent it, a push settles its bookkeeping
// in one place (SettlePush). On success the pages the push covered are
// marked present; on failure the pushed ranges are re-marked dirty, so the
// next push retries them, and the error is returned. A push racing a shard
// migration bounces with kWrongMaster and the client retries it against the
// new epoch — acked increments can stall, never get lost. No push waits on
// another call's ops.
//
// CLUSTER MEMBERSHIP IS ELASTIC (kvs/migration.h): a key's master shard can
// move while replicas hold it. The epoch/redirect/migration protocol keeps
// the two-tier contract intact:
//   - Mastership is always resolved against the live ShardMap, so
//     master_local() and every push/pull/lock follow the key's CURRENT
//     master; nothing here caches a route across ops.
//   - While a key is mid-handoff (filtered on the source shard, or reached
//     through a stale route after the epoch flipped), global-tier ops
//     answer kWrongMaster; the KvsClient underneath backs off and retries
//     against the new epoch's route, so a Push/Pull/lock racing a
//     migration STALLS briefly instead of failing or losing data.
//   - Distributed-lock ownership migrates with the key: a global lock held
//     across a membership change keeps excluding, and the holder's unlock
//     lands on the new master.
//   - Membership can also change by CRASH (runtime/cluster.h KillHost).
//     With the replication substrate on (kvs/replication.h,
//     replication_factor > 1) the contract above survives abrupt master
//     loss: a push ack means the write (and any lock state) is on every
//     live backup, so when a backup is promoted into the new master nothing
//     an acked push wrote — and no held lock — is lost; the push merely
//     stalls through the kUnavailable/kWrongMaster bounce while the epoch
//     flips, exactly like a migration race. At replication_factor 1 a crash
//     loses the dead shard's keys outright (counted, never silently).
//   - The local replica itself never moves — only mastership does. After a
//     migration a formerly master-local replica simply pays cross-host
//     round trips again (and vice versa); the bytes it holds stay valid
//     because a moving key cannot be mutated during the handoff.
//
// READ CACHE COHERENCE (kvs/read_cache.h, opt-in per host). When the host's
// client has the read cache enabled, a cross-host pull may be served from a
// leased local copy. When is a cached read ALLOWED to be stale, and when is
// it not?
//   - ALLOWED: relative to writes pushed by OTHER hosts within the lease —
//     the ordinary two-tier weak-consistency window (§4.3), merely extended
//     by a bounded lease. Keys that cannot tolerate this must not enable
//     the cache.
//   - NEVER: relative to this host's own pushes (every local write, batched
//     or not, invalidates the key's cached read before it is sent); across a
//     membership change (entries are epoch-keyed); and under a global lock —
//     acquiring LockGlobalRead/Write drops the client's cached read AND this
//     replica's clean pages (dirty pages hold unpushed local writes and are
//     kept), so the first pull under the lock rereads the value and
//     refetches the bytes the lock serialises, including bytes a resize
//     added to a kept dirty tail page. No stale read under a lock, ever.
//
// Consistency rules of the delta-push protocol:
//   - Between pushes, the global tier may lag the replica arbitrarily; a
//     reader on another host observes the value as of that host's last pull
//     and the writers' last push (two-tier weak consistency, §4.3). Use the
//     global locks for stronger guarantees.
//   - A delta push writes ONLY dirtied pages, so concurrently-pushed deltas
//     from different hosts interleave at page granularity instead of
//     last-writer-wins over the whole value.
//   - Writers that bypass the write API (raw data() stores from host code)
//     are invisible to the tracker. If a value has NEVER been marked dirty,
//     Push() falls back to a conservative full-value push; once any writer
//     has marked the value, unmarked writes may be lost — route every writer
//     through WritableData()/MarkDirty (guest stores through mapped state
//     regions are forwarded automatically by LinearMemory).
//   - Pushed pages are recorded as present only when the pushed range covers
//     the page entirely (up to the value size): a partially-pushed page may
//     still hold bytes the replica never pulled, and must stay fetchable.
//
// Local consistency uses a clock-aware readers/writer lock; global
// consistency uses the KVS distributed locks.
#ifndef FAASM_STATE_STATE_KEY_VALUE_H_
#define FAASM_STATE_STATE_KEY_VALUE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/poll_lock.h"
#include "common/status.h"
#include "kvs/kvs_client.h"
#include "mem/shared_region.h"

namespace faasm {

class StateKeyValue {
 public:
  // Pull/push granularity for chunk tracking.
  static constexpr size_t kStatePageBytes = 4096;

  StateKeyValue(std::string key, KvsClient* kvs, Clock* clock);

  const std::string& key() const { return key_; }
  size_t size() const { return size_.load(); }
  bool allocated() const { return allocated_.load(std::memory_order_acquire); }

  // Allocates (or verifies) the replica with capacity for `size` bytes.
  // The first allocation fixes the capacity: other Faaslets may already have
  // the region mapped, so it can never move. Safe to race: exactly one
  // caller creates the region, and every caller then sees that one.
  Status EnsureCapacity(size_t size);

  // Direct pointer into the replica (host view). Callers needing consistency
  // guard accesses with the local lock; HOGWILD-style code reads/writes racily
  // by design.
  uint8_t* data();
  std::shared_ptr<SharedRegion> region();

  // --- Write API (dirty tracking) ---------------------------------------------
  // Pointer into [offset, offset+len) with the covered pages marked dirty, so
  // the next Push() ships them. Returns nullptr when the replica is not
  // allocated or the range is out of bounds. Writers must route through this
  // (or MarkDirty) for delta pushes to see their writes.
  //
  // Partially covered boundary pages that are not yet resident are pulled
  // first (write-allocate): delta pushes ship whole pages, and an unfilled
  // page would push local zeros over live global bytes. Because of that pull,
  // do not call this while holding the local write lock unless the range
  // covers its pages end to end.
  //
  // The pages are marked dirty when the pointer is handed out, BEFORE the
  // caller writes. When another Faaslet may Push() this value concurrently,
  // call MarkDirty again after the bytes land: a push racing with the write
  // could otherwise collect-and-clear the early mark while the data was
  // still in flight, and the write would never be delta-pushed.
  uint8_t* WritableData(size_t offset, size_t len);
  // Records a write to [offset, offset+len) done through a raw pointer. No
  // write-allocate: the bytes are already written, so the caller must have
  // pulled the surrounding pages (or own them outright) for delta pushes to
  // be faithful — guest code gets this by calling pull_state before writing.
  void MarkDirty(size_t offset, size_t len);

  // --- Local tier locks (lock_state_read / lock_state_write) -----------------
  // Pull() and PullChunk() take the write lock to copy fetched bytes in. A
  // caller that holds either lock on this key passes `local_lock_held`:
  // a pull that must fetch then fails with kFailedPrecondition instead of
  // waiting on itself forever.
  void LockRead() { local_lock_.LockRead(); }
  void UnlockRead() { local_lock_.UnlockRead(); }
  void LockWrite() { local_lock_.LockWrite(); }
  void UnlockWrite() { local_lock_.UnlockWrite(); }

  // --- Two-tier synchronisation ------------------------------------------------
  // Pull the whole value; allocates the replica at the global size if needed.
  // A replica with every page present is served locally: no RPC. Otherwise
  // it reads the whole value from the master in one read and installs it
  // into the pages not present: on first touch, after InvalidateReplica(),
  // and under a freshly acquired global lock until one such Pull() succeeds
  // (even when every page is dirty, so a value resized by the previous lock
  // holder is seen). Bytes a resize adds to a kept dirty tail page are
  // installed too.
  Status Pull(bool local_lock_held = false);
  // Installs a complete value fetched out of band (the batched-prefetch
  // path, LocalTier::Prefetch): InvalidateReplica() then Pull()'s install,
  // so every page is replaced, including pages holding unpushed local
  // writes. Every page is then present, so the next Pull() is free.
  Status InstallPulled(const Bytes& value);
  // Pull only [offset, offset+len); fetches just the missing state pages.
  // On an unallocated replica it is one ranged read of the chunk's pages,
  // whose answer sizes the replica to the whole value.
  Status PullChunk(size_t offset, size_t len, bool local_lock_held = false);
  // Delta push: coalesces the dirty pages into runs and ships them as one
  // multi-range write. No-op when nothing is dirty. Falls back to a
  // full-value push if no writer has ever marked this value (legacy raw
  // writers — see the consistency rules above).
  Status Push();
  // Unconditional full-value push (the pre-delta behaviour; ablation baseline).
  // A failed push leaves the whole value dirty for the next Push().
  Status PushFull();
  // Pushes [offset, offset+len) whatever its dirty state.
  Status PushChunk(size_t offset, size_t len);
  // Append bytes to the global value (event-stream style; bypasses replica).
  Status Append(const Bytes& bytes);
  Result<Bytes> ReadAppended();

  // --- Global locks (lock_state_global_read / write) -----------------------------
  Status LockGlobalRead();
  Status LockGlobalWrite();
  Status UnlockGlobalRead();
  Status UnlockGlobalWrite();

  // True when this key's global-tier master shard lives on this host: the
  // paper's co-location case, where Push/Pull are in-process and free. The
  // scheduler uses this as a placement hint (state_affinity_key).
  bool master_local() const { return kvs_->MasterLocal(key_); }

  // Marks all pages absent so the next pull refetches (used by tests and
  // consistency-sensitive DDOs).
  void InvalidateReplica();

  // Number of state pages currently resident in the local tier.
  size_t resident_pages() const;

 private:
  friend class LocalTier;  // Push(keys) batches TakePushRanges + SettlePush

  // Fetches [offset,len) (page-aligned, ending on a page boundary or at the
  // value's end) from the global tier into the replica (InstallWindow).
  Status FetchRange(size_t offset, size_t len, bool local_lock_held);
  // Sizes the replica to `value_size` and copies `window` (the value's bytes
  // from the page-aligned `offset`, ending on a page boundary or at the
  // value's end) into every page it covers that is not present, plus the
  // bytes past the old size in a present page; marks the covered pages
  // present. The copy takes the local write lock, so it fails instead when
  // the caller holds a local lock on this key (see LockRead).
  Status InstallWindow(const Bytes& window, size_t offset, uint64_t value_size,
                       bool local_lock_held);

  // What the next Push() ships, taken out of the dirty tracker: the dirty
  // runs clipped to the value and fused, or the whole value when no writer
  // ever marked it. Empty when nothing is dirty.
  Result<std::vector<ValueRange>> TakePushRanges();
  // The one push path: writes `ranges` in one op, then settles them.
  Status PushRanges(std::vector<ValueRange> ranges);
  // The push bookkeeping, run once per pushed op with its final status: on
  // success marks the pages the runs fully cover present, on failure
  // re-marks the runs dirty.
  void SettlePush(const std::vector<DirtyRun>& runs, const Status& status);
  // The extents (offset, length) of pushed ranges, for SettlePush.
  static std::vector<DirtyRun> RunsOf(const std::vector<ValueRange>& ranges);

  // Marks the pages fully covered by a pushed [offset,len) as present (the
  // last page counts as covered when the range reaches the value size).
  // Requires pages_mutex_.
  void MarkPushedRangePresentLocked(size_t offset, size_t len);

  // Lock-acquisition freshness (see the coherence rules above): drops every
  // CLEAN page's present bit, keeping dirty pages (unpushed local writes
  // must not be refetched over), and makes Pull() read again.
  void RefreshForLock();

  std::string key_;
  KvsClient* kvs_;
  Clock* clock_;

  // Written once, by the first EnsureCapacity, under sizing_mutex_;
  // allocated_ (release) publishes it, so read region_ only after
  // allocated() returned true.
  std::mutex sizing_mutex_;
  std::shared_ptr<SharedRegion> region_;
  std::atomic<bool> allocated_{false};
  std::atomic<size_t> size_{0};

  PollLock local_lock_;
  mutable std::mutex pages_mutex_;
  std::vector<bool> page_present_;
  // Bumped by RefreshForLock. Until a Pull() that started under the current
  // epoch succeeds (sized_epoch_), Pull() reads the master even when every
  // page is present (dirty pages stay present across the lock).
  std::atomic<uint64_t> lock_epoch_{0};
  std::atomic<uint64_t> sized_epoch_{0};
};

}  // namespace faasm

#endif  // FAASM_STATE_STATE_KEY_VALUE_H_
