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
//           column slices) transfer only what they read. Fetches go through
//           the client's unified read API (KvsClient::Read), so whole-value
//           pulls are served by (and refresh) the per-host read cache when
//           one is enabled, and multi-key prefetches group into kGetBatch
//           RPCs (LocalTier::Prefetch → InstallPulled).
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
// ONE PUSH PATH (kvs_client.h kBatch). Push(), PushChunk() and PushFull()
// all ship through the host client's ambient OpBatch: each enqueues its
// ranges with a completion ack, and the batch ships grouped per master
// endpoint — pushes of K keys mastered on M hosts cost at most M round
// trips, pipelined, instead of K. Pushes of one key apply in the order they
// were made, whichever of the three made them.
//
// Flush/visibility semantics:
//   - With no StateBatch scope open (local_tier.h), every push is its own
//     flush barrier: it returns only after ITS op's ack fired, so a push ==
//     "durable in the global tier" (the unbatched call pattern). The
//     grouping win then comes from whatever else was already pending on
//     the client.
//   - Inside a StateBatch scope, a push returns kOk meaning ACCEPTED: the
//     op is durable only once a flush barrier completes. Barriers are the
//     scope's Close()/destructor, and every global-tier sync point —
//     Pull/PullChunk, LockGlobal*/UnlockGlobal* (pushes made under a global
//     lock are durable before the lock releases), chain/await in the host
//     interface — plus call completion in the runtime, so no op ever
//     outlives its Faaslet.
//   - Per-op error model: each enqueued push carries an ack; on failure the
//     ack re-marks the pushed ranges dirty (the next Push() retries them)
//     and the error surfaces at the flush barrier. A push racing a shard
//     migration bounces per op with kWrongMaster and the client retries
//     just that op against the new epoch — acked increments can stall,
//     never get lost.
//
// CLUSTER MEMBERSHIP IS ELASTIC (kvs/migration.h): a key's master shard can
// move while replicas hold it. The epoch/redirect/migration protocol keeps
// the two-tier contract intact:
//   - Mastership is always resolved against the live ShardMap, so
//     master_local() and every push/pull/lock follow the key's CURRENT
//     master; nothing here caches a route across ops.
//   - While a key is mid-handoff (frozen on the source shard, or reached
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
//     because a frozen key cannot be mutated during the handoff.
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
//     or not, invalidates the key's cached read at enqueue time); across a
//     membership change (entries are epoch-keyed); and under a global lock —
//     acquiring LockGlobalRead/Write drops the client's cached read AND this
//     replica's clean pages (dirty pages hold unpushed local writes and are
//     kept), so the first pull under the lock refetches the bytes the lock
//     serialises. No stale read under a lock, ever.
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
  void LockRead() { local_lock_.LockRead(); }
  void UnlockRead() { local_lock_.UnlockRead(); }
  void LockWrite() { local_lock_.LockWrite(); }
  void UnlockWrite() { local_lock_.UnlockWrite(); }

  // --- Two-tier synchronisation ------------------------------------------------
  // Pull the whole value; allocates the replica at the global size if needed.
  // No-op (beyond a size check) if every page is already present, and a pure
  // no-op when a Prefetch already installed the value since the last
  // invalidation.
  Status Pull();
  // Installs a complete value fetched out of band (the batched-prefetch
  // path, LocalTier::Prefetch): a wholesale refresh equivalent to
  // InvalidateReplica() + Pull() — every page is replaced, including pages
  // holding unpushed local writes. The next Pull() is then free.
  Status InstallPulled(const Bytes& value);
  // Pull only [offset, offset+len); fetches just the missing state pages.
  Status PullChunk(size_t offset, size_t len);
  // Delta push: coalesces the dirty pages into runs and ships them as one
  // batched multi-range write. No-op when nothing is dirty. Falls back to a
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
  // Settled exactly once per batched push: status of THIS op after retries.
  struct PushAck {
    std::atomic<bool> done{false};
    Status status = OkStatus();  // written before done (release/acquire)
    WakeChannel wake;            // woken once done is set
  };

  // Fetches [offset,len) from the global tier into the replica.
  Status FetchRange(size_t offset, size_t len);

  // The one push path: enqueues `ranges` into the client's ambient batch
  // with an ack that marks them present (or dirty again on failure), then
  // flushes and waits for that ack unless a StateBatch scope defers to a
  // later barrier.
  Status PushRanges(std::vector<ValueRange> ranges);

  // Marks the pages fully covered by a pushed [offset,len) as present (the
  // last page counts as covered when the range reaches the value size).
  // Requires pages_mutex_.
  void MarkPushedRangePresentLocked(size_t offset, size_t len);

  // Lock-acquisition freshness (see the coherence rules above): drops the
  // prefetch freshness flag and every CLEAN page's present bit, keeping
  // dirty pages (unpushed local writes must not be refetched over).
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
  // Set by InstallPulled, consumed by the next Pull() (which then skips even
  // the sizing RPC); cleared by InvalidateReplica and lock acquisition.
  std::atomic<bool> pulled_fresh_{false};
};

}  // namespace faasm

#endif  // FAASM_STATE_STATE_KEY_VALUE_H_
