// KvStore: the in-memory key/value store backing the global state tier
// (the paper deploys Redis; this is the offline equivalent with the same
// API surface the two-tier architecture needs: whole-value and ranged
// reads/writes, append, distributed read/write locks, and the set operations
// the Omega-style scheduler keeps its warm sets in).
//
// ONE REQUEST PIPELINE (kvs/kvs_client.h) ends here: ExecuteBatch is the
// store's only apply path. A client's batch (local fast path), a server's
// framed request, a replica's forwarded ops and every single-key method
// below (a one-op batch) all run through it, so each op passes the same
// servability check under its shard mutex and each applied mutation reaches
// the update hook exactly once.
//
// Shard migration support (kvs/migration.h). Three mechanisms, all checked
// under the same shard mutex that applies the op, so nothing slips between
// a coordinator's snapshot and the handoff:
//
//   - FROZEN keys (FreezeKey): a key mid-stream bounces ops with
//     kWrongMaster until the epoch flips; routing clients back off and
//     retry against the key's post-flip master.
//   - The MIGRATION FILTER (SetMigrationFilter): while a membership change
//     is in progress, ops on any key the filter marks as moving bounce —
//     including keys that do not exist yet, which closes the enumeration
//     race (a key created after the coordinator listed the store can never
//     be stranded, because creating it bounces until the flip).
//   - The OWNERSHIP GUARD (SetOwnershipGuard): a permanent predicate
//     host-colocated shards install at creation, answering "does this
//     store master `key` under the LIVE shard map?". A straggler op that
//     resolved its route epochs ago bounces here instead of resurrecting a
//     moved key; because the guard reads the live map, a key whose
//     mastership later returns is immediately servable again. It is the
//     only ownership check: servers leave it to the store.
//
// The direct Exists/SetMembers inspectors keep answering regardless (their
// bool/vector signatures have no error channel; ShardedKvs and tests read
// stores through them). The client's kExists/kSetMembers wire ops run
// through ExecuteBatch like every other op, so they bounce and re-route.
// ExportKey / InstallKey / EraseKey move a key's full footprint (value
// bytes, lock state, set members) between stores.
#ifndef FAASM_KVS_KV_STORE_H_
#define FAASM_KVS_KV_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace faasm {

// Operation codes of the KVS wire protocol (kvs_client.h). They live here —
// below the client/server pair — because batched requests (KvsBatchOp,
// ExecuteBatch) carry them through the store layer. Codes 1-16 are sub-ops:
// they travel only inside a kBatch / kGetBatch frame (a single client op is
// a one-op batch) or the replication forward channel. Codes 17-19 are the
// request types a KvsServer answers.
enum class KvsOp : uint8_t {
  kGet = 1,
  kSet = 2,
  kGetRange = 3,
  // 4 is retired (the one-range write, now a one-range kSetRanges).
  kAppend = 5,
  kDelete = 6,
  kExists = 7,
  kSize = 8,
  kLockRead = 9,
  kLockWrite = 10,
  kUnlockRead = 11,
  kUnlockWrite = 12,
  kSetAdd = 13,
  kSetRemove = 14,
  kSetMembers = 15,
  kSetRanges = 16,
  // Shard migration: installs a KeyExport streamed from the key's previous
  // master. Exempt from the ownership guard (it arrives BEFORE the
  // epoch flips the key to this shard).
  kMigrateInstall = 17,
  // A framed group of sub-ops executed as one request (ExecuteBatch): the
  // cross-shard ops of one state push travel as ONE RPC per endpoint.
  kBatch = 18,
  // Read-only twin of kBatch: carries only IsReadBatchOp sub-ops (a
  // prefetch's grouped pulls, or one read-only client op). Same framing and
  // per-op result vector; a mutating sub-op smuggled into one is rejected
  // per op with InvalidArgument instead of executing.
  kGetBatch = 19,
};

// True for the sub-ops a kGetBatch (read-only batch) may carry: every
// sub-op that reads and changes nothing.
inline bool IsReadBatchOp(KvsOp op) {
  switch (op) {
    case KvsOp::kGet:
    case KvsOp::kGetRange:
    case KvsOp::kExists:
    case KvsOp::kSize:
    case KvsOp::kSetMembers:
      return true;
    default:
      return false;
  }
}

// True for ops that mutate store state. This is the set the replication
// substrate (kvs/replication.h) forwards primary→backup; the lock ops count
// because lock state must survive a failover exactly as it survives a
// migration.
inline bool IsMutatingOp(KvsOp op) {
  switch (op) {
    case KvsOp::kSet:
    case KvsOp::kSetRanges:
    case KvsOp::kAppend:
    case KvsOp::kDelete:
    case KvsOp::kLockRead:
    case KvsOp::kLockWrite:
    case KvsOp::kUnlockRead:
    case KvsOp::kUnlockWrite:
    case KvsOp::kSetAdd:
    case KvsOp::kSetRemove:
      return true;
    default:
      return false;
  }
}

// One write range of a batched SetRanges: `bytes` lands at `offset`.
struct ValueRange {
  uint64_t offset = 0;
  Bytes bytes;
};

// Merges adjacent and overlapping ranges into maximal runs so contiguous
// dirty pages ship as one wire range. Later ranges win on overlap (they are
// the newer write), matching the order SetRanges applies them. Ranges are
// returned sorted by offset; total covered extent (and the bytes at every
// covered offset) are unchanged.
std::vector<ValueRange> MergeValueRanges(std::vector<ValueRange> ranges);

// One sub-op of a batched request. `op` says which fields are meaningful:
//   kGet / kDelete / kExists / kSize / kSetMembers — key only
//   kGetRange            — offset + len
//   kSet / kAppend       — bytes
//   kSetRanges           — ranges
//   kSetAdd / kSetRemove — member
//   the four lock ops    — member (the lock owner)
struct KvsBatchOp {
  KvsOp op = KvsOp::kGet;
  std::string key;
  uint64_t offset = 0;
  uint64_t len = 0;  // kGetRange only
  Bytes bytes{};
  std::vector<ValueRange> ranges{};
  std::string member{};
  // Replication forward channel only (kvs/batch_codec.h, replica dialect):
  // the primary's apply sequence for this op. Always 0 on the public kBatch
  // wire and for locally built batches.
  uint64_t seq = 0;
};

// Per-op outcome of ExecuteBatch, index-aligned with the request. At most
// one payload field is meaningful, depending on the op.
struct KvsBatchResult {
  Status status = OkStatus();
  Bytes value;          // kGet / kGetRange
  uint64_t length = 0;  // kAppend: value length after the append; kSize
  // kSetAdd / kSetRemove: membership changed; kLockRead / kLockWrite:
  // acquired; kExists: the key has a value.
  bool flag = false;
  std::vector<std::string> members;  // kSetMembers
};

// A one-op batch's answer as its single-key front-end's typed result: the
// op's error, or the result field the op fills (KvStore and KvsClient both
// answer their single-key methods this way).
template <typename T>
Result<T> Answer(KvsBatchResult result, T KvsBatchResult::*field) {
  if (!result.status.ok()) {
    return result.status;
  }
  return std::move(result.*field);
}

// A key's complete store-side footprint, as moved by shard migration: the
// value (if any), the distributed-lock state (ownership travels with the
// key, so a lock held across a migration keeps excluding), and set members.
struct KeyExport {
  bool has_value = false;
  Bytes value;
  int lock_readers = 0;
  std::string lock_writer;
  std::vector<std::string> set_members;
  // The exporting store's apply sequence at snapshot time. A backup that
  // installs this record uses it as the key's duplicate-filter floor:
  // forwarded ops with seq <= this were already folded into the snapshot.
  uint64_t seq = 0;

  // Wire encoding (payload of the kMigrateInstall op).
  Bytes Serialize() const;
  static Result<KeyExport> Deserialize(const Bytes& bytes);
  // True when the key has no footprint at all (nothing to migrate).
  bool empty() const {
    return !has_value && lock_readers == 0 && lock_writer.empty() && set_members.empty();
  }
  // Footprint equality IGNORING `seq`: a primary's sequence moves on every
  // mutation anywhere in the store, so reconciliation must compare content,
  // not counters, or it would re-stream every key every pass.
  bool SameContent(const KeyExport& other) const;
};

class KvStore {
 public:
  static constexpr int kShards = 16;

  // Every status-capable method below is a one-op batch through
  // ExecuteBatch, the store's only apply path, so none can dodge the
  // servability checks or the update hook.

  // --- Values ---------------------------------------------------------------
  Status Set(const std::string& key, Bytes value);
  Result<Bytes> Get(const std::string& key);
  bool Exists(const std::string& key) const;
  Result<size_t> Size(const std::string& key);
  Status Delete(const std::string& key);

  // Ranged access (state chunks).
  Result<Bytes> GetRange(const std::string& key, size_t offset, size_t len);
  // Applies all ranges atomically under one shard lock (delta push: the N
  // dirty runs of a replica land as one operation), extending the value
  // when needed.
  Status SetRanges(const std::string& key, const std::vector<ValueRange>& ranges);

  // Appends and returns the new length.
  Result<size_t> Append(const std::string& key, const Bytes& bytes);

  // --- Batched execution (the kBatch op) ---------------------------------------
  // Executes a group of sub-ops as one request. Ops are grouped by internal
  // shard and each group runs under ONE shard-mutex acquisition (per-op
  // order is preserved within a group; ops on distinct keys in different
  // groups are independent). Every op passes CheckServableLocked
  // individually, so a batch straddling a migration bounces ONLY the moving
  // keys with kWrongMaster — including keys that do not exist yet but match
  // the migration filter (the enumeration-race guard) — while the rest of
  // the batch lands. Returns one result per op, index-aligned.
  std::vector<KvsBatchResult> ExecuteBatch(const std::vector<const KvsBatchOp*>& ops);
  std::vector<KvsBatchResult> ExecuteBatch(const std::vector<KvsBatchOp>& ops);

  // --- Distributed locks -----------------------------------------------------
  // Non-blocking; callers poll. Multiple readers or one writer per key.
  Result<bool> TryLockRead(const std::string& key, const std::string& owner);
  Result<bool> TryLockWrite(const std::string& key, const std::string& owner);
  Status UnlockRead(const std::string& key, const std::string& owner);
  Status UnlockWrite(const std::string& key, const std::string& owner);

  // --- Sets (scheduler warm sets) ---------------------------------------------
  Result<bool> SetAdd(const std::string& key, const std::string& member);     // true if new
  Result<bool> SetRemove(const std::string& key, const std::string& member);  // true if removed
  std::vector<std::string> SetMembers(const std::string& key) const;

  // --- Shard migration (kvs/migration.h) ---------------------------------------
  // Every key with any footprint (value, lock state, or set members).
  std::vector<std::string> Keys() const;
  // Marks `key` migrating: ops on it return kWrongMaster until UnfreezeKey,
  // EraseKey, or an InstallKey moving it back in. Idempotent.
  void FreezeKey(const std::string& key);
  void UnfreezeKey(const std::string& key);
  bool IsFrozen(const std::string& key) const;
  // Installs (or clears, with nullptr) the migration filter: ops on keys
  // for which `filter` returns true bounce with kWrongMaster, whether or
  // not the key exists. Set by the migrator BEFORE it lists the store, so
  // no moving key can be created behind the enumeration.
  void SetMigrationFilter(std::function<bool(const std::string&)> filter);
  void ClearMigrationFilter() { SetMigrationFilter(nullptr); }
  // Installs the permanent ownership guard: ops on keys for which `owns`
  // returns false bounce with kWrongMaster. Host-colocated shards pass a
  // live-map predicate ("this endpoint masters the key under the current
  // epoch"), which redirects straggler ops that raced a membership change —
  // even on this host's in-process fast path. Install before serving.
  void SetOwnershipGuard(std::function<bool(const std::string&)> owns);
  // Snapshot of `key`'s footprint (value + lock state + set members), taken
  // under the shard mutex so it is consistent with the frozen state.
  KeyExport ExportKey(const std::string& key) const;
  // Installs an exported footprint, replacing any existing entry for `key`
  // and unfreezing it (the key just moved in).
  void InstallKey(const std::string& key, const KeyExport& record);
  // Drops every trace of `key` (value, locks, sets) and unfreezes it; the
  // ownership guard is what keeps stragglers off the moved key afterwards.
  void EraseKey(const std::string& key);

  // --- Introspection -----------------------------------------------------------
  size_t key_count() const;
  size_t total_bytes() const;

  // --- Replication forwarding (kvs/replication.h) -------------------------------
  // One successfully applied mutating op, as handed to the update hook.
  // `op` stays valid only for the duration of the hook call; `seq` is the
  // store-wide apply sequence captured under the op's shard mutex, so for
  // any single key, seq order equals apply order.
  struct ForwardedOp {
    const KvsBatchOp* op = nullptr;
    uint64_t seq = 0;
  };
  using UpdateHook = std::function<void(const std::vector<ForwardedOp>&)>;
  // Installs the hook fired — OUTSIDE every shard mutex, on the mutating
  // caller's thread — once per batch that applied a mutation, with every
  // applied op (a single-key method is a one-op batch). Wire it before the
  // store serves traffic: installation is not synchronised against
  // in-flight ops. Lock acquisitions that did not acquire (flag=false)
  // changed nothing and are not forwarded.
  void SetUpdateHook(UpdateHook hook) { hook_ = std::move(hook); }
  // Ops currently between "entered the store" and "hook returned". The
  // failover quiesce barrier waits for 0: with the dead store fenced, zero
  // here means every op that will ever be acked has finished forwarding.
  int inflight_mutations() const { return inflight_.load(); }

  // RAII: suppresses update-hook calls from the current thread. Seeding and
  // mirror paths (ShardedKvs, the replication manager's own installs) write
  // stores whose replication is handled by other means — and may run on
  // threads that must not touch the network clock — so forwarding them
  // again would double-apply or deadlock.
  class HookPause {
   public:
    HookPause() { ++Depth(); }
    ~HookPause() { --Depth(); }
    HookPause(const HookPause&) = delete;
    HookPause& operator=(const HookPause&) = delete;
    static bool active() { return Depth() > 0; }

   private:
    static int& Depth();
  };

 private:
  struct LockState {
    int readers = 0;
    std::string writer;  // empty when unlocked
  };

  // Predicates are stored per shard (set under each shard's mutex, read
  // under the op's shard mutex) so the hot path takes no extra lock.
  using KeyPredicate = std::shared_ptr<const std::function<bool(const std::string&)>>;

  struct Shard {
    mutable std::mutex mutex;
    std::map<std::string, Bytes> values;
    std::map<std::string, LockState> locks;
    std::map<std::string, std::set<std::string>> sets;
    std::set<std::string> frozen;  // keys mid-stream: ops bounce
    KeyPredicate filter;           // migration window: moving keys bounce
    KeyPredicate owns;             // live ownership guard: foreign keys bounce
  };

  size_t ShardIndexFor(const std::string& key) const {
    return HashBytes(reinterpret_cast<const uint8_t*>(key.data()), key.size()) % kShards;
  }
  Shard& ShardFor(const std::string& key) const { return shards_[ShardIndexFor(key)]; }

  // Runs `op` as a one-op batch and returns its result.
  KvsBatchResult RunOne(const KvsBatchOp& op);
  // Applies one sub-op (shard.mutex held, servability checked).
  static void ApplyLocked(Shard& shard, const KvsBatchOp& op, KvsBatchResult& result);
  // True when `op`'s successful result changed state worth forwarding (a
  // lock try that did not acquire is applied-but-inert).
  static bool ShouldForward(const KvsBatchOp& op, const KvsBatchResult& result);
  // Forward only when a hook is installed and this thread is not inside a
  // HookPause (seeding / mirror writes).
  bool ForwardingActive() const { return hook_ != nullptr && !HookPause::active(); }

  // Requires shard.mutex. The single point every status-capable op funnels
  // through, so none can forget the freeze, the migration filter, or the
  // ownership guard.
  static Status CheckServableLocked(const Shard& shard, const std::string& key) {
    if (shard.frozen.count(key) > 0) {
      return WrongMaster("kvs: key is migrating: " + key);
    }
    if (shard.filter != nullptr && (*shard.filter)(key)) {
      return WrongMaster("kvs: key is changing master: " + key);
    }
    if (shard.owns != nullptr && !(*shard.owns)(key)) {
      return WrongMaster("kvs: key is not mastered by this shard: " + key);
    }
    return OkStatus();
  }

  mutable Shard shards_[kShards];
  // Set once before the store serves traffic (SetUpdateHook); read
  // unsynchronised on the mutation path.
  UpdateHook hook_;
  // Store-wide apply sequence, incremented under the mutating op's shard
  // mutex, so per-key ordering is exact. Starts at 1 (0 = "no floor").
  std::atomic<uint64_t> mutation_seq_{0};
  // See inflight_mutations(). Every mutation increments and decrements it
  // from whichever thread runs the op, so it gets a cache line of its own,
  // apart from the hook and shard state every op reads.
  alignas(64) mutable std::atomic<int> inflight_{0};
};

}  // namespace faasm

#endif  // FAASM_KVS_KV_STORE_H_
