// KvsServer / KvsClient: the wire between hosts and the global tier.
//
// The global tier is sharded (kvs/router.h): each host serves a KvStore
// shard on "kvs:<host>", and a ShardMap assigns every key a master shard by
// consistent hashing.
//
// ONE REQUEST PIPELINE. Every KvsClient op is a batch: a single-key call
// (Set, Read, Append, the locks, the set ops, ...) is a one-op batch,
// an OpBatch a grouped one. The pipeline runs through the store and both
// servers the same way: KvsServer and ReplicaServer share one batch
// handler, and KvStore::ExecuteBatch is the store's only apply path (its
// own single-key methods are one-op batches too). RunGroup routes, encodes,
// retries and answers both. It resolves each op's CURRENT master and either
//
//   - takes the LOCAL FAST PATH: when the master is the calling host's own
//     shard, the ops run as one in-process KvStore::ExecuteBatch. No
//     InProcNetwork round trip, zero accounted network bytes — a replica
//     co-located with its key's master syncs for free (§4.3); or
//   - sends the group to the owning endpoint as ONE framed RPC
//     (net/framing.h, sub-ops encoded by kvs/batch_codec.h): kGetBatch when
//     every op only reads, kBatch otherwise. The server answers a per-op
//     status vector, so the experiments' network numbers include exactly
//     the cross-host global-tier traffic a sharded Redis/Anna deployment
//     would generate. Framing a single op costs 9 bytes each way: the
//     request type, the frame count and the op's length prefix out; the
//     framing status, the count and the length prefix back.
//
// A single-key call runs its one-op batch on the caller's activity. It gets
// no BatchHandle and is invisible to FlushBatch barriers, so a concurrent
// Pull never waits out an unrelated single op.
//
// MEMBERSHIP CHANGES (kvs/migration.h) make routes stale: an op can resolve
// its master at epoch N and land on a shard that flipped to epoch N+1, or
// reach a key mid-handoff. Both answer kWrongMaster: the store bounces ops
// on moving keys (the migration filter), keys frozen across a replication
// catch-up, and foreign keys (its live-map ownership guard), and since the server and the local fast path both execute through
// the store, no caller can slip past a migration. The client treats
// kWrongMaster as "re-resolve and retry" per op: it backs off a quantum of
// virtual time and regroups the bounced ops against the map's current
// epoch, surfacing the error only after kMaxRedirectRetries (a membership
// change that never converges). A batch that straddles a live migration
// bounces ONLY the moving keys. The kMigrateInstall request is exempt from
// the ownership guard: it is how the migration subsystem streams a key into
// its new master before the epoch flips.
//
// CRASHES (runtime/cluster.h KillHost) are discovered the same way, one
// error code earlier: a killed host's endpoints vanish from the network, so
// ops against it fail with kUnavailable at the transport. The client treats
// that exactly like kWrongMaster — back off, re-resolve, retry — because
// the failover path (kvs/replication.h) promotes a backup and flips the
// epoch, after which the retry routes to the new master.
//
// ONE RETRY CONTRACT. Every client routes through a ShardMap; a centralised
// tier (the paper's single Redis, FaasmCluster's kCentral, the Knative
// baseline) is a one-shard map, not a separate mode. So for every op the
// contract is the same: a kWrongMaster or kUnavailable bounce means
// "re-resolve and retry", and only an exhausted budget surfaces, as the
// typed kDeadlineExceeded error naming the key and the last endpoint tried.
// Every other error surfaces at once.
//
// GROUPED BATCHES (DispatchBatch). An OpBatch accumulates mutating ops plus
// Read ops, grouped by current master endpoint: every group is one RPC, the
// master-local group runs in process, and groups bound for different shards
// are issued concurrently when a spawner is configured — a push (or
// prefetch) touching K keys mastered on M hosts costs at most M round
// trips, overlapped, instead of K serialised ones. Per-op error/ack model:
// each enqueued op can carry a completion callback, invoked exactly once
// with the op's final status after retries — an op is "acked" only when its
// callback has fired with Ok, which is what the state layer's push
// visibility barrier (FlushBatch) waits for.
//
// THE UNIFIED READ API. Read(key, ReadOptions) is the one read surface:
// whole-value and ranged reads, cached and uncached, single and batched
// (OpBatch::Read) all take it. ReadOptions is the read window only
// ({offset, len}, len defaulting to the whole value); the read cache's lease
// is the one staleness bound. A read is also the only way to learn a
// value's size: every answer carries the whole value's length (a kGet's
// bytes are the value; a kGetRange result encodes it after the window), and
// Read hands it back through its `value_size` out-parameter whichever tier
// served.
//
// THE THREE-TIER READ PATH. A value read (whole or ranged) that is not
// master-local resolves through up to three tiers, cheapest first, each
// with its own staleness contract. A single-key Read and each read of an
// OpBatch take the first two through the same helper (ReadShortcut):
//
//   1. READ CACHE (kvs/read_cache.h, opt-in via EnableReadCache): a per-host
//      cache of previously pulled full values. A hit costs nothing and MAY
//      be stale by at most the lease of virtual time relative to OTHER
//      hosts' writes.
//   2. CO-LOCATED REPLICA (opt-in via EnableReplicaReads): when this host
//      holds a copy of the key (it is in ShardMap::HoldersFor(key) under
//      the current epoch, the key's master being remote), the read is
//      served from the local ReplicaShard in process — zero network bytes —
//      under the validity rules below. LocalTier::Prefetch's batches take it
//      too.
//   3. MASTER: the read's one-op or grouped kGetBatch, always correct,
//      always paid for.
//
// Membership questions always ask the master.
//
// REPLICA-READ VALIDITY. A backup copy serves only when provably current:
//   - Replication is synchronous: an acked write is applied at every live
//     backup before its ack, so a certified copy can never miss an acked
//     write.
//     Read-your-writes still requires one step — a pending ambient write on
//     the key flushes first (a single-key Read) or disqualifies the shortcut
//     for that op (a read inside an OpBatch), so a replica serve never
//     precedes this host's own enqueued write of the key.
//   - Validity is keyed by (key, shard-map epoch) exactly like the read
//     cache: the copy must have been certified (installed or re-anchored by
//     the membership-serialised mirror/Reconcile flows) at the LIVE epoch,
//     so any migration or failover promotion invalidates every replica read
//     at the flip and Reconcile re-certifies afterwards.
//   - A FENCED replica (its host crashed and failed over) answers
//     kUnavailable; the client reports it to the suspicion hook and falls
//     through to the master — a dead host's copies never serve.
//
// READ CACHE COHERENCE (tier one). A cached read is NEVER stale with
// respect to:
//   - this host's own writes — every local value or set mutation (single or
//     batched, at ENQUEUE time for ambient ops) invalidates the key's entry
//     before it is sent;
//   - membership changes — entries are keyed by shard-map epoch, and an
//     epoch flip invalidates implicitly;
//   - reads under a global lock — acquiring TryLockRead/TryLockWrite
//     invalidates the key's entry, so the first read under the lock refetches
//     the bytes the lock serialises.
// Whole-value serves from tier two refresh tier one (a replica read is as
// authoritative as the RPC it replaced), so later sub-range reads hit cache.
#ifndef FAASM_KVS_KVS_CLIENT_H_
#define FAASM_KVS_KVS_CLIENT_H_

#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "kvs/kv_store.h"
#include "kvs/read_cache.h"
#include "kvs/router.h"
#include "net/network.h"

namespace faasm {

class ReplicaShard;

// Registers an RPC endpoint (default name "kvs") that serves a KvStore
// shard. Sharded clusters run one per host on "kvs:<host>". It answers
// three requests: kBatch, kGetBatch and the migration stream's
// kMigrateInstall. Ownership is checked by the store, not here: a shard
// store carries the live-map guard (KvStore::SetOwnershipGuard), which
// bounces an op on a key this endpoint no longer masters with kWrongMaster
// — what redirects clients that raced a membership change.
//
// Its batch-request handler is the one both KVS endpoints run: a host's
// replica endpoint (ReplicaServer, kvs/replication.h) differs only in the
// sub-op dialect (the replica's adds `seq`), the executor
// (ReplicaShard::ApplyForwarded instead of KvStore::ExecuteBatch) and the
// install target, and answers no kGetBatch.
class KvsServer {
 public:
  KvsServer(KvStore* store, InProcNetwork* network, std::string endpoint = "kvs")
      : KvsServer(store, nullptr, network, std::move(endpoint)) {}
  ~KvsServer();

  const std::string& endpoint() const { return endpoint_; }

  // Read RPCs this server answered over the network: kGetBatch requests
  // carrying a kGet or kGetRange (one that only asks kSetMembers counts as
  // neither read nor write). Master-local reads never
  // reach the server, so this is exactly the cross-host pull RPC count the
  // benches gate on.
  uint64_t read_rpc_count() const { return read_rpcs_.value(); }
  // Write-side twin: the kBatch requests this server answered. Excludes
  // kMigrateInstall (migration/replication streams are accounted by their
  // own subsystems). Replication tests bound the forwarded-op RPC overhead
  // against this baseline.
  uint64_t write_rpc_count() const { return write_rpcs_.value(); }

 protected:
  // Exactly one of `store` (a primary endpoint) and `replica` (a replica
  // endpoint) is set.
  KvsServer(KvStore* store, ReplicaShard* replica, InProcNetwork* network, std::string endpoint);

 private:
  // kBatch / kGetBatch: counts the RPC, decodes and admits each framed
  // sub-op, executes the admitted ones in one call, and frames the per-op
  // results back. kMigrateInstall goes to HandleMigrateInstall.
  Bytes Handle(const Bytes& request);
  // Decodes every framed sub-op into `ops` in this endpoint's dialect;
  // `read_only` (kGetBatch) rejects mutating sub-ops. A refused op's answer
  // goes to `results`; returns the ops to execute. Counts the read RPC.
  std::vector<const KvsBatchOp*> AdmitBatch(const std::vector<ByteReader>& parts, bool read_only,
                                            std::vector<KvsBatchOp>& ops,
                                            std::vector<KvsBatchResult>& results);
  // The endpoint's executor: the store's ExecuteBatch, or the replica's
  // duplicate-filtered ApplyForwarded.
  std::vector<KvsBatchResult> Execute(const std::vector<const KvsBatchOp*>& ops);
  Bytes HandleMigrateInstall(ByteReader& reader);

  KvStore* store_;
  ReplicaShard* replica_;
  InProcNetwork* network_;
  std::string endpoint_;
  Counter read_rpcs_;
  Counter write_rpcs_;
};

// Options of the unified read API (KvsClient::Read / OpBatch::Read): the
// read window.
struct ReadOptions {
  // `len` sentinel: read from `offset` to the end of the value.
  static constexpr uint64_t kWholeValue = ~uint64_t{0};

  uint64_t offset = 0;
  uint64_t len = kWholeValue;

  bool whole_value() const { return offset == 0 && len == kWholeValue; }
};

// Builder for one batched request: accumulates sub-ops (with optional
// per-op completion callbacks) until a KvsClient dispatches it. Not thread
// safe; build on one thread, then hand over to DispatchBatch.
class OpBatch {
 public:
  // Invoked exactly once with the op's final status (after any redirects).
  using Ack = std::function<void(const Status&)>;
  // Read completion: the value (the requested window), or the op's error.
  using ReadAck = std::function<void(const Result<Bytes>&)>;

  // Consecutive SetRanges on the same key coalesce into one sub-op with the
  // merged (adjacent/overlapping fused) range list; both acks still fire.
  void SetRanges(std::string key, std::vector<ValueRange> ranges, Ack done = nullptr);
  void SetAdd(std::string key, std::string member, Ack done = nullptr);
  void SetRemove(std::string key, std::string member, Ack done = nullptr);
  // The unified read, batched: a kGet (whole value) or kGetRange sub-op of
  // the group; cache- and replica-eligible under the same rules as
  // KvsClient::Read.
  void Read(std::string key, ReadOptions options, ReadAck done);
  void Read(std::string key, ReadAck done) { Read(std::move(key), ReadOptions{}, std::move(done)); }

  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

 private:
  friend class KvsClient;

  // Every op completes through one callback with its full result; the
  // typed acks above (and a single-key call's answer) adapt it.
  using Completion = std::function<void(KvsBatchResult)>;
  struct Pending {
    KvsBatchOp op;
    Completion complete;
  };

  static Completion StatusAck(Ack done);
  void Push(KvsBatchOp op, Completion complete);

  std::vector<Pending> ops_;
};

// Completion handle for a dispatched batch. Wait() blocks (in virtual time)
// until every per-endpoint group — including per-op redirect retries — has
// finished, and returns the batch's aggregate status: Ok only when every op
// landed. Callers holding several handles pipeline batches to different
// shards: the round trips overlap instead of serialising.
class BatchHandle {
 public:
  // Wait() is deadline-bounded: a batch whose ops never complete (a crashed
  // endpoint with no failover to reroute to, a wedged group activity) makes
  // Wait return kDeadlineExceeded instead of spinning forever. The default
  // budget dwarfs the per-op redirect budget (kMaxRedirectRetries ×
  // kRedirectBackoffNs ≈ 0.41s virtual), so it only fires on genuine wedges.
  static constexpr TimeNs kDefaultWaitDeadlineNs = 30 * kSecond;

  BatchHandle() = default;

  Status Wait() { return Wait(kDefaultWaitDeadlineNs); }
  // deadline_ns <= 0 waits forever (the pre-deadline behaviour; tests only).
  Status Wait(TimeNs deadline_ns);
  bool done() const;

 private:
  friend class KvsClient;

  struct Shared {
    std::mutex mutex;
    int outstanding = 0;
    Status status = OkStatus();  // first op error, sticky
    WakeChannel done;            // woken by the last group to finish
  };

  std::shared_ptr<Shared> shared_;
  Clock* clock_ = nullptr;
};

// Routing client stub. `source` is the calling host's endpoint name (for
// accounting and lock ownership).
class KvsClient {
 public:
  // Runs a closure concurrently with the caller (the runtime passes the
  // executor's Spawn). Used to overlap per-endpoint batch groups.
  using Spawner = std::function<void(std::function<void()>)>;
  // A one-shard tier: the client builds and owns the map in which `server`
  // masters every key (the map FaasmCluster's kCentral uses).
  KvsClient(InProcNetwork* network, std::string source, std::string server = "kvs");
  // `shards` maps keys to master endpoints; `local_store` is the shard this
  // host serves on "kvs:<source>" (may be null when the host serves no
  // shard — e.g. an external client — disabling the fast path).
  KvsClient(InProcNetwork* network, std::string source, const ShardMap* shards,
            KvStore* local_store);

  // Single-key ops: each is a one-op batch (see ONE REQUEST PIPELINE).
  Status Set(const std::string& key, const Bytes& value);
  // The unified read: Read(key) is a whole-value read, Read(key, {.offset,
  // .len}) a ranged one. Master-local reads are in-process; cross-host reads
  // consult the read cache and the co-located replica first when enabled,
  // and whole-value fetches refresh the cache. On success `value_size` (when
  // given) receives the whole value's length, from whichever tier served.
  Result<Bytes> Read(const std::string& key, const ReadOptions& options = {},
                     uint64_t* value_size = nullptr);
  Result<uint64_t> Append(const std::string& key, const Bytes& bytes);

  Result<bool> TryLockRead(const std::string& key);
  Result<bool> TryLockWrite(const std::string& key);
  Status UnlockRead(const std::string& key);
  Status UnlockWrite(const std::string& key);

  Result<bool> SetAdd(const std::string& key, const std::string& member);
  Result<std::vector<std::string>> SetMembers(const std::string& key);

  // --- Grouped batches ------------------------------------------------------------
  // Dispatches `batch`: ops grouped per current master endpoint, one framed
  // RPC per group (master-local group in process), groups overlapped via the
  // spawner when more than one crosses the network. Per-op kWrongMaster
  // answers are re-resolved and retried individually. Fire-and-collect: use
  // the returned handle (or per-op acks) to learn the outcome.
  BatchHandle DispatchBatch(OpBatch&& batch);
  // DispatchBatch + Wait: the synchronous convenience form.
  Status ExecuteBatchNow(OpBatch&& batch) { return DispatchBatch(std::move(batch)).Wait(); }

  // Concurrency for DispatchBatch groups (grouped writes and reads alike);
  // without a spawner every group runs on the caller's activity.
  void SetSpawner(Spawner spawner) { spawner_ = std::move(spawner); }

  // --- Read cache ---------------------------------------------------------------
  // Turns on the per-host read cache with the given lease (see the coherence
  // rules above). Off by default: cached reads may lag other hosts' writes
  // by up to the lease, which read-modify-write workloads must not opt into.
  void EnableReadCache(TimeNs lease_ns) { read_cache_.set_lease(lease_ns); }
  const ReadCache& read_cache() const { return read_cache_; }

  // --- Replica reads (tier two of the three-tier read path) --------------------
  // Serves reads of keys this host holds a copy of from `replica`, its
  // co-located backup store. Which keys those are follows the routing map's
  // HoldersFor.
  void EnableReplicaReads(ReplicaShard* replica) { replica_ = replica; }
  bool replica_reads_enabled() const { return replica_ != nullptr; }
  // Reads this client served from the co-located replica (each one a
  // cross-host read RPC that never happened — the per-client twin of
  // ReplicaShard::replica_read_count).
  uint64_t replica_served_count() const { return replica_served_.value(); }

  // --- Ambient state-op batch ---------------------------------------------------
  // Every state push enqueues here (callers: StateKeyValue's one push path).
  void EnqueueSetRanges(const std::string& key, std::vector<ValueRange> ranges,
                        OpBatch::Ack done);
  // While at least one scope is open, enqueued ops defer to the next flush
  // barrier; with no scope open each enqueue is flushed by its caller.
  void BeginBatchScope();
  void EndBatchScope();
  bool InBatchScope() const;
  // Flush barrier: dispatches every pending ambient op (grouped, pipelined)
  // and waits for all of them, retries included. The push-visibility point:
  // after FlushBatch returns Ok, every previously enqueued op is durable in
  // the global tier. No-op when nothing is pending.
  Status FlushBatch();
  // Pending ambient ops (tests/diagnostics).
  size_t pending_batch_ops() const;

  // --- Mastership hints (locality-aware scheduling) ---------------------------
  // True when `key` is mastered by this host's own shard: ops on it are
  // in-process and move zero network bytes.
  bool MasterLocal(const std::string& key) const;
  // Host name mastering `key`, or "" when the master is not a host-colocated
  // shard (a one-shard central tier). Pure local computation — no network.
  std::string MasterHostFor(const std::string& key) const;

  const std::string& source() const { return source_; }

  // --- Failure-detection evidence ---------------------------------------------
  // Invoked (when set) with the endpoint of every op that bounced with
  // kUnavailable, BEFORE the retry sleeps. The cluster wires this to
  // FailureDetector::ReportSuspicion so client traffic accelerates crash
  // detection: the client still retries (the bounce is transient once the
  // failover reroutes it), but the detector gets to probe the silent host on
  // its next sweep instead of waiting out the heartbeat timeout. Must be
  // cheap and non-blocking — it runs on the op's own activity.
  using SuspicionHook = std::function<void(const std::string& endpoint)>;
  void SetSuspicionHook(SuspicionHook hook) { suspicion_hook_ = std::move(hook); }

  // Bound on kWrongMaster redirect retries before the error surfaces. The
  // op stalls while its key is mid-migration, so the retry budget
  // (kMaxRedirectRetries × kRedirectBackoffNs of virtual time) must cover a
  // full migration batch: filter → stream → epoch flip.
  static constexpr int kMaxRedirectRetries = 2048;
  static constexpr TimeNs kRedirectBackoffNs = 200 * kMicrosecond;

 private:
  // Resolved destination of one key's op: in-process store, or endpoint.
  struct Route {
    KvStore* local = nullptr;
    std::string endpoint;
  };
  Route RouteFor(const std::string& key) const;

  // The typed budget-exhaustion error (kDeadlineExceeded): carries the key,
  // the endpoint last tried, the attempt count, and the last transport
  // error, so callers can tell "master gone for good" from "map stale".
  static Status RedirectBudgetExhausted(const std::string& key, const std::string& endpoint,
                                        int attempts, const Status& last);

  // The single-key pipeline: `op` as a one-op batch on the caller's
  // activity. A mutation drops the key's cached read; a value read first
  // tries the read shortcuts; the rest runs through RunGroup (route, local
  // fast path or one framed RPC, bounce/redirect retries). The batch gets no
  // BatchHandle and never joins `inflight_`, so concurrent FlushBatch
  // barriers do not wait on it. Returns the op's full result.
  KvsBatchResult RunOne(KvsBatchOp op);
  // Tiers one and two of the read path for a kGet/kGetRange op whose master
  // (`route`) is remote: the read cache, then the co-located replica when
  // this host is among ShardMap::HoldersFor(key). True when a tier served
  // the op (its answer is in `served`); false = the master must answer.
  // `batch_writes` is null for a single-key read, which flushes this host's
  // pending ambient write of the key before a replica serve; inside a batch
  // it holds the keys the batch writes, and such a key — or one with a
  // pending ambient write — skips the replica instead.
  bool ReadShortcut(const KvsBatchOp& op, const Route& route,
                    const std::set<std::string>* batch_writes, KvsBatchResult& served);

  // --- Replica-read internals ---------------------------------------------------
  // Attempts to serve read `op` (its window is the op's offset/len) from the
  // co-located replica. True = `served` holds the read's final answer
  // (counted); false = fall through to the master (holding a copy was
  // already checked by the caller; here: fenced → suspicion hook, or stale
  // certification).
  bool TryReplicaRead(const KvsBatchOp& op, KvsBatchResult& served);
  // True when the ambient batch holds a not-yet-flushed mutating op on
  // `key` (the read-your-writes trigger).
  bool HasPendingAmbientWrite(const std::string& key) const;

  // One per-endpoint slice of a dispatched batch. RunGroup drives the slice
  // to completion: issue the framed RPC (or the in-process ExecuteBatch),
  // fire the acks of landed ops, and loop the kWrongMaster bounces through
  // re-resolution + backoff until they land or the retry budget runs out.
  // Returns the group's first op error (Ok when every op landed).
  Status RunGroup(std::vector<OpBatch::Pending> ops);
  // Completes one routed group's ops from `results` (acks fire, the cache
  // refreshes) except those that bounced with kWrongMaster/kUnavailable
  // while retry budget remains: those move to `retry`. `endpoint`
  // is "" for the master-local group. Returns the group's first op error.
  Status Settle(std::vector<OpBatch::Pending>& group, std::vector<KvsBatchResult> results,
                const std::string& endpoint, int attempt, std::vector<OpBatch::Pending>& retry);
  // Runs one routed group and returns its per-op results. The master-local
  // group ("" endpoint) is one in-process ExecuteBatch; any other is sent to
  // `endpoint` as a single framed RPC — kGetBatch when the whole group only
  // reads, kBatch otherwise — where a transport/framing error fails every
  // op alike.
  std::vector<KvsBatchResult> IssueGroup(const std::string& endpoint,
                                         const std::vector<OpBatch::Pending>& ops);
  static std::vector<KvsBatchResult> ParseBatchResponse(const Result<Bytes>& response,
                                                        const std::vector<OpBatch::Pending>& ops);
  // Completes `pending` with `result`, firing its ack exactly once.
  static void CompleteOp(OpBatch::Pending& pending, KvsBatchResult result);

  std::unique_ptr<ShardMap> own_shards_;  // the one-shard map, when built here
  InProcNetwork* network_;
  std::string source_;
  const ShardMap* shards_;
  KvStore* local_store_ = nullptr;
  std::string local_endpoint_;  // "kvs:<source>"

  // Ambient batching state. `ambient_` accumulates under ambient_mutex_;
  // FlushBatch swaps it out and dispatches outside the lock, so concurrent
  // flushes each take disjoint op sets (flushing another caller's ops early
  // is always safe — deferral, never reordering, is the relaxation). For
  // barrier completeness FlushBatch also waits on `inflight_`: batches a
  // CONCURRENT flush already took but has not finished dispatching — without
  // that wait a barrier could report durability for an op another caller is
  // still flying. Batch scopes are per activity (thread-local depth), so a
  // scope on one Faaslet's call never demotes another call's scopeless
  // Push from being its own barrier.
  Spawner spawner_;
  SuspicionHook suspicion_hook_;
  mutable std::mutex ambient_mutex_;
  OpBatch ambient_;
  std::vector<std::shared_ptr<BatchHandle::Shared>> inflight_;  // guarded by ambient_mutex_

  // Per-host read cache (disabled until EnableReadCache). Thread-safe;
  // consulted/installed only for routes that would cross the network.
  ReadCache read_cache_;

  // Replica-read state (disabled until EnableReplicaReads).
  ReplicaShard* replica_ = nullptr;
  Counter replica_served_;
};

}  // namespace faasm

#endif  // FAASM_KVS_KVS_CLIENT_H_
