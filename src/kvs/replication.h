// Per-shard primary-backup replication: the migration stream promoted into a
// standing replication substrate (the generalisation of kvs/migration.h).
//
// Each host's primary shard keeps R-1 live BACKUP copies on the next R-1
// hosts clockwise from it in sorted endpoint order (BackupsFor). Three data
// paths keep the backups current:
//
//   - FORWARDING: every mutating op a primary applies is handed to its
//     ShardReplicator through KvStore::SetUpdateHook and shipped to each
//     backup's ReplicaServer ("rep:<host>") as a kBatch of replica-dialect
//     sub-ops (kvs/batch_codec.h) — the same framed protocol the public
//     batch path rides. The ship happens on the mutating caller's thread
//     before the op returns, so an acked op is on every live backup.
//   - CATCH-UP (Reconcile): after any membership change, each primary
//     streams the keys its backups are missing — the migration stream
//     (kMigrateInstall + KeyExport) aimed at a replica endpoint. Lock state
//     and SET members travel with the key, exactly as they do in migration.
//   - FAILOVER: when a host dies abruptly, every key it mastered is
//     promoted from a surviving backup copy into the key's post-failover
//     master, installs landing BEFORE the ShardMap epoch flips
//     (migration's install-before-flip guarantee, inherited), so clients
//     recover through the ordinary kWrongMaster/kUnavailable bounce and
//     the (key, epoch)-keyed read cache invalidates implicitly. Two
//     callers drive it: the oracle (FaasmCluster::KillHost — the test
//     harness says who died, kept for deterministic tests) and the
//     heartbeat failure detector (runtime/failure_detector.h — CrashHost
//     pulls the plug and the alive → suspect → probe → dead machine
//     notices on its own); both funnel into the same fence → quiesce →
//     Failover → Reconcile pipeline. FenceHost additionally seals a dead
//     host's rep: mirror — its fenced ReplicaShard drops its copies so a
//     racing second failover can never promote from memory that no
//     longer exists, and Reconcile re-homes the backups it held.
//
// DUPLICATE FILTERING. Every forwarded op carries the primary's apply
// sequence (captured under the op's shard mutex, so per-key seq order equals
// apply order), and a streamed KeyExport carries the sequence its snapshot
// folded in. A ReplicaShard keeps a per-key floor — the highest sequence it
// has applied or installed — and drops anything at or below it: a forwarded
// op that raced the snapshot that already contains it can never double-apply
// (the paired Append/lock hazard of naive resend).
//
// ORDERING CONTRACT. Per key, forwards apply in primary-apply order for any
// lock-serialised or single-writer workload (the state layer's push
// discipline). Two UNSERIALISED writers racing the same key may see their
// forwards arrive reordered; the floor then keeps the newest write and the
// next Reconcile converges the copies — the last-writer-wins relaxation
// replicated KVS tiers (Anna, Cloudburst) make for exactly this case.
//
// REPLICA READS (ReplicaShard::ReadValue — the middle tier of the client's
// cache → replica → master read path, kvs/kvs_client.h). A backup copy may
// serve a read only when it is PROVABLY CURRENT, decided by an anchor-only
// epoch stamp: each key carries the shard-map epoch at which a driver-side
// flow (Install from a snapshot, AnchorFloor from a content match — both
// serialised with membership changes) last certified the copy, and a read is
// served only while that stamp equals the LIVE map epoch. Forwarded ops keep
// a certified copy exact (between the anchor and the next membership change
// the key's master — hence its sequence space — cannot change, and every
// acked write is applied here before its ack), but they never re-certify:
// any epoch flip invalidates every stamp at once, exactly like the
// (key, epoch)-keyed read cache, and the Reconcile that follows every
// membership change re-certifies under the same serialisation. Fenced
// replicas answer kUnavailable (crash evidence for the suspicion hook).
//
// The replication factor lives in one place, ShardMap::replication_factor():
// backup placement, holder resolution and the client's replica tier all
// read it there.
#ifndef FAASM_KVS_REPLICATION_H_
#define FAASM_KVS_REPLICATION_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/stats.h"
#include "kvs/kv_store.h"
#include "kvs/kvs_client.h"
#include "kvs/router.h"
#include "net/network.h"

namespace faasm {

// Replica-channel endpoint of `host` ("rep:<host>"), beside its primary
// shard endpoint "kvs:<host>".
std::string ReplicaEndpointForHost(const std::string& host);

// Cumulative substrate counters (bench gates and tests).
struct ReplicationStats {
  Counter forwarded_ops;      // replica-dialect sub-ops shipped
  Counter forward_rpcs;       // kBatch RPCs carrying them
  Counter dropped_forward_ops;  // ops whose ship failed (dead backup)
  Counter skipped_ops;        // duplicates the floor filter dropped
  Counter catchup_keys;       // keys streamed by Reconcile
  Counter catchup_bytes;
  Counter replica_gc_keys;    // stale replica copies reclaimed
  Counter failovers;
  Counter promoted_keys;
  Counter lost_keys;          // no surviving copy (R=1, or every backup dead)
  // Promotions parked for later: the key's post-failover master was itself
  // unreachable (a double crash, recovery pending), so the surviving copy
  // stays on its replica until THAT master's failover promotes it.
  Counter deferred_promotions;
};

// One failover's outcome (KillHost returns it; the cluster accumulates).
struct FailoverStats {
  uint64_t promoted_keys = 0;
  uint64_t lost_keys = 0;
  uint64_t bytes_streamed = 0;
  TimeNs duration_ns = 0;
  uint64_t epoch = 0;  // map epoch after the flip

  FailoverStats& operator+=(const FailoverStats& other) {
    promoted_keys += other.promoted_keys;
    lost_keys += other.lost_keys;
    bytes_streamed += other.bytes_streamed;
    duration_ns += other.duration_ns;
    epoch = other.epoch > epoch ? other.epoch : epoch;
    return *this;
  }
};

// One host's backup store: the KvStore holding every key this host backs up
// for OTHER primaries, plus the per-key duplicate-filter floor. The store
// has no ownership guard (it deliberately holds keys the map says belong
// elsewhere) and no update hook (backups never forward).
class ReplicaShard {
 public:
  // `map` keys replica-read certification to the live epoch; a map-less
  // shard (unit tests) certifies against the constant epoch 0.
  ReplicaShard() = default;
  explicit ReplicaShard(const ShardMap* map) : map_(map) {}

  KvStore* store() { return &store_; }
  const KvStore* store() const { return &store_; }

  // Applies forwarded ops in order, dropping any whose seq is at or below
  // the key's floor (already folded into an installed snapshot, or an older
  // racing write). Applied ops raise the floor to their seq. Returns one
  // result per op, index-aligned; dropped duplicates answer Ok. Forwards
  // keep a certified copy exact but never (re-)certify it for reads — only
  // the membership-serialised Install/AnchorFloor flows stamp epochs.
  std::vector<KvsBatchResult> ApplyForwarded(const std::vector<const KvsBatchOp*>& ops);

  // Installs a streamed snapshot, re-anchors the floor to its seq, and
  // certifies the copy for replica reads at `epoch` (network installs pass
  // CurrentEpoch(): their senders hold the membership lock). With
  // `only_if_newer` (the in-process mirror path) a snapshot older than the
  // floor is skipped instead of regressing state a forward already applied
  // — and the skip does NOT certify; catch-up and failover installs force,
  // because they re-anchor the floor across a primary change (a NEW
  // sequence space).
  void Install(const std::string& key, const KeyExport& record, bool only_if_newer,
               uint64_t epoch);
  // Re-anchors the floor without touching data (Reconcile, on content match:
  // the primary changed but the bytes did not) and certifies the copy at
  // `epoch`.
  void AnchorFloor(const std::string& key, uint64_t seq, uint64_t epoch);
  void Erase(const std::string& key);
  void Clear();
  // The live map epoch certification compares against (0 without a map).
  uint64_t CurrentEpoch() const { return map_ == nullptr ? 0 : map_->epoch(); }

  // The replica-read serving point (tier two of cache → replica → master).
  // Serves the requested window of `key`'s value from this backup copy —
  // `offset`/`len` follow ReadOptions exactly ({0, kWholeValue} = the whole
  // value, anything else a ranged read) — iff the copy is provably current:
  //   - fenced            → kUnavailable (this host failed over; callers
  //                         feed the suspicion hook and fall through);
  //   - not certified, or certified at a stale epoch → kFailedPrecondition
  //                         (membership moved under the copy; fall through
  //                         to the master, Reconcile re-certifies);
  //   - certified current → the store's own answer, NotFound included (the
  //                         copy is exact, so "no value" is the truth).
  Result<Bytes> ReadValue(const std::string& key, uint64_t offset, uint64_t len);

  // Reads ReadValue served (the replica-tier twin of KvsServer's
  // read_rpc_count; every one of these is a read RPC that never happened).
  uint64_t replica_read_count() const { return replica_reads_.value(); }

  // Crash fence — the replica-side twin of the dead PRIMARY's migration
  // filter (FaasmCluster::HandleConfirmedDeath). The corpse's mirror store
  // holds backups it kept for OTHER shards; fencing drops them and rejects
  // everything after — forwards answer kUnavailable, installs and floor
  // anchors no-op — so a zombie's in-process mirror can never land state on
  // a host the map no longer trusts, and a later double-crash can never
  // promote from a corpse. Reconcile re-homes the dropped backups onto the
  // post-failover backup set. Unfence() re-arms a re-added host name.
  void Fence();
  void Unfence();
  bool fenced() const;

  uint64_t skipped_op_count() const { return skipped_ops_.value(); }

 private:
  // Per-key replication metadata: the duplicate-filter floor plus the
  // replica-read certification stamp (see the header comment's REPLICA READS
  // contract — `synced` epoch-stamps are written ONLY by Install/AnchorFloor,
  // never by forwards).
  struct KeyMeta {
    uint64_t floor = 0;
    uint64_t synced_epoch = 0;
    bool synced = false;
  };

  // Drops every copy and its metadata (requires mutex_).
  void DropAllLocked();

  const ShardMap* map_ = nullptr;
  KvStore store_;
  // Serialises meta reads/updates against installs; the store has its own
  // internal locking.
  mutable std::mutex mutex_;
  std::map<std::string, KeyMeta> meta_;
  bool fenced_ = false;
  Counter skipped_ops_;
  Counter replica_reads_;
};

// Serves one host's ReplicaShard on "rep:<host>" through KvsServer's batch
// handler in its replica form: kBatch carries replica-dialect forwards (run
// by ReplicaShard::ApplyForwarded), kMigrateInstall carries catch-up
// snapshots (ReplicaShard::Install). Separate from the host's KvsServer so
// backup traffic never meets the primary store's ownership guard.
class ReplicaServer : private KvsServer {
 public:
  ReplicaServer(ReplicaShard* shard, InProcNetwork* network, std::string endpoint)
      : KvsServer(nullptr, shard, network, std::move(endpoint)) {}
};

// One primary's forwarding half: the KvStore update-hook target. Encodes
// applied ops in the replica dialect and ships them to each current
// backup's replica endpoint, resolved against the live map at ship time.
class ShardReplicator {
 public:
  ShardReplicator(InProcNetwork* network, const ShardMap* map, std::string primary_endpoint,
                  ReplicationStats* stats);

  // The update hook body. Runs on the mutating caller's thread, outside
  // every store shard mutex, and returns only after every live backup
  // applied (which is what makes an ack cover the backups).
  void OnApplied(const std::vector<KvStore::ForwardedOp>& ops);

 private:
  std::vector<std::string> BackupReplicaEndpoints() const;

  InProcNetwork* network_;
  const ShardMap* map_;
  std::string primary_endpoint_;
  ReplicationStats* stats_;
};

// The cluster-side orchestrator: owns every host's ReplicaShard and
// ShardReplicator, wires primaries' update hooks, and runs the catch-up,
// mirror and failover flows. All membership-changing entry points
// (Reconcile, Failover) must be called from the driver activity, like the
// migration flows they generalise; AttachHost/MirrorKey may run before the
// cluster serves traffic.
class ReplicationManager {
 public:
  // Replicates at `map`'s replication_factor(); set it before attaching.
  ReplicationManager(InProcNetwork* network, ShardMap* map,
                     const std::map<std::string, KvStore*>* primary_stores);

  // Creates (idempotently) `host`'s replica shard + replicator and installs
  // the forwarding hook on its primary store. Call before the host serves.
  void AttachHost(const std::string& host, KvStore* primary);
  ReplicaShard* ReplicaForHost(const std::string& host);
  const ReplicaShard* ReplicaForHost(const std::string& host) const;

  // Fences `host`'s replica shard (see ReplicaShard::Fence). Part of the
  // crash path: the cluster fences BOTH of a dead host's stores — primary
  // (migration filter) and mirror (this) — before quiescing and failing
  // over, so neither side of the corpse can absorb or serve state again.
  void FenceHost(const std::string& host);

  // In-process mirror of one key's current footprint onto its backups
  // (seeding writes from ShardedKvs: no network, no clock — safe from
  // unregistered threads).
  void MirrorKey(const std::string& key);

  // Converges every backup with its primary: streams keys whose content
  // differs (freezing each key across its export, so no forward races the
  // snapshot), re-anchors floors across primary changes, and reclaims
  // replica copies this epoch no longer assigns. Call after every
  // membership change.
  void Reconcile();

  // Promotes every key `dead_endpoint` mastered from a surviving backup
  // copy into the key's post-failover master (installs BEFORE the epoch
  // flips), counts the keys with no surviving copy, then flips the map.
  // The caller must have fenced and quiesced the dead store first.
  FailoverStats Failover(const std::string& dead_endpoint);

  const ReplicationStats& stats() const { return stats_; }

 private:
  struct HostState {
    std::unique_ptr<ReplicaShard> replica;
    std::unique_ptr<ReplicaServer> server;
    std::unique_ptr<ShardReplicator> replicator;
  };

  KvStore* PrimaryStoreAt(const std::string& endpoint) const;
  InProcNetwork* network_;
  ShardMap* map_;
  const std::map<std::string, KvStore*>* primary_stores_;  // endpoint -> shard
  ReplicationStats stats_;
  std::map<std::string, HostState> hosts_;  // host name -> state
};

}  // namespace faasm

#endif  // FAASM_KVS_REPLICATION_H_
