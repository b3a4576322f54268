// FaasmCluster: the whole deployment — N FaasmInstance hosts, the sharded
// global tier (one byte-accounted KvsServer shard per host, per-key
// mastership via a consistent-hash ShardMap — see kvs/router.h), a global
// file store, the function registry and the shared virtual-time executor.
// Benchmarks drive it through Frontend, a simulated external client.
//
// MEMBERSHIP IS ELASTIC: AddHost()/RemoveHost() resize the cluster while it
// serves traffic. In sharded mode each change migrates the affected keys
// between shards (kvs/migration.h) and bumps the ShardMap epoch; removal
// drains the host first (warm-set withdrawal, in-flight calls and mailbox
// run down) so no acknowledged work is lost. Retired instances stay alive
// (inert) until Shutdown so outstanding Awaits and metrics keep working.
//
// MEMBERSHIP CAN ALSO FAIL: a host can crash — no drain, no handoff, mail
// dropped. Two paths lead from a crash to recovery:
//
//   - ORACLE (KillHost): the driver both crashes the host and runs recovery
//     synchronously, as an omniscient test harness can. Deterministic; kept
//     as the baseline.
//   - DETECTION (CrashHost + failure_detection): the driver only pulls the
//     plug. Every host publishes heartbeats (kHeartbeatIntervalNs) to a
//     FailureDetector activity, which moves silent hosts through
//     alive → suspect → dead (runtime/failure_detector.h): silence past
//     kSuspicionTimeoutNs raises suspicion, a direct probe corroborates it
//     (slow-but-alive hosts answer and clear — no false-positive failover),
//     and kUnavailable bounces reported by every host's KvsClient accelerate
//     the probe. On confirmation the detector drives HandleConfirmedDeath —
//     the same fence → quiesce → Failover → Reconcile recovery KillHost
//     runs — so the cluster self-heals with no oracle in the loop.
//
// Either way, with replication_factor > 1 the replication substrate
// (kvs/replication.h) promotes every key the dead shard mastered from a
// live backup copy before the epoch flips, so no acknowledged update is
// lost; at factor 1 the dead shard's keys are gone and counted. Both of the
// corpse's stores are fenced first: its primary shard (migration filter —
// zombie writes bounce kWrongMaster) and its replica mirror
// (ReplicaShard::Fence — backups it held for other shards are dropped and
// re-homed by Reconcile, never promoted from a corpse).
#ifndef FAASM_RUNTIME_CLUSTER_H_
#define FAASM_RUNTIME_CLUSTER_H_

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/poll_lock.h"
#include "core/vfs.h"
#include "kvs/kvs_client.h"
#include "kvs/migration.h"
#include "kvs/replication.h"
#include "kvs/router.h"
#include "net/network.h"
#include "runtime/call_table.h"
#include "runtime/failure_detector.h"
#include "runtime/instance.h"
#include "runtime/registry.h"
#include "sim/sim_clock.h"

namespace faasm {

// Layout of the global state tier.
enum class StateTier {
  // One KVS endpoint ("kvs") serves the whole cluster — the pre-sharding
  // serialisation point, kept as the ablation baseline (--tier=central).
  kCentral,
  // One shard per host ("kvs:<host>"); each key is mastered by one shard
  // and ops on locally-mastered keys bypass the network entirely.
  kSharded,
};

struct ClusterConfig {
  int hosts = 4;
  StateTier state_tier = StateTier::kSharded;
  // Settings every host is built from: the initial hosts and every
  // AddHost() alike.
  HostConfig host;
  // Copies per shard, primary included (kvs/replication.h). 1 = no
  // replication: no replica endpoints, no forwarding hooks. >1 keeps R-1
  // live backups per shard, forwarded synchronously, and makes KillHost
  // lossless for acknowledged updates. Sharded tier only.
  int replication_factor = 1;
  // Replica reads (the three-tier read path, kvs_client.h): a host that
  // backs a key's shard serves reads from its local mirror in-process, zero
  // network bytes. Sound because the ack already covers every live backup.
  // Only meaningful at replication_factor > 1. Off = every cross-host read
  // pays the master RPC.
  bool replica_reads = true;
  // Heartbeat failure detection (runtime/failure_detector.h). When on, every
  // host heartbeats a detector activity that confirms crashes autonomously
  // and runs the KillHost recovery itself — CrashHost() with no further
  // driver involvement self-heals. Detection latency is bounded by
  // kSuspicionTimeoutNs + one heartbeat interval. Off: the oracle KillHost
  // is the only recovery path.
  bool failure_detection = false;
};

// Simulated external client (e.g. the platform's HTTP frontend): submits
// calls round-robin across hosts, as Knative's default endpoints do (§6.1).
// The host vector may grow and shrink under it (AddHost/RemoveHost from the
// activity that submits). Awaits park on the cluster-wide CallTable, so they
// need no host at all.
class Frontend {
 public:
  Frontend(std::vector<std::unique_ptr<FaasmInstance>>* hosts, CallTable* calls)
      : hosts_(hosts), calls_(calls) {}

  Result<uint64_t> Submit(const std::string& function, Bytes input) {
    const size_t host_index = next_++ % hosts_->size();
    FaasmInstance* host = (*hosts_)[host_index].get();
    return host->Submit(function, std::move(input));
  }

  Result<int> Await(uint64_t call_id) { return calls_->Await(call_id); }

  Result<int> Invoke(const std::string& function, Bytes input) {
    FAASM_ASSIGN_OR_RETURN(uint64_t id, Submit(function, std::move(input)));
    return Await(id);
  }

  Result<Bytes> Output(uint64_t call_id) { return calls_->Output(call_id); }

 private:
  std::vector<std::unique_ptr<FaasmInstance>>* hosts_;
  CallTable* calls_;
  size_t next_ = 0;
};

class FaasmCluster {
 public:
  explicit FaasmCluster(ClusterConfig config = {});
  ~FaasmCluster();

  FaasmCluster(const FaasmCluster&) = delete;
  FaasmCluster& operator=(const FaasmCluster&) = delete;

  // --- Components ---------------------------------------------------------------
  // Registering a function runs the upload step (UploadProto) on the calling
  // thread, which joins the virtual clock while it captures: register from
  // outside a simulated activity, as seeding does. (From inside one, only a
  // function whose capture never waits, with no simulated_init_ns and no
  // state or network calls in its init, can register.)
  FunctionRegistry& registry() { return registry_; }
  GlobalFileStore& files() { return files_; }
  // Direct, unaccounted view over every global-tier shard, routed by the
  // same ShardMap the hosts use (dataset seeding and test inspection).
  ShardedKvs& kvs() { return kvs_; }
  const ShardMap& shard_map() const { return shard_map_; }
  InProcNetwork& network() { return *network_; }
  SimClock& clock() { return executor_.clock(); }
  SimExecutor& executor() { return executor_; }
  CallTable& calls() { return calls_; }
  FaasmInstance& host(size_t index) { return *hosts_[index]; }
  size_t host_count() const { return hosts_.size(); }

  // Runs `driver` as a simulated client activity and blocks (in real time)
  // until it completes. Virtual time advances as needed.
  void Run(const std::function<void(Frontend&)>& driver);

  // --- Elastic membership ------------------------------------------------------
  // Adds a host (named "host-<n>", n monotonically increasing). In sharded
  // mode the new host serves a fresh shard: the ~1/N keys it now masters
  // are streamed onto it BEFORE the ShardMap epoch flips, so a route
  // resolved at either epoch finds the data (stale routes get kWrongMaster
  // redirects). In central mode this only adds compute — the tier is
  // untouched and the epoch does not move. Call from the driver activity.
  Result<std::string> AddHost();
  // Gracefully removes `name`: the host withdraws from every warm set,
  // in-flight calls (and the work-sharing mailbox) run down, then — in
  // sharded mode — every key its shard masters is streamed to the
  // survivors and the epoch flips. The instance is retired, not destroyed:
  // pending Awaits against it stay valid until Shutdown. Refuses to remove
  // the last host. Call from the driver activity.
  Status RemoveHost(const std::string& name);
  // Abruptly kills `name` AND runs recovery — the oracle path: no drain, no
  // handoff. The host's endpoints vanish (peers and clients fail fast with
  // kUnavailable and re-route), calls sitting unexecuted in its mailbox fail
  // with Internal, in-flight executions run to completion as zombies. In
  // sharded mode the dead shard's keys are then recovered: with replication
  // every key it mastered is promoted from a surviving backup BEFORE the
  // epoch flips (acked updates survive); at factor 1 they are lost and
  // counted. Refuses to kill the last host. Call from the driver activity.
  // Under failure_detection the detector is told to stand down for this
  // host (Forget) — the oracle beat it to the recovery.
  Result<FailoverStats> KillHost(const std::string& name);
  // Crashes `name` WITHOUT recovery or any oracle notification: the pulled
  // plug. The host's endpoints vanish and its mail fails exactly as in
  // KillHost, and its stores are sealed — the machine's memory is gone, so
  // its own zombies bounce off the local fast path and its replica copies
  // can never again source a promotion. But the shard map, backup sets and
  // failover stats are untouched: recovery happens only when the failure
  // detector confirms the death (requires failure_detection; without it the
  // dead shard stays orphaned and every op on it retries into a deadline
  // error). Refuses to crash the last host. Call from the driver activity.
  Status CrashHost(const std::string& name);
  // Cumulative shard-migration accounting across every membership change.
  const MigrationStats& migration_stats() const { return migration_stats_; }
  // Cumulative failover accounting across every KillHost.
  const FailoverStats& failover_stats() const { return failover_stats_; }
  // The replication substrate, or null at replication_factor 1 (and in
  // central mode). Tests and benches read its stats().
  const ReplicationManager* replication() const { return replication_.get(); }
  // The failure detector, or null unless failure_detection is on. Benches
  // read deaths() for detection-latency accounting; a death is published
  // there only AFTER its recovery completed, so waiting out death_count()
  // also waits out the failover.
  const FailureDetector* failure_detector() const { return detector_.get(); }

  // --- Cluster-wide metrics --------------------------------------------------------
  uint64_t network_bytes() const { return network_->total_bytes(); }
  double billable_gb_seconds() const;
  size_t cold_start_count() const;
  size_t warm_faaslet_count() const;

  void Shutdown();

 private:
  // The upload step (§5.2): creates `spec`'s Faaslet in `env`, which runs
  // its init code, and captures its Proto-Faaslet. A wasm proto is written
  // to the global tier as proto:<name> through the seeding view, unless a
  // concurrent capture already wrote one, which is then returned instead: a
  // proto lost with its shard (or unreadable) is written back once however
  // many hosts capture it again at once. Registration calls it, and a host
  // whose cold start finds no proto in the global tier.
  Result<std::shared_ptr<const ProtoFaaslet>> UploadProto(const FunctionSpec& spec,
                                                          FaasletEnv env);
  // Builds (but does not start) a host from the cluster's host template.
  std::unique_ptr<FaasmInstance> MakeHost(const std::string& name, KvStore* local_shard);
  // Takes `name` out of frontend rotation for RemoveHost, KillHost or
  // CrashHost (`action` words the refusal): NotFound for an unknown name,
  // FailedPrecondition for the last host. Caller must hold membership_lock_.
  Result<std::unique_ptr<FaasmInstance>> DetachHostLocked(const std::string& name,
                                                          const std::string& action);
  // The crash itself, shared by KillHost and CrashHost: the host's endpoints
  // vanish, its mail fails, both of its stores are sealed, and the corpse is
  // retired. Caller must hold membership_lock_.
  void CrashLocked(std::unique_ptr<FaasmInstance> host);
  // Allocates and wires `name`'s global-tier shard: store table, seeding
  // view, and the live-map ownership guard. Returns the store.
  KvStore* RegisterShard(const std::string& name);
  // The detector's DeathHandler: takes the membership lock and recovers the
  // confirmed-dead host's shard. Runs on the detector activity.
  void HandleConfirmedDeath(const std::string& name);
  // The shared recovery entry both KillHost (oracle) and HandleConfirmedDeath
  // (detection) drive: fence the dead primary AND its replica mirror,
  // quiesce, promote from surviving backups (or count the loss at factor 1),
  // flip the epoch, Reconcile, accumulate failover stats. Idempotent per
  // host name — whichever path arrives second is a no-op. Caller must hold
  // membership_lock_.
  FailoverStats RecoverDeadShardLocked(const std::string& name);
  ClusterConfig config_;
  SimExecutor executor_;
  std::unique_ptr<InProcNetwork> network_;
  // Global tier: per-host shards (kSharded) or one store (kCentral). The
  // shards outlive hosts_ (each host serves its shard on "kvs:<host>");
  // shards of removed hosts stay allocated (empty, ownership-guarded) so
  // straggler ops bounce instead of faulting.
  ShardMap shard_map_;
  std::vector<std::unique_ptr<KvStore>> kvs_shards_;
  std::map<std::string, KvStore*> shard_stores_;  // endpoint -> shard (migration)
  std::unique_ptr<KvsServer> central_kvs_server_;  // kCentral only
  // Replication substrate (sharded mode, replication_factor > 1): owns every
  // host's replica shard/server/replicator. Constructed before the first
  // RegisterShard so hosts attach as their shards appear.
  std::unique_ptr<ReplicationManager> replication_;
  // Failure detector (failure_detection only). Declared after network_ so it
  // unregisters its endpoint before the network dies.
  std::unique_ptr<FailureDetector> detector_;
  // Serialises every membership-changing flow — AddHost, RemoveHost,
  // KillHost, CrashHost and the detector's HandleConfirmedDeath — against
  // each other. A PollLock, not a std::mutex: these flows sleep virtual time
  // inside (drain waits, quiesce waits, failover streams), and a registered
  // thread parked in a kernel mutex would stall the virtual clock.
  PollLock membership_lock_{&executor_.clock()};
  // Host names whose crash recovery already ran (oracle or detection),
  // guarded by membership_lock_: makes the two recovery paths idempotent
  // when both notice the same death.
  std::set<std::string> recovered_hosts_;
  ShardedKvs kvs_;
  GlobalFileStore files_;
  FunctionRegistry registry_;
  CallTable calls_;
  std::vector<std::unique_ptr<FaasmInstance>> hosts_;
  // Removed-but-alive instances: their dispatchers are stopped and their
  // endpoints unregistered, but Awaits and metric reads remain valid.
  std::vector<std::unique_ptr<FaasmInstance>> retired_hosts_;
  // Serialises UploadProto's check-then-write of a wasm proto. Held only
  // around in-process store operations, never a capture.
  std::mutex upload_mutex_;
  int next_host_index_ = 0;
  MigrationStats migration_stats_;
  FailoverStats failover_stats_;
  bool shut_down_ = false;
};

}  // namespace faasm

#endif  // FAASM_RUNTIME_CLUSTER_H_
