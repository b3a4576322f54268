// FaasmInstance: one FAASM runtime per host (§5). Manages a pool of warm
// Faaslets, schedules calls with the Omega-style shared-state policy
// (execute locally when warm with capacity, otherwise share with a warm host
// discovered through the global tier), performs cold starts by restoring
// the function's Proto-Faaslet, and accounts host memory.
#ifndef FAASM_RUNTIME_INSTANCE_H_
#define FAASM_RUNTIME_INSTANCE_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/faaslet.h"
#include "kvs/kvs_client.h"
#include "runtime/call_table.h"
#include "runtime/memory_accountant.h"
#include "runtime/registry.h"
#include "sim/sim_clock.h"

namespace faasm {

// Per-host settings. A cluster builds every host from one template
// (ClusterConfig::host); each host's name is a constructor argument.
struct HostConfig {
  int cores = 4;
  size_t memory_bytes = size_t{16} * 1024 * 1024 * 1024;  // paper testbed: 16 GB
  int max_concurrent_calls = 64;
  // Per-host read cache (kvs/read_cache.h). Off by default: cached reads may
  // lag OTHER hosts' writes by up to read_lease_ns, which read-modify-write
  // workloads must not opt into (see the coherence rules in kvs_client.h).
  bool read_cache = false;
  TimeNs read_lease_ns = 2 * kMillisecond;
};

class FaasmInstance {
 public:
  // `shard_map`/`local_shard` wire the host into the global tier: the
  // instance's KvsClient routes per key (kvs/router.h), and a non-null
  // `local_shard` is served on "kvs:<name>". A null `local_shard` routes
  // without a co-located shard (the central tier).
  FaasmInstance(std::string name, HostConfig config, SimExecutor* executor,
                InProcNetwork* network, FunctionRegistry* registry, CallTable* calls,
                GlobalFileStore* files, const ShardMap* shard_map, KvStore* local_shard);
  ~FaasmInstance();

  FaasmInstance(const FaasmInstance&) = delete;
  FaasmInstance& operator=(const FaasmInstance&) = delete;

  // Captures a Proto-Faaslet again, in this host's env, when a cold start
  // finds none in the global tier (FaasmCluster::UploadProto).
  using ProtoSource = std::function<Result<std::shared_ptr<const ProtoFaaslet>>(
      const FunctionSpec&, FaasletEnv)>;
  void SetProtoSource(ProtoSource source) { proto_source_ = std::move(source); }
  // The env this host's Faaslets run in.
  FaasletEnv MakeEnv();

  // Publishes one heartbeat per kHeartbeatIntervalNs to the failure
  // detector's mailbox (runtime/failure_detector.h) from Start() until the
  // host stops; a crash (Kill) silences it atomically with the endpoints
  // vanishing. Call before Start(); without it the host sends no heartbeats.
  void EnableHeartbeats() { heartbeats_ = true; }
  // Registers the host endpoint and starts the dispatcher.
  void Start();
  // Stops the dispatcher (idempotent).
  void Stop();

  // --- Graceful removal (cluster elasticity) ----------------------------------
  // Removal protocol (runtime/cluster.h RemoveHost): BeginDrain →
  // wait(Drained) → [migrate shard] → CloseIntake → wait(Drained) → Stop.
  // The second drain wait matters: a peer with a stale warm-set view can
  // still enqueue work between the first wait and CloseIntake, and that
  // call must execute, not rot in the mailbox.
  //
  // Begins draining: withdraws this host from every warm set (so peers stop
  // sharing work here) and pins the advertisement down. Calls already
  // in flight — including chained calls they spawn — keep executing.
  void BeginDrain();
  // Reverts a drain whose removal was abandoned (failed migration): the
  // host re-advertises its warm pools and serves normally again.
  void CancelDrain();
  // True once nothing is running and the work-sharing mailbox is empty; the
  // host can then be retired without losing an acknowledged call.
  bool Drained() const;
  // Unregisters the host endpoint: late work-sharing sends now fail fast at
  // the sender (which falls back to executing locally), while the still-
  // running dispatcher polls out whatever the mailbox already holds.
  void CloseIntake();
  // Returns the retired host's memory to its accountant — warm Faaslet
  // pools and local-tier replicas die with the host. Without this a removed
  // host would keep accruing billable GB-seconds for the rest of the run
  // (GbSeconds() integrates current bytes over virtual time at read time).
  // Call after Stop() on a drained host.
  void ReleaseRetiredMemory();

  // --- Crash removal (cluster failover) ----------------------------------------
  // The abrupt counterpart of the drain protocol (runtime/cluster.h
  // KillHost): no drain, no handoff. Stops the dispatcher and unregisters
  // every endpoint the host serves — its work-sharing mailbox endpoint, its
  // shard server, and its replica channel — so peers and clients fail fast
  // with kUnavailable instead of queueing on a corpse. In-flight executions
  // become zombies: they run to completion (the simulation cannot reach into
  // a thread), but nothing new is accepted and nothing the host mastered is
  // served again. The server objects stay alive — a handler mid-flight on
  // another thread must not have its server destroyed under it.
  void Kill();
  // Fails every call still sitting in the killed host's mailbox (accepted by
  // Submit, never executed): the frontend's Await gets an Internal error
  // instead of hanging forever. Call after Kill().
  void FailAbandonedMail();

  // Submits a call (from a frontend or a chained call on this host) and
  // schedules it per the distributed policy. Returns the call id.
  Result<uint64_t> Submit(const std::string& function, Bytes input);

  // Blocks (virtually) until the call finishes; returns its exit code.
  Result<int> Await(uint64_t call_id);

  const std::string& name() const { return name_; }
  LocalTier& tier() { return *tier_; }
  KvsClient& kvs() { return kvs_; }
  // This host's shard server, or null in centralised mode. Benches read its
  // read_rpc_count() to gate cross-host pull RPC reductions.
  const KvsServer* shard_server() const { return shard_server_.get(); }
  MemoryAccountant& memory_accountant() { return memory_; }
  const MemoryAccountant& memory_accountant() const { return memory_; }
  HostCpuModel& cpu() { return cpu_; }

  size_t warm_faaslet_count() const;
  size_t cold_start_count() const { return cold_starts_.load(); }
  size_t executed_call_count() const { return executed_calls_.load(); }

  // Test hook (detector flap coverage): while suppressed the heartbeat
  // activity skips its Sends but keeps running — a "slow" host whose
  // silence exceeds the suspicion timeout while it stays fully alive.
  void set_heartbeats_suppressed(bool suppressed) { heartbeats_suppressed_.store(suppressed); }

 private:
  struct FunctionPool {
    std::vector<std::unique_ptr<Faaslet>> idle;
    int total = 0;  // idle + busy
  };

  void DispatchLoop();
  // The EnableHeartbeats activity body; crash (Kill) silences it via stop_.
  void HeartbeatLoop();
  // Placement decision for a submitted call.
  Status ScheduleCall(uint64_t call_id, const std::string& function, Bytes input);
  // Runs the call on this host (spawning an execution activity).
  void ExecuteLocal(uint64_t call_id, const std::string& function, Bytes input);

  // Pops or creates a Faaslet for `function`; sets `cold` when created.
  Result<std::unique_ptr<Faaslet>> AcquireFaaslet(const std::string& function, bool* cold);
  void ReleaseFaaslet(std::unique_ptr<Faaslet> faaslet);
  // Restores a Faaslet from the function's Proto-Faaslet (§5.2).
  Result<std::unique_ptr<Faaslet>> ColdStart(const FunctionSpec& spec);
  // The proto a cold start restores: this host's cached copy, else a native
  // stand-in's upload-time proto or the one the upload wrote to the global
  // tier (read through kvs_), else a new capture (proto_source_).
  Result<std::shared_ptr<const ProtoFaaslet>> FetchProto(const FunctionSpec& spec);

  // Omega-style shared state hygiene: a saturated host withdraws itself from
  // the warm sets so peers cold start elsewhere instead of piling work onto
  // it; it re-advertises when capacity frees up.
  void UpdateWarmAdvertisement();
  // The functions this host holds Faaslets for.
  std::vector<std::string> PooledFunctions() const;
  // Adds/removes this host to the warm sets of `functions`, batching the
  // cross-shard membership updates into per-endpoint RPCs when enabled, and
  // invalidates the affected warm-cache entries.
  void UpdateWarmSets(const std::vector<std::string>& functions, bool advertise);

  // Warm-set view for `function`, served from the short-TTL cache when
  // fresh; refetched from the global tier otherwise.
  Result<std::vector<std::string>> WarmMembers(const std::string& function);
  // Drops the cached view after this host mutates the warm set, so its own
  // membership changes are visible to its next scheduling decision.
  void InvalidateWarmCache(const std::string& function);

  void SyncTierAccounting();

  const std::string name_;
  HostConfig config_;
  bool heartbeats_ = false;
  SimExecutor* executor_;
  InProcNetwork* network_;
  FunctionRegistry* registry_;
  CallTable* calls_;
  GlobalFileStore* files_;
  ProtoSource proto_source_;

  // This host's shard of the global tier, served on "kvs:<name>" (null in
  // centralised mode).
  std::unique_ptr<KvsServer> shard_server_;
  KvsClient kvs_;
  std::unique_ptr<LocalTier> tier_;
  MemoryAccountant memory_;
  HostCpuModel cpu_;

  mutable std::mutex pools_mutex_;
  std::map<std::string, FunctionPool> pools_;
  std::map<std::string, std::shared_ptr<const ProtoFaaslet>> proto_cache_;

  struct CachedWarmSet {
    std::vector<std::string> hosts;
    TimeNs fetched_at = 0;
  };
  std::mutex warm_cache_mutex_;
  std::map<std::string, CachedWarmSet> warm_cache_;
  // Functions this host has ever observed warm somewhere. An empty warm set
  // for such a function means hosts withdrew (saturation backpressure), so
  // the scheduler must not keep funnelling cold starts at the state master.
  std::set<std::string> warm_ever_;

  std::atomic<int> running_calls_{0};
  // Dispatcher is between "message left the mailbox" and "call counted in
  // running_calls_" (drain-barrier coverage; see DispatchLoop).
  std::atomic<int> accepting_{0};
  std::atomic<bool> draining_{false};
  std::atomic<bool> advertised_saturated_{false};
  std::atomic<size_t> cold_starts_{0};
  std::atomic<size_t> executed_calls_{0};
  std::atomic<size_t> tier_bytes_accounted_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> heartbeats_suppressed_{false};
  Rng share_rng_;
};

}  // namespace faasm

#endif  // FAASM_RUNTIME_INSTANCE_H_
