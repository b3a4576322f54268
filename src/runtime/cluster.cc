#include "runtime/cluster.h"

#include <future>

namespace faasm {

FaasmCluster::FaasmCluster(ClusterConfig config)
    : config_(config),
      network_(std::make_unique<InProcNetwork>(&executor_.clock())),
      calls_(&executor_.clock()) {
  const bool sharded = config.state_tier == StateTier::kSharded;
  if (sharded) {
    // Replication substrate first: RegisterShard attaches each host to it
    // as the shard appears, so backups exist before any traffic does.
    if (config.replication_factor > 1) {
      // The map is the factor's one home: the substrate replicates at it,
      // and HoldersFor (scheduler placement) and every client's replica
      // tier resolve backups with it.
      shard_map_.set_replication_factor(config.replication_factor);
      replication_ =
          std::make_unique<ReplicationManager>(network_.get(), &shard_map_, &shard_stores_);
    }
    // One shard per host, mastered by consistent hashing. Each host serves
    // its shard on "kvs:<host>" (the FaasmInstance registers the server).
    for (int i = 0; i < config.hosts; ++i) {
      RegisterShard("host-" + std::to_string(i));
      shard_map_.AddShard(ShardMap::EndpointForHost("host-" + std::to_string(i)));
    }
  } else {
    // Centralised baseline: every key is mastered by the standalone "kvs"
    // endpoint, which is co-located with no host — all tier traffic crosses
    // the network, exactly the pre-sharding serialisation point.
    kvs_shards_.push_back(std::make_unique<KvStore>());
    shard_map_.AddShard("kvs");
    kvs_.AddStore("kvs", kvs_shards_.back().get());
    central_kvs_server_ =
        std::make_unique<KvsServer>(kvs_shards_.back().get(), network_.get());
  }
  kvs_.Attach(&shard_map_);
  if (replication_ != nullptr) {
    // Seeding writes through the direct view get backups too, via the
    // in-process mirror (no network, no clock — seeding threads are
    // typically not registered with the simulation).
    kvs_.SetMutationObserver(
        [this](const std::string& key) { replication_->MirrorKey(key); });
  }

  if (config.failure_detection) {
    // Detector before the hosts, so heartbeat activities have a mailbox
    // from their first beat.
    detector_ = std::make_unique<FailureDetector>(
        network_.get(), &executor_.clock(),
        [this](const std::string& host) { HandleConfirmedDeath(host); });
  }

  for (int i = 0; i < config.hosts; ++i) {
    const std::string name = "host-" + std::to_string(next_host_index_++);
    hosts_.push_back(MakeHost(name, sharded ? kvs_shards_[i].get() : nullptr));
  }
  for (auto& host : hosts_) {
    host->Start();
    if (detector_ != nullptr) {
      detector_->Track(host->name());
    }
  }
  registry_.SetUploadStep([this](FunctionSpec& spec) -> Status {
    // Registration comes from outside the simulation; the capture may sleep
    // virtual time (simulated_init_ns, state calls in init), so the thread
    // joins the clock for it. Init runs in the first host's env.
    SimClock::Hold hold(executor_.clock());
    FAASM_ASSIGN_OR_RETURN(auto proto, UploadProto(spec, hosts_.front()->MakeEnv()));
    if (spec.module == nullptr) {
      spec.native_proto = std::move(proto);
    }
    return OkStatus();
  });
  if (detector_ != nullptr) {
    executor_.Spawn([this] { detector_->Run(); });
  }
}

FaasmCluster::~FaasmCluster() { Shutdown(); }

KvStore* FaasmCluster::RegisterShard(const std::string& name) {
  const std::string endpoint = ShardMap::EndpointForHost(name);
  kvs_shards_.push_back(std::make_unique<KvStore>());
  KvStore* store = kvs_shards_.back().get();
  shard_stores_[endpoint] = store;
  kvs_.AddStore(endpoint, store);
  // Live-map ownership guard: an op that reaches this store for a key it
  // does not master under the CURRENT epoch — a straggler that resolved its
  // route before a membership change, even on the in-process fast path —
  // bounces with kWrongMaster and re-routes.
  store->SetOwnershipGuard(shard_map_.MastersAt(endpoint));
  if (replication_ != nullptr) {
    replication_->AttachHost(name, store);
  }
  return store;
}

Result<std::shared_ptr<const ProtoFaaslet>> FaasmCluster::UploadProto(const FunctionSpec& spec,
                                                                       FaasletEnv env) {
  FAASM_ASSIGN_OR_RETURN(std::unique_ptr<Faaslet> faaslet, Faaslet::Create(spec, std::move(env)));
  std::shared_ptr<const ProtoFaaslet> proto = faaslet->proto();
  if (spec.module != nullptr) {
    const std::string key = ProtoStateKey(spec.name);
    std::lock_guard<std::mutex> guard(upload_mutex_);
    if (auto kept = ProtoFaaslet::FromStored(spec.name, kvs_.Get(key)); kept.ok()) {
      return kept;  // a concurrent capture of the same function wrote first
    }
    // A write that fails (the key's shard mid-migration or dead) leaves the
    // next cold start to capture again.
    (void)kvs_.Set(key, proto->Serialize());
  }
  return proto;
}

std::unique_ptr<FaasmInstance> FaasmCluster::MakeHost(const std::string& name,
                                                      KvStore* local_shard) {
  auto host = std::make_unique<FaasmInstance>(name, config_.host, &executor_, network_.get(),
                                              &registry_, &calls_, &files_, &shard_map_,
                                              local_shard);
  host->SetProtoSource(
      [this](const FunctionSpec& spec, FaasletEnv env) { return UploadProto(spec, std::move(env)); });
  if (detector_ != nullptr) {
    host->EnableHeartbeats();
    // Client evidence feeds detection: every kUnavailable bounce this host's
    // ops see schedules a corroborating probe on the detector's next sweep.
    FailureDetector* detector = detector_.get();
    host->kvs().SetSuspicionHook(
        [detector](const std::string& endpoint) { detector->ReportSuspicion(endpoint); });
  }
  if (replication_ != nullptr && config_.replica_reads) {
    // Tier two of the read path: hand the client its co-located mirror so
    // reads of keys this host backs are served in-process.
    host->kvs().EnableReplicaReads(replication_->ReplicaForHost(name));
  }
  return host;
}

Result<std::string> FaasmCluster::AddHost() {
  PollLock::WriteGuard membership(membership_lock_);
  const bool sharded = config_.state_tier == StateTier::kSharded;
  const std::string name = "host-" + std::to_string(next_host_index_++);

  KvStore* shard = sharded ? RegisterShard(name) : nullptr;

  // Start the instance first: its shard server must be registered before
  // the migration streams keys at it. Until the epoch flips the new shard
  // masters nothing, so no regular traffic reaches it early.
  std::unique_ptr<FaasmInstance> host = MakeHost(name, shard);
  host->Start();

  if (sharded) {
    ShardMigrator migrator(network_.get(), &shard_map_, &shard_stores_);
    auto stats = migrator.AddShard(ShardMap::EndpointForHost(name));
    if (!stats.ok()) {
      // The instance must outlive its dispatcher activity (joined at
      // Shutdown), so park it retired instead of destroying it here.
      host->CloseIntake();
      host->Stop();
      retired_hosts_.push_back(std::move(host));
      return stats.status();
    }
    migration_stats_ += stats.value();
    if (replication_ != nullptr) {
      // The new epoch rotated some backup assignments: catch the new
      // backups up and reclaim copies the old assignment left behind.
      replication_->Reconcile();
    }
  }

  // Only now expose the host to frontend round-robin (and the detector:
  // Track starts the suspicion window at now, so the new host has a full
  // timeout before its first heartbeat is due).
  if (detector_ != nullptr) {
    detector_->Track(name);
  }
  hosts_.push_back(std::move(host));
  return name;
}

Result<std::unique_ptr<FaasmInstance>> FaasmCluster::DetachHostLocked(const std::string& name,
                                                                       const std::string& action) {
  auto it = hosts_.begin();
  for (; it != hosts_.end(); ++it) {
    if ((*it)->name() == name) {
      break;
    }
  }
  if (it == hosts_.end()) {
    return NotFound("cluster: no host named '" + name + "'");
  }
  if (hosts_.size() <= 1) {
    return FailedPrecondition("cluster: cannot " + action + " the last host");
  }
  Result<std::unique_ptr<FaasmInstance>> host(std::move(*it));
  hosts_.erase(it);
  return host;
}

Status FaasmCluster::RemoveHost(const std::string& name) {
  PollLock::WriteGuard membership(membership_lock_);
  FAASM_ASSIGN_OR_RETURN(std::unique_ptr<FaasmInstance> host, DetachHostLocked(name, "remove"));

  // Stand the detector down FIRST: removal stops the host's heartbeats and
  // (at CloseIntake) unregisters its probe endpoint, which an armed
  // detector would read as a crash and fail over a host that is handing its
  // keys off cleanly.
  if (detector_ != nullptr) {
    detector_->Forget(name);
  }

  // Out of frontend rotation already; now drain: the host withdraws from
  // every warm set (peers stop sharing work here) and its in-flight calls —
  // plus whatever its mailbox already holds — run down.
  host->BeginDrain();
  executor_.clock().WaitFor([&] { return host->Drained(); });

  // Hand every key the departing shard masters to the survivors, flipping
  // the epoch. Ops racing the handoff bounce (kWrongMaster) and retry
  // against the new route; held locks travel with their keys.
  if (config_.state_tier == StateTier::kSharded) {
    ShardMigrator migrator(network_.get(), &shard_map_, &shard_stores_);
    auto stats = migrator.RemoveShard(ShardMap::EndpointForHost(name));
    if (!stats.ok()) {
      // Migration abandoned pre-flip: the shard is still in the map, so the
      // host must keep serving. Restore it fully — back into rotation,
      // re-advertising its warm pools, re-armed in the detector — and leave
      // the removal retryable.
      host->CancelDrain();
      if (detector_ != nullptr) {
        detector_->Track(name);
      }
      hosts_.push_back(std::move(host));
      return stats.status();
    }
    migration_stats_ += stats.value();
    if (replication_ != nullptr) {
      replication_->Reconcile();
    }
  }

  // Close intake and drain AGAIN: a peer with a stale warm-set view may
  // have enqueued work between the first drain and now (its sends
  // succeeded, so it did not fall back); the dispatcher must poll those
  // calls out before it stops, or they would be acknowledged yet never run.
  // After CloseIntake new sends fail fast at the sender, so the mailbox
  // can only shrink.
  host->CloseIntake();
  executor_.clock().WaitFor([&] { return host->Drained(); });

  // Retire: the instance object stays alive (inert) for pending Awaits and
  // cumulative metrics until Shutdown, but its memory goes back to the
  // accountant now — a removed host must stop accruing billable GB-seconds.
  host->Stop();
  host->ReleaseRetiredMemory();
  retired_hosts_.push_back(std::move(host));
  return OkStatus();
}

Result<FailoverStats> FaasmCluster::KillHost(const std::string& name) {
  PollLock::WriteGuard membership(membership_lock_);
  FAASM_ASSIGN_OR_RETURN(std::unique_ptr<FaasmInstance> host, DetachHostLocked(name, "kill"));
  // The oracle handles this death itself: stand the detector down so its
  // eventual probe failure does not race a second recovery (Recover is
  // idempotent anyway; Forget just saves the detector the probe).
  if (detector_ != nullptr) {
    detector_->Forget(name);
  }
  CrashLocked(std::move(host));
  return RecoverDeadShardLocked(name);
}

Status FaasmCluster::CrashHost(const std::string& name) {
  PollLock::WriteGuard membership(membership_lock_);
  FAASM_ASSIGN_OR_RETURN(std::unique_ptr<FaasmInstance> host, DetachHostLocked(name, "crash"));
  // The plug, pulled: NOTHING downstream is told. The shard map still routes
  // at the corpse (ops bounce kUnavailable and retry), the backup sets still
  // list it, and recovery starts only when the failure detector confirms the
  // silence. The detector is deliberately NOT told either — noticing is its
  // job.
  CrashLocked(std::move(host));
  return OkStatus();
}

void FaasmCluster::CrashLocked(std::unique_ptr<FaasmInstance> host) {
  // Every endpoint the host serves vanishes at once and nothing in its
  // mailbox will ever run — fail those calls now so their Awaits return an
  // error instead of hanging. In-flight executions are zombies: they run to
  // completion but the cluster no longer routes anything at them.
  host->Kill();
  host->FailAbandonedMail();
  // The machine's MEMORY died with it: seal both of its stores now, exactly
  // as the recovery fence will again later. Without this, the corpse's own
  // zombie executions keep the in-process fast path into its primary store
  // — and when an overlapping failover transiently re-masters a key onto
  // the (unconfirmed-dead) corpse, a zombie's lock/unlock applies against a
  // store that never held the key's promoted state, silently corrupting
  // lock ownership (a lock released into the void is held forever).
  // Fencing makes every such op bounce kWrongMaster and retry until the
  // failover routes it at the promoted copy. The mirror fence also drops
  // its backup copies, so no later failover can promote from memory that
  // no longer exists.
  if (config_.state_tier == StateTier::kSharded) {
    if (auto store = shard_stores_.find(ShardMap::EndpointForHost(host->name()));
        store != shard_stores_.end()) {
      store->second->SetMigrationFilter([](const std::string&) { return true; });
    }
    if (replication_ != nullptr) {
      replication_->FenceHost(host->name());
    }
  }
  // Retire the corpse. Unlike graceful removal, its memory is NOT released:
  // zombie executions may still be accounting against it, and a crashed
  // host's bill stopping instantly is an accounting fiction anyway.
  retired_hosts_.push_back(std::move(host));
}

void FaasmCluster::HandleConfirmedDeath(const std::string& name) {
  // Runs on the detector activity. The membership lock serialises this
  // recovery against concurrent AddHost/RemoveHost/KillHost flows (all of
  // which sleep virtual time inside — hence a PollLock).
  PollLock::WriteGuard membership(membership_lock_);
  RecoverDeadShardLocked(name);
}

FailoverStats FaasmCluster::RecoverDeadShardLocked(const std::string& name) {
  FailoverStats stats;
  if (!recovered_hosts_.insert(name).second) {
    return stats;  // the other path (oracle vs detection) got here first
  }
  const TimeNs start = executor_.clock().Now();

  if (config_.state_tier == StateTier::kSharded) {
    const std::string endpoint = ShardMap::EndpointForHost(name);
    KvStore* dead_store = shard_stores_[endpoint];
    // Fence the corpse — BOTH of its stores, before anything is promoted:
    //   - its primary shard: a zombie execution that already resolved its
    //     route at the dead shard must not mutate state the failover is
    //     about to snapshot — from here every op on it bounces kWrongMaster;
    //   - its replica mirror: backups it held for OTHER shards are dropped
    //     and rejected from now on, so no later failover can promote from a
    //     corpse (Reconcile below re-homes them onto live backups).
    dead_store->SetMigrationFilter([](const std::string&) { return true; });
    if (replication_ != nullptr) {
      replication_->FenceHost(name);
    }
    // Quiesce: mutations that passed the fence before it went up finish
    // under the shard mutexes; wait them out so the promotion below reads a
    // stable store.
    executor_.clock().WaitFor([&] { return dead_store->inflight_mutations() == 0; });

    if (replication_ != nullptr) {
      // Promote every key the dead shard mastered from a surviving backup
      // into its post-failover master, then flip the epoch (inside
      // Failover). Clients recover through the ordinary kWrongMaster /
      // kUnavailable bounce; the (key, epoch)-keyed read cache invalidates
      // implicitly at the flip.
      stats = replication_->Failover(endpoint);
      // Restore the invariant the crash broke: every surviving shard has
      // R-1 live backups again (the promoted keys' new masters included).
      replication_->Reconcile();
    } else {
      // No replication: the dead shard's keys have no other copy. Count
      // them as lost, erase the corpse (hygiene — the store object stays
      // allocated so stragglers bounce on the fence) and flip the epoch so
      // survivors re-master the keyspace.
      for (const auto& key : dead_store->Keys()) {
        ++stats.lost_keys;
        dead_store->EraseKey(key);
      }
      shard_map_.RemoveShard(endpoint);
      stats.epoch = shard_map_.epoch();
    }
  }
  stats.duration_ns = executor_.clock().Now() - start;
  failover_stats_ += stats;
  return stats;
}

void FaasmCluster::Shutdown() {
  if (shut_down_) {
    return;
  }
  shut_down_ = true;
  if (detector_ != nullptr) {
    detector_->Stop();
  }
  for (auto* hosts : {&hosts_, &retired_hosts_}) {
    for (auto& host : *hosts) {
      host->Stop();
    }
  }
  executor_.JoinAll();
}

void FaasmCluster::Run(const std::function<void(Frontend&)>& driver) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  executor_.Spawn([this, &driver, &done] {
    Frontend frontend(&hosts_, &calls_);
    driver(frontend);
    done.set_value();
  });
  finished.wait();
}

double FaasmCluster::billable_gb_seconds() const {
  double total = 0;
  for (const auto* hosts : {&hosts_, &retired_hosts_}) {
    for (const auto& host : *hosts) {
      total += host->memory_accountant().GbSeconds();
    }
  }
  return total;
}

size_t FaasmCluster::cold_start_count() const {
  size_t count = 0;
  for (const auto* hosts : {&hosts_, &retired_hosts_}) {
    for (const auto& host : *hosts) {
      count += host->cold_start_count();
    }
  }
  return count;
}

size_t FaasmCluster::warm_faaslet_count() const {
  size_t count = 0;
  for (const auto& host : hosts_) {
    count += host->warm_faaslet_count();
  }
  return count;
}

}  // namespace faasm
