#include "runtime/instance.h"

#include "common/log.h"
#include "kvs/replication.h"
#include "runtime/failure_detector.h"

namespace faasm {

namespace {
// Execution overhead charged per call (runtime dispatch, thread wake-up).
constexpr TimeNs kPerCallOverheadNs = 50 * kMicrosecond;

// How long a fetched warm-set view may serve scheduling decisions before it
// is refetched from the global tier (virtual time). Steady-state submits hit
// this cache instead of paying a SetMembers round trip per call.
constexpr TimeNs kWarmSetTtlNs = 2 * kMillisecond;
}  // namespace

FaasmInstance::FaasmInstance(std::string name, HostConfig config, SimExecutor* executor,
                             InProcNetwork* network, FunctionRegistry* registry, CallTable* calls,
                             GlobalFileStore* files, const ShardMap* shard_map,
                             KvStore* local_shard)
    : name_(std::move(name)),
      config_(config),
      executor_(executor),
      network_(network),
      registry_(registry),
      calls_(calls),
      files_(files),
      // Ownership is the shard store's live-map guard
      // (KvStore::SetOwnershipGuard, installed by the cluster): it
      // redirects ops for keys whose mastership moved.
      shard_server_(local_shard == nullptr
                        ? nullptr
                        : std::make_unique<KvsServer>(
                              local_shard, network, ShardMap::EndpointForHost(name_))),
      kvs_(network, name_, shard_map, local_shard),
      tier_(std::make_unique<LocalTier>(&kvs_, &executor->clock())),
      memory_(&executor->clock(), config_.memory_bytes),
      cpu_(&executor->clock(), config_.cores),
      share_rng_(HashBytes(reinterpret_cast<const uint8_t*>(name_.data()),
                           name_.size())) {
  // Multi-endpoint batch groups (writes AND grouped reads) overlap their
  // round trips on spawned activities.
  kvs_.SetSpawner([this](std::function<void()> fn) { executor_->Spawn(std::move(fn)); });
  if (config_.read_cache) {
    kvs_.EnableReadCache(config_.read_lease_ns);
  }
}

FaasmInstance::~FaasmInstance() { Stop(); }

void FaasmInstance::Start() {
  if (started_.exchange(true)) {
    return;
  }
  // The host endpoint answers nothing synchronously; work sharing uses the
  // mailbox. Registering makes the name routable for accounting.
  network_->RegisterEndpoint(name_, [](const Bytes&) { return Bytes{}; });
  executor_->Spawn([this] { DispatchLoop(); });
  if (heartbeats_) {
    executor_->Spawn([this] { HeartbeatLoop(); });
  }
}

void FaasmInstance::Stop() { stop_.store(true); }

void FaasmInstance::HeartbeatLoop() {
  // Publish liveness until the host stops. Send (not Call): a heartbeat is
  // fire-and-forget mail into the detector's mailbox, and a host must never
  // block on the detector. Kill() silences this loop via stop_ atomically
  // with unregistering the endpoints, so a crashed host's last heartbeat
  // strictly precedes the probe failure that confirms its death.
  while (!stop_.load()) {
    if (!heartbeats_suppressed_.load()) {
      network_->Send(name_, kFailureDetectorEndpoint, EncodeHeartbeat(name_));
    }
    executor_->clock().SleepFor(kHeartbeatIntervalNs);
  }
}

void FaasmInstance::BeginDrain() {
  if (draining_.exchange(true)) {
    return;
  }
  // Withdraw from every warm set so peers stop sharing work here. The
  // draining_ flag keeps AcquireFaaslet/UpdateWarmAdvertisement from
  // re-advertising while the in-flight calls (and the chained calls they
  // spawn) run down.
  UpdateWarmSets(PooledFunctions(), /*advertise=*/false);
}

void FaasmInstance::CancelDrain() {
  // Re-advertise the pools withdrawn by BeginDrain (unless saturated).
  if (draining_.exchange(false) && !advertised_saturated_.load()) {
    UpdateWarmSets(PooledFunctions(), /*advertise=*/true);
  }
}

std::vector<std::string> FaasmInstance::PooledFunctions() const {
  std::vector<std::string> functions;
  std::lock_guard<std::mutex> guard(pools_mutex_);
  for (const auto& [name, pool] : pools_) {
    if (pool.total > 0) {
      functions.push_back(name);
    }
  }
  return functions;
}

void FaasmInstance::UpdateWarmSets(const std::vector<std::string>& functions, bool advertise) {
  if (functions.empty()) {
    return;
  }
  // The warm keys hash across shards: one batched dispatch groups the
  // membership updates into at most one RPC per master endpoint instead of
  // one round trip per function.
  OpBatch batch;
  for (const std::string& function : functions) {
    if (advertise) {
      batch.SetAdd(kWarmKeyPrefix + function, name_);
    } else {
      batch.SetRemove(kWarmKeyPrefix + function, name_);
    }
  }
  (void)kvs_.ExecuteBatchNow(std::move(batch));
  for (const std::string& function : functions) {
    InvalidateWarmCache(function);
  }
}

bool FaasmInstance::Drained() const {
  // A call flows mailbox → accepting_ → running_calls_, each stage counted
  // before the previous releases it. Reading UPSTREAM FIRST means a call
  // can only dodge all three zero-reads by entering the mailbox after the
  // first read — impossible once CloseIntake() stopped new sends, which is
  // when this barrier is authoritative (the pre-migration wait is only a
  // best-effort quiescence; correctness there rests on the migration filter).
  return network_->PendingCount(name_) == 0 && accepting_.load() == 0 &&
         running_calls_.load() == 0;
}

void FaasmInstance::ReleaseRetiredMemory() {
  {
    std::lock_guard<std::mutex> guard(pools_mutex_);
    for (auto& [function, pool] : pools_) {
      // Drained: every pooled Faaslet is idle (total == idle.size()).
      for (const auto& faaslet : pool.idle) {
        memory_.Release(faaslet->FootprintBytes());
      }
    }
    pools_.clear();
    proto_cache_.clear();
  }
  // The local tier's replicas die with the host too.
  tier_->Clear();
  SyncTierAccounting();
}

void FaasmInstance::Kill() {
  // Crash semantics: everything vanishes at once, with no handoff. Order
  // matters only in that stop_/draining_ go first, so any zombie activity
  // that wakes after this observes a dead host and stops re-advertising.
  stop_.store(true);
  draining_.store(true);
  network_->UnregisterEndpoint(name_);
  if (shard_server_ != nullptr) {
    network_->UnregisterEndpoint(shard_server_->endpoint());
  }
  // The replica channel (kvs/replication.h) dies with the host too. The
  // endpoint exists only when the cluster runs replication; unregistering a
  // never-registered name is a no-op.
  network_->UnregisterEndpoint(ReplicaEndpointForHost(name_));
  // NOTE: shard_server_ (and the instance itself) must stay alive — a
  // handler on another thread may be mid-request; unregistering only stops
  // NEW calls from routing here.
}

void FaasmInstance::FailAbandonedMail() {
  while (auto message = network_->Poll(name_)) {
    auto call = DecodeCallMessage(*message);
    if (call.ok()) {
      (void)calls_->Fail(call.value().id,
                         "host '" + name_ + "' crashed before executing call");
    }
  }
}

void FaasmInstance::CloseIntake() {
  // Late work-sharing sends now fail at the sender, which falls back to
  // executing locally (ScheduleCall), so no NEW call can be stranded; the
  // dispatcher keeps polling until the caller observes Drained() and stops
  // it. The shard server (if any) stays registered: its store's live-map
  // ownership guard redirects every straggler op to the key's new master.
  network_->UnregisterEndpoint(name_);
}

void FaasmInstance::DispatchLoop() {
  SimClock& clock = executor_->clock();
  while (!stop_.load()) {
    // accepting_ covers the gap between a message leaving the mailbox
    // (PendingCount drops) and its call being counted in running_calls_:
    // without it a concurrent drain barrier could observe both counters at
    // zero and retire the host around a just-accepted call.
    accepting_.fetch_add(1);
    auto message = network_->Poll(name_);
    if (!message.has_value()) {
      accepting_.fetch_sub(1);
      clock.SleepFor(200 * kMicrosecond);
      continue;
    }
    auto call = DecodeCallMessage(*message);
    if (call.ok()) {
      ExecuteLocal(call.value().id, call.value().function, std::move(call.value().input));
    } else {
      LOG_ERROR << name_ << ": bad shared-call message: " << call.status().ToString();
    }
    accepting_.fetch_sub(1);
  }
}

Result<uint64_t> FaasmInstance::Submit(const std::string& function, Bytes input) {
  if (!registry_->Contains(function)) {
    return NotFound("no function named '" + function + "'");
  }
  const uint64_t id = calls_->Create(function);  // input travels with the schedule
  FAASM_RETURN_IF_ERROR(ScheduleCall(id, function, std::move(input)));
  return id;
}

Status FaasmInstance::ScheduleCall(uint64_t call_id, const std::string& function, Bytes input) {
  // Omega-style shared-state decision (§5.1): execute locally when this host
  // is warm for the function and has capacity; otherwise share with a warm
  // host found in the global tier; otherwise cold start — preferring the
  // host that masters the function's state, so its push/pull traffic takes
  // the shard-local fast path.
  bool warm_here = false;
  {
    std::lock_guard<std::mutex> guard(pools_mutex_);
    auto it = pools_.find(function);
    warm_here = it != pools_.end() && it->second.total > 0;
  }
  const bool has_capacity = running_calls_.load() < config_.max_concurrent_calls;
  if (warm_here && has_capacity) {
    ExecuteLocal(call_id, function, std::move(input));
    return OkStatus();
  }

  // State-affinity hint: the host mastering the function's declared state
  // key syncs that state with zero network bytes. Resolving the master is a
  // pure hash over the shard map — no tier traffic.
  std::string affinity_host;  // "" when the function declares no state key
  if (const std::string affinity_key = registry_->StateAffinityKey(function);
      !affinity_key.empty()) {
    affinity_host = kvs_.MasterHostFor(affinity_key);
  }

  // Not warm (or saturated): look for another warm host in the global tier
  // (short-TTL cached view; see WarmMembers).
  FAASM_ASSIGN_OR_RETURN(auto warm_hosts, WarmMembers(function));
  std::vector<std::string> others;
  for (const std::string& host : warm_hosts) {
    if (host != name_) {
      others.push_back(host);
    }
  }
  if (!others.empty()) {
    // Share with the affinity host when it is warm, else a random warm host
    // (paper: "share it with another warm host if one exists").
    const std::string* target = nullptr;
    for (const std::string& host : others) {
      if (host == affinity_host) {
        target = &host;
        break;
      }
    }
    if (target == nullptr) {
      target = &others[share_rng_.NextBelow(others.size())];
    }
    Status shared = network_->Send(name_, *target, EncodeCallMessage(call_id, function, input));
    if (shared.ok()) {
      return OkStatus();
    }
    // The warm host left the cluster between our (cached) warm-set view and
    // the send: execute here instead of failing the call.
    InvalidateWarmCache(function);
    ExecuteLocal(call_id, function, std::move(input));
    return OkStatus();
  }

  // No warm host anywhere. If this host has EVER seen a warm host for the
  // function, the set is empty because someone saturated and withdrew — do
  // NOT funnel more load at the master (that would bypass the withdrawal
  // backpressure); cold start locally to spread. Only a genuinely cold
  // function (never warm anywhere we've looked) is forwarded to the state's
  // master, so its replicas sync in-process from the first call.
  bool function_seen_warm = false;
  {
    std::lock_guard<std::mutex> guard(warm_cache_mutex_);
    function_seen_warm = warm_ever_.count(function) > 0;
  }
  if (!function_seen_warm && !affinity_host.empty() && affinity_host != name_) {
    Status forwarded = network_->Send(name_, affinity_host,
                                      EncodeCallMessage(call_id, function, input));
    if (forwarded.ok()) {
      return OkStatus();
    }
    // The master host is mid-removal; fall through to a local cold start
    // (the next epoch's master picks the affinity back up).
  }
  ExecuteLocal(call_id, function, std::move(input));
  return OkStatus();
}

Result<std::vector<std::string>> FaasmInstance::WarmMembers(const std::string& function) {
  const TimeNs now = executor_->clock().Now();
  {
    std::lock_guard<std::mutex> guard(warm_cache_mutex_);
    auto it = warm_cache_.find(function);
    if (it != warm_cache_.end() && now - it->second.fetched_at <= kWarmSetTtlNs) {
      return it->second.hosts;
    }
  }
  FAASM_ASSIGN_OR_RETURN(auto hosts, kvs_.SetMembers(kWarmKeyPrefix + function));
  {
    std::lock_guard<std::mutex> guard(warm_cache_mutex_);
    warm_cache_[function] = CachedWarmSet{hosts, now};
    if (!hosts.empty()) {
      warm_ever_.insert(function);
    }
  }
  return hosts;
}

void FaasmInstance::InvalidateWarmCache(const std::string& function) {
  std::lock_guard<std::mutex> guard(warm_cache_mutex_);
  warm_cache_.erase(function);
}

void FaasmInstance::UpdateWarmAdvertisement() {
  const bool saturated = running_calls_.load() >= config_.max_concurrent_calls;
  if (advertised_saturated_.exchange(saturated) == saturated) {
    return;
  }
  const std::vector<std::string> functions = PooledFunctions();
  if (saturated || !draining_.load()) {
    // A draining host never re-advertises: it must run down, not attract.
    UpdateWarmSets(functions, /*advertise=*/!saturated);
    return;
  }
  for (const std::string& function : functions) {
    InvalidateWarmCache(function);
  }
}

void FaasmInstance::ExecuteLocal(uint64_t call_id, const std::string& function, Bytes input) {
  // Count the call at ACCEPTANCE, on the caller's thread — not inside the
  // spawned activity. Otherwise a drain barrier (Drained()) could observe
  // the mailbox already emptied but the call not yet counted, and retire
  // the host with an acknowledged call about to start. The (possibly
  // remote) warm-set advertisement update stays inside the activity: it
  // must not serialise the dispatch hot path behind tier RPCs.
  running_calls_.fetch_add(1);
  executor_->Spawn([this, call_id, function, input = std::move(input)]() mutable {
    SimClock& clock = executor_->clock();
    UpdateWarmAdvertisement();
    bool cold = false;
    auto faaslet = AcquireFaaslet(function, &cold);
    if (!faaslet.ok()) {
      (void)calls_->Fail(call_id, faaslet.status().ToString());
      running_calls_.fetch_sub(1);
      return;
    }
    (void)calls_->MarkRunning(call_id, name_, cold);
    clock.SleepFor(kPerCallOverheadNs);

    Faaslet& f = *faaslet.value();
    Result<int> code = 0;
    {
      HostCpuModel::Running running(cpu_);
      CpuStopwatch execute_watch;
      code = f.Execute(std::move(input));
      if (f.is_wasm()) {
        // Wasm functions cannot self-report compute; charge the interpreter's
        // CPU time, which excludes host calls that block in virtual time
        // (native functions call ChargeCompute themselves).
        cpu_.Charge(execute_watch.ElapsedNs());
      }
    }
    Bytes output = code.ok() ? f.TakeOutput() : Bytes{};

    // Reset from the creation snapshot so the next call (possibly another
    // tenant) sees a pristine Faaslet; charge the restore's CPU time. The
    // reset happens BEFORE the call is marked finished: an awaiter's next
    // call may land here the instant completion is visible, and must find
    // the Faaslet back in the pool instead of cold-starting a redundant one.
    CpuStopwatch reset_watch;
    Status reset = f.Reset();
    clock.SleepFor(reset_watch.ElapsedNs());
    const size_t footprint = f.FootprintBytes();
    if (reset.ok()) {
      ReleaseFaaslet(std::move(faaslet).value());
    } else {
      LOG_WARN << name_ << ": faaslet reset failed: " << reset.ToString();
      memory_.Release(footprint);
    }
    SyncTierAccounting();

    if (code.ok()) {
      (void)calls_->Complete(call_id, code.value(), std::move(output));
    } else {
      (void)calls_->Fail(call_id, code.status().ToString());
    }
    executed_calls_.fetch_add(1);
    running_calls_.fetch_sub(1);
    UpdateWarmAdvertisement();
  });
}

FaasletEnv FaasmInstance::MakeEnv() {
  FaasletEnv env;
  env.clock = &executor_->clock();
  env.tier = tier_.get();
  env.files = files_;
  env.network = network_;
  env.host_endpoint = name_;
  env.cpu = &cpu_;
  env.chain = [this](const std::string& fn, Bytes in) { return Submit(fn, std::move(in)); };
  env.await = [this](uint64_t id) { return Await(id); };
  env.get_output = [this](uint64_t id) { return calls_->Output(id); };
  return env;
}

Result<std::unique_ptr<Faaslet>> FaasmInstance::ColdStart(const FunctionSpec& spec) {
  cold_starts_.fetch_add(1);
  FAASM_ASSIGN_OR_RETURN(std::shared_ptr<const ProtoFaaslet> proto, FetchProto(spec));
  // Charge the restore's CPU time to virtual time.
  CpuStopwatch watch;
  Result<std::unique_ptr<Faaslet>> faaslet =
      Faaslet::CreateFromProto(spec, MakeEnv(), std::move(proto));
  executor_->clock().SleepFor(watch.ElapsedNs());
  return faaslet;
}

Result<std::shared_ptr<const ProtoFaaslet>> FaasmInstance::FetchProto(const FunctionSpec& spec) {
  {
    std::lock_guard<std::mutex> guard(pools_mutex_);
    if (auto it = proto_cache_.find(spec.name); it != proto_cache_.end()) {
      return it->second;
    }
  }
  Result<std::shared_ptr<const ProtoFaaslet>> proto = spec.native_proto;
  if (proto.value() == nullptr) {
    proto = ProtoFaaslet::FromStored(spec.name, kvs_.Read(ProtoStateKey(spec.name)));
  }
  if (!proto.ok()) {
    // Lost with its shard, or unreadable: capture it again.
    FAASM_ASSIGN_OR_RETURN(proto, proto_source_(spec, MakeEnv()));
  }
  std::lock_guard<std::mutex> guard(pools_mutex_);
  proto_cache_.emplace(spec.name, proto.value());
  return proto;
}

Result<std::unique_ptr<Faaslet>> FaasmInstance::AcquireFaaslet(const std::string& function,
                                                               bool* cold) {
  {
    std::lock_guard<std::mutex> guard(pools_mutex_);
    auto it = pools_.find(function);
    if (it != pools_.end() && !it->second.idle.empty()) {
      auto faaslet = std::move(it->second.idle.back());
      it->second.idle.pop_back();
      *cold = false;
      return faaslet;
    }
  }
  *cold = true;
  FAASM_ASSIGN_OR_RETURN(FunctionSpec spec, registry_->Lookup(function));
  FAASM_ASSIGN_OR_RETURN(auto faaslet, ColdStart(spec));
  FAASM_RETURN_IF_ERROR(memory_.Allocate(faaslet->FootprintBytes()));
  {
    std::lock_guard<std::mutex> guard(pools_mutex_);
    pools_[function].total += 1;
  }
  // Advertise this host as warm for the function (unless saturated or on
  // the way out of the cluster).
  if (!advertised_saturated_.load() && !draining_.load()) {
    (void)kvs_.SetAdd(kWarmKeyPrefix + function, name_);
    InvalidateWarmCache(function);
  }
  return faaslet;
}

void FaasmInstance::ReleaseFaaslet(std::unique_ptr<Faaslet> faaslet) {
  std::lock_guard<std::mutex> guard(pools_mutex_);
  pools_[faaslet->function()].idle.push_back(std::move(faaslet));
}

Result<int> FaasmInstance::Await(uint64_t call_id) { return calls_->Await(call_id); }

void FaasmInstance::SyncTierAccounting() {
  const size_t now_bytes = tier_->resident_bytes();
  const size_t before = tier_bytes_accounted_.exchange(now_bytes);
  if (now_bytes > before) {
    // Local tier growth counts against host memory; on overflow we log but do
    // not fail the call (the state already exists in the region).
    Status status = memory_.Allocate(now_bytes - before);
    if (!status.ok()) {
      LOG_WARN << name_ << ": local tier exceeds host memory";
    }
  } else if (before > now_bytes) {
    memory_.Release(before - now_bytes);
  }
}

size_t FaasmInstance::warm_faaslet_count() const {
  std::lock_guard<std::mutex> guard(pools_mutex_);
  size_t count = 0;
  for (const auto& [name, pool] : pools_) {
    count += pool.total;
  }
  return count;
}

}  // namespace faasm
