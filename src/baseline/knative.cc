#include "baseline/knative.h"

#include <future>

#include "common/log.h"

namespace faasm {

namespace {
Bytes EncodeDispatch(uint64_t id, const std::string& function, const Bytes& input) {
  Bytes out;
  ByteWriter writer(out);
  writer.Put<uint64_t>(id);
  writer.PutString(function);
  writer.PutBytes(input);
  return out;
}
}  // namespace

// --- KnativeInstance -------------------------------------------------------------

KnativeInstance::KnativeInstance(std::string name, HostConfig config, ContainerModel model,
                                 SimExecutor* executor, InProcNetwork* network,
                                 FunctionRegistry* registry, CallTable* calls,
                                 KnativeCluster* cluster)
    : name_(std::move(name)),
      config_(config),
      model_(model),
      executor_(executor),
      network_(network),
      registry_(registry),
      calls_(calls),
      cluster_(cluster),
      memory_(&executor->clock(), config_.memory_bytes),
      cpu_(&executor->clock(), config_.cores) {}

KnativeInstance::~KnativeInstance() { Stop(); }

void KnativeInstance::Start() {
  if (started_.exchange(true)) {
    return;
  }
  network_->RegisterEndpoint(name_, [](const Bytes&) { return Bytes{}; });
  executor_->Spawn([this] { DispatchLoop(); });
}

void KnativeInstance::Stop() { stop_.store(true); }

void KnativeInstance::Retire() {
  Stop();
  network_->UnregisterEndpoint(name_);
  // The host's containers (and their private state copies) die with it:
  // return their memory so a removed host stops accruing billable
  // GB-seconds for the rest of the run.
  std::lock_guard<std::mutex> guard(pools_mutex_);
  for (auto& [function, containers] : idle_) {
    for (const auto& container : containers) {
      size_t tier_bytes = 0;
      if (auto it = accounted_tier_bytes_.find(container.get());
          it != accounted_tier_bytes_.end()) {
        tier_bytes = it->second;
      }
      memory_.Release(model_.base_footprint_bytes + tier_bytes);
    }
  }
  idle_.clear();
  accounted_tier_bytes_.clear();
  total_containers_ = 0;
}

void KnativeInstance::DispatchLoop() {
  SimClock& clock = executor_->clock();
  while (!stop_.load()) {
    auto message = network_->Poll(name_);
    if (!message.has_value()) {
      clock.SleepFor(200 * kMicrosecond);
      continue;
    }
    ByteReader reader(*message);
    auto id = reader.Get<uint64_t>();
    auto function = reader.GetString();
    auto input = reader.GetBytes();
    if (!id.ok() || !function.ok() || !input.ok()) {
      LOG_ERROR << name_ << ": bad dispatch message";
      continue;
    }
    ExecuteLocal(id.value(), function.value(), std::move(input).value());
  }
}

Result<std::unique_ptr<Container>> KnativeInstance::AcquireContainer(const std::string& function,
                                                                     bool* cold) {
  {
    std::lock_guard<std::mutex> guard(pools_mutex_);
    auto it = idle_.find(function);
    if (it != idle_.end() && !it->second.empty()) {
      auto container = std::move(it->second.back());
      it->second.pop_back();
      *cold = false;
      return container;
    }
    if (total_containers_ >= model_.max_containers_per_host) {
      return ResourceExhausted("host container limit reached");
    }
  }
  *cold = true;
  cold_starts_.fetch_add(1);

  FAASM_ASSIGN_OR_RETURN(FunctionSpec spec, registry_->Lookup(function));

  // Container memory is reserved up front — this is what drives the baseline
  // out of memory at high parallelism in Fig. 6.
  FAASM_RETURN_IF_ERROR(memory_.Allocate(model_.base_footprint_bytes));

  // The container daemon creates with limited parallelism.
  SimClock& clock = executor_->clock();
  clock.WaitFor(
      [this] {
        int current = concurrent_cold_starts_.load();
        while (current < model_.max_concurrent_cold_starts) {
          if (concurrent_cold_starts_.compare_exchange_weak(current, current + 1)) {
            return true;
          }
        }
        return false;
      },
      1 * kMillisecond);

  const TimeNs boot_ns =
      spec.simulated_init_ns > 0 ? model_.python_cold_start_ns : model_.cold_start_ns;
  clock.SleepFor(boot_ns);
  concurrent_cold_starts_.fetch_sub(1);

  Container::Env env;
  env.clock = &clock;
  env.network = network_;
  env.host = name_;
  env.cpu = &cpu_;
  env.rng_seed = HashBytes(reinterpret_cast<const uint8_t*>(function.data()), function.size());
  env.chain = [this](const std::string& fn, Bytes in) {
    return cluster_->Submit(name_, fn, std::move(in));
  };
  env.await = [this](uint64_t id) { return cluster_->Await(name_, id); };
  env.get_output = [this](uint64_t id) { return cluster_->Output(id); };

  auto container = std::make_unique<Container>(spec, std::move(env));
  if (spec.native_init) {
    FAASM_RETURN_IF_ERROR(spec.native_init(*container));
  }
  {
    std::lock_guard<std::mutex> guard(pools_mutex_);
    ++total_containers_;
  }
  return container;
}

void KnativeInstance::ReleaseContainer(std::unique_ptr<Container> container) {
  std::lock_guard<std::mutex> guard(pools_mutex_);
  idle_[container->function()].push_back(std::move(container));
}

void KnativeInstance::ExecuteLocal(uint64_t call_id, const std::string& function, Bytes input) {
  executor_->Spawn([this, call_id, function, input = std::move(input)]() mutable {
    bool cold = false;
    auto container = AcquireContainer(function, &cold);
    if (!container.ok()) {
      (void)calls_->Fail(call_id, container.status().ToString());
      cluster_->NotifyDone(function, host_index_);
      return;
    }
    (void)calls_->MarkRunning(call_id, name_, cold);

    Container& c = *container.value();
    Result<int> code = 0;
    {
      HostCpuModel::Running running(cpu_);
      code = c.Execute(std::move(input));
    }
    if (code.ok()) {
      (void)calls_->Complete(call_id, code.value(), c.TakeOutput());
    } else {
      (void)calls_->Fail(call_id, code.status().ToString());
    }

    // Account growth of this container's private state copies. When the host
    // runs out of memory the call still completed, but subsequent cold starts
    // will fail — the Fig. 6 OOM behaviour.
    {
      std::lock_guard<std::mutex> guard(pools_mutex_);
      size_t& accounted = accounted_tier_bytes_[&c];
      const size_t now_bytes = c.tier_bytes();
      if (now_bytes > accounted) {
        Status status = memory_.Allocate(now_bytes - accounted);
        if (!status.ok()) {
          LOG_WARN << name_ << ": containers exceed host memory";
        }
        accounted = now_bytes;
      }
    }
    // Containers are recycled without reset (warm reuse).
    ReleaseContainer(std::move(container).value());
    cluster_->NotifyDone(function, host_index_);
  });
}

size_t KnativeInstance::container_count() const {
  std::lock_guard<std::mutex> guard(pools_mutex_);
  return static_cast<size_t>(total_containers_);
}

// --- KnativeCluster ----------------------------------------------------------------

KnativeCluster::KnativeCluster(ClusterConfig cluster_config, ContainerModel model)
    : config_(cluster_config),
      model_(model),
      network_(std::make_unique<InProcNetwork>(&executor_.clock(), cluster_config.network)),
      kvs_server_(std::make_unique<KvsServer>(&kvs_, network_.get())),
      calls_(&executor_.clock()) {
  network_->RegisterEndpoint("ingress", [](const Bytes&) { return Bytes{}; });
  for (int i = 0; i < cluster_config.hosts; ++i) {
    (void)AddHost();
  }
}

KnativeCluster::~KnativeCluster() { Shutdown(); }

Result<std::string> KnativeCluster::AddHost() {
  const std::string name = "kn-host-" + std::to_string(next_host_index_++);
  auto host = std::make_unique<KnativeInstance>(name, config_.host, model_, &executor_,
                                                network_.get(), &registry_, &calls_, this);
  KnativeInstance* started = host.get();
  {
    // hosts_ is read by RouteCall/Submit on instance threads; the push_back
    // may reallocate, so it must happen under the routing lock.
    std::lock_guard<std::mutex> guard(routing_mutex_);
    host->host_index_ = hosts_.size();
    hosts_.push_back(std::move(host));
  }
  started->Start();
  // Baseline no-op tier: the central KVS is untouched — new hosts only add
  // compute (and cold starts), never state mastership.
  return name;
}

int KnativeCluster::HostLoadLocked(size_t index) const {
  int load = 0;
  for (const auto& [function, pods] : in_flight_) {
    if (auto it = pods.find(index); it != pods.end()) {
      load += it->second;
    }
  }
  return load;
}

Status KnativeCluster::RemoveHost(const std::string& name) {
  KnativeInstance* host = nullptr;
  size_t index = SIZE_MAX;
  {
    std::lock_guard<std::mutex> guard(routing_mutex_);
    for (size_t i = 0; i < hosts_.size(); ++i) {
      if (hosts_[i]->name() == name && retired_.count(i) == 0) {
        host = hosts_[i].get();
        index = i;
        break;
      }
    }
    if (host == nullptr) {
      return NotFound("knative: no active host named '" + name + "'");
    }
    if (hosts_.size() - retired_.size() <= 1) {
      return FailedPrecondition("knative: cannot remove the last host");
    }
    // From here the router never places a pod on this host again.
    retired_.insert(index);
  }
  // Drain: in-flight calls finish and the dispatch mailbox empties.
  executor_.clock().WaitFor([&] {
    const size_t pending = network_->PendingCount(name);
    std::lock_guard<std::mutex> guard(routing_mutex_);
    return pending == 0 && HostLoadLocked(index) == 0;
  });
  host->Retire();
  return OkStatus();
}

std::string KnativeCluster::RouteCall(const std::string& function) {
  std::lock_guard<std::mutex> guard(routing_mutex_);
  auto& pods = in_flight_[function];
  // Least-loaded existing pod host (retired hosts never receive new work;
  // their pods die with them).
  size_t best = SIZE_MAX;
  int best_load = INT32_MAX;
  size_t active_pods = 0;
  for (const auto& [host, load] : pods) {
    if (retired_.count(host) > 0) {
      continue;
    }
    ++active_pods;
    if (load < best_load) {
      best = host;
      best_load = load;
    }
  }
  // Scale out when there is no pod yet, or every pod is at/above the target
  // concurrency of 1 and another (active) host is available.
  if (best == SIZE_MAX || (best_load >= 1 && active_pods < hosts_.size() - retired_.size())) {
    for (size_t host = 0; host < hosts_.size(); ++host) {
      if (pods.count(host) == 0 && retired_.count(host) == 0) {
        best = host;
        break;
      }
    }
  }
  pods[best] += 1;
  return hosts_[best]->name();  // resolved under the lock: hosts_ may grow
}

void KnativeCluster::NotifyDone(const std::string& function, size_t host_index) {
  std::lock_guard<std::mutex> guard(routing_mutex_);
  in_flight_[function][host_index] -= 1;
}

void KnativeCluster::Shutdown() {
  if (shut_down_) {
    return;
  }
  shut_down_ = true;
  for (auto& host : hosts_) {
    host->Stop();
  }
  executor_.JoinAll();
}

Result<uint64_t> KnativeCluster::Submit(const std::string& source, const std::string& function,
                                        Bytes input) {
  if (!registry_.Contains(function)) {
    return NotFound("no function named '" + function + "'");
  }
  // HTTP request to the ingress: envelope + body, plus protocol latency.
  Bytes envelope(model_.http_envelope_bytes);
  Bytes request = input;
  request.insert(request.end(), envelope.begin(), envelope.end());
  auto response = network_->Call(source, "ingress", request);
  if (!response.ok()) {
    return response.status();
  }
  executor_.clock().SleepFor(model_.http_overhead_ns);

  const uint64_t id = calls_.Create(function, Bytes{});
  // Knative-style routing: the function's service sends the request to the
  // least-loaded pod, scaling out when all pods are busy. RouteCall hands
  // back the host NAME, resolved under the routing lock (hosts_ may be
  // growing concurrently).
  FAASM_RETURN_IF_ERROR(
      network_->Send("ingress", RouteCall(function), EncodeDispatch(id, function, input)));
  return id;
}

Result<int> KnativeCluster::Await(const std::string& source, uint64_t call_id) {
  SimClock& clock = executor_.clock();
  const Bytes poll(model_.await_poll_bytes / 2);
  while (!calls_.IsFinished(call_id)) {
    // Provider-API result polling over HTTP.
    auto response = network_->Call(source, "ingress", poll);
    if (!response.ok()) {
      return response.status();
    }
    clock.SleepFor(model_.await_poll_interval_ns);
  }
  FAASM_ASSIGN_OR_RETURN(CallRecord record, calls_.Get(call_id));
  if (record.state == CallState::kFailed) {
    return Internal("call #" + std::to_string(call_id) + " failed: " + record.error);
  }
  return record.return_code;
}

void KnativeCluster::Run(const std::function<void(Client&)>& driver) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  executor_.Spawn([this, &driver, &done] {
    Client client{this};
    driver(client);
    done.set_value();
  });
  finished.wait();
}

double KnativeCluster::billable_gb_seconds() const {
  double total = 0;
  for (const auto& host : hosts_) {
    const KnativeInstance& instance = *host;
    total += instance.memory_accountant().GbSeconds();
  }
  return total;
}

size_t KnativeCluster::cold_start_count() const {
  size_t count = 0;
  for (const auto& host : hosts_) {
    count += host->cold_start_count();
  }
  return count;
}

size_t KnativeCluster::failed_call_count() const {
  size_t count = 0;
  for (const CallRecord& record : calls_.FinishedRecords()) {
    count += record.state == CallState::kFailed ? 1 : 0;
  }
  return count;
}

}  // namespace faasm
