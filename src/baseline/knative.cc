#include "baseline/knative.h"

#include <future>

#include "common/log.h"

namespace faasm {

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

void KnativeInstance::DispatchLoop() {
  SimClock& clock = executor_->clock();
  while (!stop_.load()) {
    auto message = network_->Poll(name_);
    if (!message.has_value()) {
      clock.SleepFor(200 * kMicrosecond);
      continue;
    }
    auto call = DecodeCallMessage(*message);
    if (!call.ok()) {
      LOG_ERROR << name_ << ": bad dispatch message: " << call.status().ToString();
      continue;
    }
    ExecuteLocal(call.value().id, call.value().function, std::move(call.value().input));
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
  env.tier = &cluster_->tier_map_;
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

// --- KnativeCluster ----------------------------------------------------------------

KnativeCluster::KnativeCluster(ClusterConfig cluster_config, ContainerModel model)
    : config_(cluster_config),
      model_(model),
      network_(std::make_unique<InProcNetwork>(&executor_.clock())),
      kvs_server_(std::make_unique<KvsServer>(&kvs_, network_.get())),
      calls_(&executor_.clock()) {
  kvs_view_.Attach(&tier_map_);
  kvs_view_.AddStore("kvs", &kvs_);
  network_->RegisterEndpoint("ingress", [](const Bytes&) { return Bytes{}; });
  for (int i = 0; i < cluster_config.hosts; ++i) {
    hosts_.push_back(std::make_unique<KnativeInstance>("kn-host-" + std::to_string(i),
                                                       config_.host, model_, &executor_,
                                                       network_.get(), &registry_, &calls_, this));
    hosts_.back()->host_index_ = hosts_.size() - 1;
    // The central KVS is the tier whatever the pool: hosts add compute (and
    // cold starts), never state mastership.
    hosts_.back()->Start();
  }
}

KnativeCluster::~KnativeCluster() { Shutdown(); }

std::string KnativeCluster::RouteCall(const std::string& function) {
  std::lock_guard<std::mutex> guard(routing_mutex_);
  auto& pods = in_flight_[function];
  // Least-loaded existing pod host.
  size_t best = SIZE_MAX;
  int best_load = INT32_MAX;
  for (const auto& [host, load] : pods) {
    if (load < best_load) {
      best = host;
      best_load = load;
    }
  }
  // Scale out when there is no pod yet, or every pod is at/above the target
  // concurrency of 1 and another host is available.
  if (best == SIZE_MAX || (best_load >= 1 && pods.size() < hosts_.size())) {
    for (size_t host = 0; host < hosts_.size(); ++host) {
      if (pods.count(host) == 0) {
        best = host;
        break;
      }
    }
  }
  pods[best] += 1;
  return hosts_[best]->name();
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

  const uint64_t id = calls_.Create(function);
  // Knative-style routing: the function's service sends the request to the
  // least-loaded pod, scaling out when all pods are busy.
  FAASM_RETURN_IF_ERROR(
      network_->Send("ingress", RouteCall(function), EncodeCallMessage(id, function, input)));
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

}  // namespace faasm
