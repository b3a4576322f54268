// Knative-like container baseline (§6.1). The same workload code (written
// against InvocationContext) runs here, but the platform differs in exactly
// the ways the paper contrasts:
//   - each container has a PRIVATE state tier: no in-memory sharing between
//     functions, so every container pulls its own copy of state from the
//     global tier (the data-shipping architecture of §1),
//   - cold starts cost seconds (calibrated, ContainerModel) and are limited
//     in parallelism by the container daemon,
//   - chained calls travel through an HTTP ingress with per-call overhead,
//     and awaiting results polls the provider API over the network,
//   - containers are NOT reset between calls (recycled warm), trading the
//     isolation guarantee FAASM provides for speed, as the paper notes.
#ifndef FAASM_BASELINE_KNATIVE_H_
#define FAASM_BASELINE_KNATIVE_H_

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "baseline/container_model.h"
#include "core/invocation_context.h"
#include "core/vfs.h"
#include "kvs/kvs_client.h"
#include "net/network.h"
#include "runtime/call_table.h"
#include "runtime/cluster.h"
#include "runtime/memory_accountant.h"
#include "runtime/registry.h"
#include "sim/cpu_model.h"
#include "sim/sim_clock.h"

namespace faasm {

class KnativeInstance;
class KnativeCluster;

// One container: a process-isolated function replica with its own private
// state tier and its own connection to the global tier (a container's
// pushes never share a batch, or wait on a flush, with another's).
class Container : public InvocationContext {
 public:
  struct Env {
    Clock* clock = nullptr;
    InProcNetwork* network = nullptr;
    const ShardMap* tier = nullptr;  // the global tier's routing map
    std::string host;  // the KVS client's source: accounting is per host
    HostCpuModel* cpu = nullptr;
    uint64_t rng_seed = 1;
    std::function<Result<uint64_t>(const std::string&, Bytes)> chain;
    std::function<Result<int>(uint64_t)> await;
    std::function<Result<Bytes>(uint64_t)> get_output;
  };

  Container(FunctionSpec spec, Env env)
      : spec_(std::move(spec)),
        env_(std::move(env)),
        rng_(env_.rng_seed),
        kvs_(env_.network, env_.host, env_.tier, /*local_store=*/nullptr),
        tier_(std::make_unique<LocalTier>(&kvs_, env_.clock)) {}

  Result<int> Execute(Bytes input) {
    input_ = std::move(input);
    output_.clear();
    if (!spec_.native) {
      return Unimplemented("container baseline runs native functions only");
    }
    return spec_.native(*this);
  }

  Bytes TakeOutput() { return std::move(output_); }
  const std::string& function() const { return spec_.name; }

  // Container + its private state copies.
  size_t FootprintBytes(size_t base) const { return base + tier_->resident_bytes(); }
  size_t tier_bytes() const { return tier_->resident_bytes(); }

  // --- InvocationContext ------------------------------------------------------
  const Bytes& Input() const override { return input_; }
  void WriteOutput(Bytes output) override { output_ = std::move(output); }
  Result<uint64_t> ChainCall(const std::string& function, Bytes input) override {
    return env_.chain(function, std::move(input));
  }
  Result<int> AwaitCall(uint64_t call_id) override { return env_.await(call_id); }
  Result<Bytes> GetCallOutput(uint64_t call_id) override { return env_.get_output(call_id); }
  LocalTier& state() override { return *tier_; }
  Clock& clock() override { return *env_.clock; }
  Rng& rng() override { return rng_; }
  void ChargeCompute(TimeNs ns) override {
    if (env_.cpu != nullptr) {
      env_.cpu->Charge(ns);
    }
  }

 private:
  FunctionSpec spec_;
  Env env_;
  Rng rng_;
  KvsClient kvs_;
  std::unique_ptr<LocalTier> tier_;  // private: the defining difference
  Bytes input_;
  Bytes output_;
};

class KnativeInstance {
 public:
  KnativeInstance(std::string name, HostConfig config, ContainerModel model,
                  SimExecutor* executor, InProcNetwork* network, FunctionRegistry* registry,
                  CallTable* calls, KnativeCluster* cluster);
  ~KnativeInstance();

  void Start();
  void Stop();

  const std::string& name() const { return name_; }
  MemoryAccountant& memory_accountant() { return memory_; }
  const MemoryAccountant& memory_accountant() const { return memory_; }
  size_t cold_start_count() const { return cold_starts_.load(); }

 private:
  friend class KnativeCluster;
  void DispatchLoop();
  void ExecuteLocal(uint64_t call_id, const std::string& function, Bytes input);
  size_t host_index_ = 0;  // set by the owning cluster
  Result<std::unique_ptr<Container>> AcquireContainer(const std::string& function, bool* cold);
  void ReleaseContainer(std::unique_ptr<Container> container);

  const std::string name_;
  HostConfig config_;
  ContainerModel model_;
  SimExecutor* executor_;
  InProcNetwork* network_;
  FunctionRegistry* registry_;
  CallTable* calls_;
  KnativeCluster* cluster_;

  MemoryAccountant memory_;
  HostCpuModel cpu_;

  std::mutex pools_mutex_;
  std::map<std::string, std::vector<std::unique_ptr<Container>>> idle_;
  std::map<const Container*, size_t> accounted_tier_bytes_;
  int total_containers_ = 0;

  std::atomic<int> concurrent_cold_starts_{0};
  std::atomic<size_t> cold_starts_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
};

// The whole Knative deployment: ingress + N hosts + global tier.
class KnativeCluster {
 public:
  explicit KnativeCluster(ClusterConfig cluster_config = {}, ContainerModel model = {});
  ~KnativeCluster();

  KnativeCluster(const KnativeCluster&) = delete;
  KnativeCluster& operator=(const KnativeCluster&) = delete;

  FunctionRegistry& registry() { return registry_; }
  // The baseline keeps the centralised tier the paper's platforms use,
  // wired like FaasmCluster's kCentral: a one-shard map whose "kvs"
  // endpoint masters every key.
  ShardedKvs& kvs() { return kvs_view_; }
  InProcNetwork& network() { return *network_; }
  SimClock& clock() { return executor_.clock(); }
  SimExecutor& executor() { return executor_; }
  CallTable& calls() { return calls_; }

  // Submits through the HTTP ingress (charges envelope + transfer), from
  // `source` (a host name or "client").
  Result<uint64_t> Submit(const std::string& source, const std::string& function, Bytes input);
  // Awaits by polling the provider API (charges poll traffic).
  Result<int> Await(const std::string& source, uint64_t call_id);
  Result<Bytes> Output(uint64_t call_id) { return calls_.Output(call_id); }

  struct Client {
    KnativeCluster* cluster;
    Result<uint64_t> Submit(const std::string& function, Bytes input) {
      return cluster->Submit("client", function, std::move(input));
    }
    Result<int> Await(uint64_t id) { return cluster->Await("client", id); }
    Result<int> Invoke(const std::string& function, Bytes input) {
      FAASM_ASSIGN_OR_RETURN(uint64_t id, Submit(function, std::move(input)));
      return Await(id);
    }
    Result<Bytes> Output(uint64_t id) { return cluster->Output(id); }
  };

  void Run(const std::function<void(Client&)>& driver);

  uint64_t network_bytes() const { return network_->total_bytes(); }
  double billable_gb_seconds() const;
  size_t cold_start_count() const;

  void Shutdown();

 private:
  friend class KnativeInstance;

  // Concurrency-aware per-function routing (the Knative autoscaler model):
  // route to the least-loaded existing pod host; scale out to a new host
  // when every pod is busy. Returns the chosen host's endpoint name.
  std::string RouteCall(const std::string& function);
  void NotifyDone(const std::string& function, size_t host_index);

  ClusterConfig config_;
  ContainerModel model_;
  SimExecutor executor_;
  std::unique_ptr<InProcNetwork> network_;
  KvStore kvs_;
  ShardMap tier_map_{std::vector<std::string>{"kvs"}};
  ShardedKvs kvs_view_;
  std::unique_ptr<KvsServer> kvs_server_;
  FunctionRegistry registry_;
  CallTable calls_;
  // The fixed pool the constructor builds: Knative scales pods over a set
  // of hosts, never the hosts themselves. Routing state stores indices.
  std::vector<std::unique_ptr<KnativeInstance>> hosts_;
  std::mutex routing_mutex_;  // guards in_flight_: Submits arrive from instance threads
  std::map<std::string, std::map<size_t, int>> in_flight_;  // fn -> host -> count
  bool shut_down_ = false;
};

}  // namespace faasm

#endif  // FAASM_BASELINE_KNATIVE_H_
