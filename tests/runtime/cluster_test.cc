// FAASM cluster integration tests: scheduling, chaining, warm sharing, cold
// starts with cross-host Proto-Faaslet restores, memory accounting.
#include "runtime/cluster.h"

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <mutex>
#include <set>

#include "core/guest_api.h"
#include "state/ddo.h"
#include "wasm/decoder.h"

namespace faasm {
namespace {

ClusterConfig SmallCluster(int hosts = 2) {
  ClusterConfig config;
  config.hosts = hosts;
  config.host.cores = 2;
  return config;
}

TEST(ClusterTest, InvokeNativeFunction) {
  FaasmCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("double",
                                  [](InvocationContext& ctx) {
                                    ByteReader reader(ctx.Input());
                                    auto v = reader.Get<uint32_t>();
                                    Bytes out;
                                    ByteWriter writer(out);
                                    writer.Put<uint32_t>(v.value() * 2);
                                    ctx.WriteOutput(std::move(out));
                                    return 0;
                                  })
                  .ok());

  uint32_t result = 0;
  cluster.Run([&](Frontend& frontend) {
    Bytes input;
    ByteWriter writer(input);
    writer.Put<uint32_t>(21);
    auto id = frontend.Submit("double", std::move(input));
    ASSERT_TRUE(id.ok());
    auto code = frontend.Await(id.value());
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(), 0);
    auto output = frontend.Output(id.value());
    ASSERT_TRUE(output.ok());
    ByteReader reader(output.value());
    result = reader.Get<uint32_t>().value();
  });
  EXPECT_EQ(result, 42u);
}

TEST(ClusterTest, UnknownFunctionRejected) {
  FaasmCluster cluster(SmallCluster(1));
  cluster.Run([&](Frontend& frontend) {
    EXPECT_EQ(frontend.Submit("nope", {}).status().code(), StatusCode::kNotFound);
  });
}

TEST(ClusterTest, FailingFunctionReportsError) {
  FaasmCluster cluster(SmallCluster(1));
  ASSERT_TRUE(
      cluster.registry().RegisterNative("boom", [](InvocationContext&) { return 13; }).ok());
  cluster.Run([&](Frontend& frontend) {
    auto code = frontend.Invoke("boom", {});
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(), 13);
  });
}

TEST(ClusterTest, ChainedCallsAcrossFunctions) {
  FaasmCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("leaf",
                                  [](InvocationContext& ctx) {
                                    Bytes out = ctx.Input();
                                    out.push_back(1);
                                    ctx.WriteOutput(std::move(out));
                                    return 0;
                                  })
                  .ok());
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("parent",
                                  [](InvocationContext& ctx) {
                                    auto id = ctx.ChainCall("leaf", Bytes{7});
                                    if (!id.ok()) {
                                      return 2;
                                    }
                                    auto code = ctx.AwaitCall(id.value());
                                    if (!code.ok() || code.value() != 0) {
                                      return 3;
                                    }
                                    auto out = ctx.GetCallOutput(id.value());
                                    if (!out.ok()) {
                                      return 4;
                                    }
                                    ctx.WriteOutput(std::move(out).value());
                                    return 0;
                                  })
                  .ok());
  cluster.Run([&](Frontend& frontend) {
    auto id = frontend.Submit("parent", {});
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(frontend.Await(id.value()).value(), 0);
    EXPECT_EQ(frontend.Output(id.value()).value(), (Bytes{7, 1}));
  });
}

TEST(ClusterTest, FanOutChainAndAwaitAll) {
  FaasmCluster cluster(SmallCluster(3));
  std::atomic<int> executions{0};
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("work",
                                  [&executions](InvocationContext&) {
                                    executions.fetch_add(1);
                                    return 0;
                                  })
                  .ok());
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("fan",
                                  [](InvocationContext& ctx) {
                                    std::vector<Bytes> inputs(16);
                                    auto out = ChainAndAwaitAll(ctx, "work", inputs);
                                    return out.ok() ? out.value() : 9;
                                  })
                  .ok());
  cluster.Run([&](Frontend& frontend) {
    EXPECT_EQ(frontend.Invoke("fan", {}).value(), 0);
  });
  EXPECT_EQ(executions.load(), 16);
}

TEST(ClusterTest, WarmSchedulingAvoidsRedundantColdStarts) {
  FaasmCluster cluster(SmallCluster(4));
  ASSERT_TRUE(
      cluster.registry().RegisterNative("fn", [](InvocationContext&) { return 0; }).ok());
  cluster.Run([&](Frontend& frontend) {
    // Sequential calls land round-robin on all hosts, but with warm sharing
    // only the first call should cold start; the rest are forwarded to the
    // warm host.
    for (int call = 0; call < 12; ++call) {
      auto id = frontend.Submit("fn", {});
      ASSERT_TRUE(id.ok());
      ASSERT_EQ(frontend.Await(id.value()).value(), 0);
    }
  });
  EXPECT_EQ(cluster.cold_start_count(), 1u);
  EXPECT_EQ(cluster.warm_faaslet_count(), 1u);
  // The warm-host set in the global tier names exactly one host.
  EXPECT_EQ(cluster.kvs().SetMembers("warm:fn").size(), 1u);
}

TEST(ClusterTest, ProtoFaasletPublishedToGlobalTierForWasm) {
  FaasmCluster cluster(SmallCluster(2));
  wasm::ModuleBuilder b;
  b.AddMemory(1, 4);
  auto& f = b.AddFunction("main", {}, {wasm::ValType::kI32});
  f.I32Const(0);
  f.End();
  ASSERT_TRUE(cluster.registry().UploadWasm("fn", b.Build()).ok());
  // The upload captured the initialised snapshot and put it in the global
  // tier for cross-host restores, before any call.
  EXPECT_TRUE(cluster.kvs().Exists("proto:fn"));
  cluster.Run([&](Frontend& frontend) {
    ASSERT_EQ(frontend.Invoke("fn", {}).value(), 0);
  });
  EXPECT_TRUE(cluster.kvs().Exists("proto:fn"));
}

// The shard store `endpoint` serves, found through a key it masters.
KvStore* StoreOf(FaasmCluster& cluster, const std::string& endpoint) {
  for (int i = 0; i < 100000; ++i) {
    const std::string probe = "probe-" + std::to_string(i);
    if (cluster.shard_map().MasterFor(probe) == endpoint) {
      return cluster.kvs().StoreFor(probe);
    }
  }
  return nullptr;
}

// Counts the writes of every proto:<fn> key at the stores of a cluster with
// replication_factor 1: those through a host's client (each store's update
// hook) and those through the seeding view (its mutation observer).
class ProtoWrites {
 public:
  explicit ProtoWrites(FaasmCluster& cluster) {
    for (size_t i = 0; i < cluster.host_count(); ++i) {
      KvStore* store = StoreOf(cluster, ShardMap::EndpointForHost(cluster.host(i).name()));
      EXPECT_NE(store, nullptr);
      store->SetUpdateHook([this](const std::vector<KvStore::ForwardedOp>& ops) {
        for (const KvStore::ForwardedOp& op : ops) {
          if (op.op->op == KvsOp::kSet) {
            Count(op.op->key);
          }
        }
      });
    }
    cluster.kvs().SetMutationObserver([this](const std::string& key) { Count(key); });
  }

  int of(const std::string& function) {
    std::lock_guard<std::mutex> guard(mutex_);
    return counts_[ProtoStateKey(function)];
  }

 private:
  void Count(const std::string& key) {
    if (key.rfind(kProtoKeyPrefix, 0) == 0) {
      std::lock_guard<std::mutex> guard(mutex_);
      ++counts_[key];
    }
  }

  std::mutex mutex_;
  std::map<std::string, int> counts_;
};

// A wasm function whose init export appends one byte to the global state key
// "init_runs" (its log is init_runs:log), so the log's length counts how
// often init ran anywhere in the cluster. main spins a while (its compute is
// charged) and returns 0.
std::shared_ptr<const wasm::CompiledModule> CountingInitModule() {
  wasm::ModuleBuilder b;
  GuestApi api = GuestApi::ImportAll(b);
  b.AddMemory(1, 1);
  b.AddData(16, BytesFromString("init_runs"));
  b.AddData(64, Bytes{1});
  auto& init = b.AddFunction("init", {}, {});
  for (int32_t arg : {16, 9, 64, 1}) {
    init.I32Const(arg);
  }
  init.Call(api.append_state);
  init.End();
  auto& f = b.AddFunction("main", {}, {wasm::ValType::kI32});
  const uint32_t i = f.AddLocal(wasm::ValType::kI32);
  f.ForConstLimit(i, 0, 200000, [] {});
  f.I32Const(0);
  f.End();
  auto decoded = wasm::DecodeModule(b.Build());
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto compiled = wasm::CompileModule(std::move(decoded).value());
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return compiled.value();
}

size_t InitRuns(FaasmCluster& cluster) {
  auto log = cluster.kvs().Get("init_runs:log");
  return log.ok() ? log.value().size() : 0;
}

// Submits `function` to every host at the same virtual instant and awaits
// the calls. Run on a cluster whose hosts take one call at a time: a busy
// host withdraws from the warm set, so no host can share the call with
// another and every host that has not run the function cold-starts it.
void CallOnEveryHost(FaasmCluster& cluster, const std::string& function) {
  std::vector<std::promise<Result<int>>> done(cluster.host_count());
  {
    SimClock::Hold hold(cluster.clock());
    for (size_t i = 0; i < cluster.host_count(); ++i) {
      FaasmInstance* host = &cluster.host(i);
      std::promise<Result<int>>* promise = &done[i];
      cluster.executor().Spawn([host, function, promise] {
        auto id = host->Submit(function, {});
        promise->set_value(id.ok() ? host->Await(id.value()) : Result<int>(id.status()));
      });
    }
  }
  for (std::promise<Result<int>>& promise : done) {
    Result<int> code = promise.get_future().get();
    ASSERT_TRUE(code.ok()) << code.status().ToString();
    EXPECT_EQ(code.value(), 0);
  }
}

ClusterConfig OneCallPerHost() {
  ClusterConfig config = SmallCluster(4);
  config.host.max_concurrent_calls = 1;
  return config;
}

TEST(ClusterTest, UploadWritesEachWasmProtoOnceAndEveryHostRestoresIt) {
  FaasmCluster cluster(OneCallPerHost());
  ProtoWrites writes(cluster);
  FunctionOptions options;
  options.wasm_init_export = "init";
  const auto module = CountingInitModule();
  // Two functions sharing one module still get a proto each.
  ASSERT_TRUE(cluster.registry().RegisterWasm("fn_a", module, options).ok());
  ASSERT_TRUE(cluster.registry().RegisterWasm("fn_b", module, options).ok());
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("native",
                                  [](InvocationContext& ctx) {
                                    ctx.ChargeCompute(kMillisecond);
                                    return 0;
                                  })
                  .ok());
  // Init ran once per wasm function, at upload, and each proto was written.
  EXPECT_EQ(InitRuns(cluster), 2u);
  EXPECT_EQ(writes.of("fn_a"), 1);
  EXPECT_EQ(writes.of("fn_b"), 1);
  EXPECT_FALSE(cluster.kvs().Exists("proto:native"));

  // The three hosts that do not master proto:fn_a read it over the wire.
  const std::string master = ShardMap::HostForEndpoint(cluster.shard_map().MasterFor("proto:fn_a"));
  const KvsServer* master_server = nullptr;
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    if (cluster.host(i).name() == master) {
      master_server = cluster.host(i).shard_server();
    }
  }
  ASSERT_NE(master_server, nullptr);
  const uint64_t reads_before = master_server->read_rpc_count();
  CallOnEveryHost(cluster, "fn_a");
  EXPECT_EQ(master_server->read_rpc_count() - reads_before, cluster.host_count() - 1);
  CallOnEveryHost(cluster, "fn_b");
  CallOnEveryHost(cluster, "native");
  // Every host cold-started each function once, restoring the proto the
  // upload wrote: init never ran again and no host wrote a proto.
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    EXPECT_EQ(cluster.host(i).cold_start_count(), 3u) << cluster.host(i).name();
  }
  EXPECT_EQ(InitRuns(cluster), 2u);
  EXPECT_EQ(writes.of("fn_a"), 1);
  EXPECT_EQ(writes.of("fn_b"), 1);
  EXPECT_EQ(writes.of("native"), 0);
}

TEST(ClusterTest, ProtoLostWithItsShardIsCapturedAgainAndWrittenBackOnce) {
  FaasmCluster cluster(OneCallPerHost());  // replication_factor 1: no backups
  ProtoWrites writes(cluster);
  FunctionOptions options;
  options.wasm_init_export = "init";
  ASSERT_TRUE(cluster.registry().RegisterWasm("fn", CountingInitModule(), options).ok());
  ASSERT_EQ(writes.of("fn"), 1);
  const std::string master = ShardMap::HostForEndpoint(cluster.shard_map().MasterFor("proto:fn"));

  cluster.Run([&](Frontend&) {
    auto stats = cluster.KillHost(master);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  });
  ASSERT_EQ(cluster.host_count(), 3u);
  ASSERT_FALSE(cluster.kvs().Exists("proto:fn"));
  // Every survivor cold-starts at once and finds no proto.
  CallOnEveryHost(cluster, "fn");
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    EXPECT_EQ(cluster.host(i).cold_start_count(), 1u) << cluster.host(i).name();
  }
  EXPECT_TRUE(cluster.kvs().Exists("proto:fn"));
  EXPECT_EQ(writes.of("fn"), 2);
}

TEST(ClusterTest, StateSharedBetweenCallsOnSameHost) {
  FaasmCluster cluster(SmallCluster(1));
  cluster.kvs().Set("counter", Bytes(8, 0));
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("increment",
                                  [](InvocationContext& ctx) {
                                    SharedArray<uint64_t> counter(&ctx.state(), "counter");
                                    if (!counter.Attach().ok()) {
                                      return 1;
                                    }
                                    counter.kv().LockWrite();
                                    counter[0] += 1;
                                    counter.kv().UnlockWrite();
                                    return counter.Push().ok() ? 0 : 2;
                                  })
                  .ok());
  cluster.Run([&](Frontend& frontend) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_EQ(frontend.Invoke("increment", {}).value(), 0);
    }
  });
  auto value = cluster.kvs().Get("counter");
  ASSERT_TRUE(value.ok());
  uint64_t count = 0;
  std::memcpy(&count, value.value().data(), 8);
  EXPECT_EQ(count, 10u);
}

TEST(ClusterTest, BillableMemoryGrowsWithWork) {
  FaasmCluster cluster(SmallCluster(1));
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("sleepy",
                                  [](InvocationContext& ctx) {
                                    ctx.ChargeCompute(50 * kMillisecond);
                                    return 0;
                                  })
                  .ok());
  cluster.Run([&](Frontend& frontend) {
    ASSERT_EQ(frontend.Invoke("sleepy", {}).value(), 0);
  });
  EXPECT_GT(cluster.billable_gb_seconds(), 0.0);
  EXPECT_GT(cluster.host(0).memory_accountant().peak_bytes(), 0u);
}

TEST(ClusterTest, CallRecordsCaptureTimeline) {
  FaasmCluster cluster(SmallCluster(1));
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("timed",
                                  [](InvocationContext& ctx) {
                                    ctx.ChargeCompute(10 * kMillisecond);
                                    return 0;
                                  })
                  .ok());
  cluster.Run([&](Frontend& frontend) {
    ASSERT_EQ(frontend.Invoke("timed", {}).value(), 0);
  });
  auto records = cluster.calls().FinishedRecords();
  ASSERT_EQ(records.size(), 1u);
  const CallRecord& record = records[0];
  EXPECT_TRUE(record.cold_start);
  EXPECT_GE(record.started_at, record.submitted_at);
  EXPECT_GE(record.finished_at - record.started_at, 10 * kMillisecond);
}

TEST(ClusterTest, WasmFunctionThroughUploadService) {
  FaasmCluster cluster(SmallCluster(2));
  // Build a wasm echo binary and push it through the upload path (decode +
  // validate + codegen), then invoke it like any function.
  wasm::ModuleBuilder b;
  GuestApi api = GuestApi::ImportAll(b);
  b.AddMemory(1, 4);
  auto& f = b.AddFunction("main", {}, {wasm::ValType::kI32});
  const uint32_t len = f.AddLocal(wasm::ValType::kI32);
  f.I32Const(64);
  f.I32Const(256);
  f.Call(api.read_input);
  f.LocalSet(len);
  f.I32Const(64);
  f.LocalGet(len);
  f.Call(api.write_output);
  f.I32Const(0);
  f.End();
  ASSERT_TRUE(cluster.registry().UploadWasm("wasm_echo", b.Build()).ok());

  cluster.Run([&](Frontend& frontend) {
    auto id = frontend.Submit("wasm_echo", Bytes{3, 1, 4});
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(frontend.Await(id.value()).value(), 0);
    EXPECT_EQ(frontend.Output(id.value()).value(), (Bytes{3, 1, 4}));
  });
}

TEST(ClusterTest, StateAffinityPlacesFunctionOnStateMasterHost) {
  // With the sharded tier, a function declaring a state-affinity key should
  // land on the host mastering that key's shard — where its push/pull are
  // free — no matter which host the frontend submits it to.
  FaasmCluster cluster(SmallCluster(4));
  const std::string key = "affine-state";
  cluster.kvs().Set(key, Bytes(8, 0));
  std::string master = ShardMap::HostForEndpoint(cluster.shard_map().MasterFor(key));
  ASSERT_FALSE(master.empty());

  FunctionOptions options;
  options.state_affinity_key = key;
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative(
                      "affine",
                      [key](InvocationContext& ctx) {
                        auto kv = ctx.state().Lookup(key);
                        return kv->Pull().ok() && kv->master_local() ? 0 : 1;
                      },
                      options)
                  .ok());
  cluster.Run([&](Frontend& frontend) {
    // Round-robin submissions from every host all converge on the master.
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(frontend.Invoke("affine", {}).value(), 0);
    }
  });
  for (const CallRecord& record : cluster.calls().FinishedRecords()) {
    EXPECT_EQ(record.executed_on, master);
  }
}

TEST(ClusterTest, WarmSetCacheCutsSteadyStateSubmitTraffic) {
  // Steady-state submits must not pay a SetMembers round trip per call: the
  // cached warm-set view serves scheduling decisions within its TTL.
  ClusterConfig config = SmallCluster(4);
  // Centralised tier so every warm-set fetch is a remote request to "kvs".
  config.state_tier = StateTier::kCentral;
  FaasmCluster cluster(config);
  EXPECT_TRUE(cluster.registry().RegisterNative("fn", [](InvocationContext&) { return 0; }).ok());
  constexpr int kSubmits = 24;
  cluster.Run([&](Frontend& frontend) {
    for (int i = 0; i < kSubmits; ++i) {
      ASSERT_EQ(frontend.Invoke("fn", {}).value(), 0);
    }
  });
  // Every request the tier answered: the warm-set fetches plus the hosts'
  // warm-set advertisements. Uncached, the fetches alone would number one
  // per submit. (Cached, about a third of that; how many exactly depends
  // on how much virtual time the calls' charged compute spans.)
  const uint64_t kvs_requests = cluster.network().StatsFor("kvs").rx_messages;
  EXPECT_LT(kvs_requests, kSubmits) << "requests=" << kvs_requests;
}

TEST(ClusterTest, RemoveHostUnderLoadDrainsInsteadOfAsserting) {
  // Regression (ISSUE 4): removing a host that is actively executing
  // functions must drain — stop new placements, let in-flight calls (and
  // queued mailbox work) finish — and every acknowledged call completes.
  FaasmCluster cluster(SmallCluster(3));
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("slow",
                                  [](InvocationContext& ctx) {
                                    ctx.ChargeCompute(20 * kMillisecond);
                                    return 0;
                                  })
                  .ok());
  cluster.Run([&](Frontend& frontend) {
    // Saturate all hosts (round-robin lands work on host-1 too), then
    // remove host-1 while its calls are mid-execution.
    std::vector<uint64_t> ids;
    for (int i = 0; i < 18; ++i) {
      auto id = frontend.Submit("slow", {});
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
    }
    ASSERT_TRUE(cluster.RemoveHost("host-1").ok());
    // Removing an unknown (or already removed) host is an error, not a
    // crash; the last host may never be removed.
    EXPECT_EQ(cluster.RemoveHost("host-1").code(), StatusCode::kNotFound);
    for (uint64_t id : ids) {
      auto code = frontend.Await(id);
      ASSERT_TRUE(code.ok()) << code.status().ToString();
      EXPECT_EQ(code.value(), 0);
    }
    // The drained host advertises nowhere, and new work still flows.
    for (const std::string& host : cluster.kvs().SetMembers("warm:slow")) {
      EXPECT_NE(host, "host-1");
    }
    EXPECT_EQ(frontend.Invoke("slow", {}).value(), 0);
  });
  EXPECT_EQ(cluster.host_count(), 2u);
  // Every call in the run completed; none were lost in the removal.
  for (const CallRecord& record : cluster.calls().FinishedRecords()) {
    EXPECT_EQ(record.state, CallState::kDone);
  }
}

TEST(ClusterTest, RemovalWhoseMigrationFailsKeepsTheHostServing) {
  // RemoveHost abandons the removal when streaming the departing shard's
  // keys fails before the epoch flips. The host must then be a full member
  // again: counted in host_count(), advertising its warm pool, running the
  // calls it is sent, and mastering its keys.
  FaasmCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("fn", [](InvocationContext&) { return 0; })
                  .ok());
  const std::string departing = ShardMap::EndpointForHost("host-0");
  const std::string survivor = ShardMap::EndpointForHost("host-1");
  std::string key;       // mastered by host-0: the removal must stream it
  std::string kept_key;  // mastered by host-1
  for (int i = 0; key.empty() || kept_key.empty(); ++i) {
    std::string probe = "key-" + std::to_string(i);
    (cluster.shard_map().MasterFor(probe) == departing ? key : kept_key) = probe;
  }
  ASSERT_TRUE(cluster.kvs().Set(key, Bytes{7}).ok());

  // host-1's shard refuses every migration install and relays everything
  // else to its own server, registered again under a second name.
  const std::string relay = survivor + "/relay";
  KvsServer relay_server(cluster.kvs().StoreFor(kept_key), &cluster.network(), relay);
  cluster.network().RegisterEndpoint(survivor, [&](const Bytes& request) {
    const Bytes refused{static_cast<uint8_t>(StatusCode::kUnavailable)};
    if (!request.empty() && request[0] == static_cast<uint8_t>(KvsOp::kMigrateInstall)) {
      return refused;
    }
    auto response = cluster.network().Call(survivor, relay, request);
    return response.ok() ? response.value() : refused;
  });

  cluster.Run([&](Frontend&) {
    FaasmInstance& host0 = cluster.host(0);
    ASSERT_EQ(host0.name(), "host-0");
    ASSERT_EQ(host0.Await(host0.Submit("fn", {}).value()).value(), 0);
    ASSERT_EQ(cluster.kvs().SetMembers("warm:fn"), (std::vector<std::string>{"host-0"}));

    EXPECT_EQ(cluster.RemoveHost("host-0").code(), StatusCode::kUnavailable);

    EXPECT_EQ(cluster.host_count(), 2u);
    EXPECT_EQ(cluster.kvs().SetMembers("warm:fn"), (std::vector<std::string>{"host-0"}));
    EXPECT_EQ(cluster.shard_map().MasterFor(key), departing);
    EXPECT_EQ(host0.kvs().Read(key).value(), (Bytes{7}));
    ASSERT_TRUE(host0.kvs().Set(key, Bytes{8}).ok());
    EXPECT_EQ(cluster.host(1).kvs().Read(key).value(), (Bytes{8}));
    const uint64_t id = host0.Submit("fn", {}).value();
    EXPECT_EQ(host0.Await(id).value(), 0);
    EXPECT_EQ(cluster.calls().Get(id).value().executed_on, "host-0");
  });
  cluster.Shutdown();
}

TEST(ClusterTest, AddHostJoinsWarmSharingAndAffinity) {
  // A host added at runtime serves its shard and participates in affinity
  // placement: a function whose state key is mastered by the NEW host's
  // shard runs there with the master-local fast path.
  FaasmCluster cluster(SmallCluster(2));
  cluster.Run([&](Frontend& frontend) {
    auto added = cluster.AddHost();
    ASSERT_TRUE(added.ok());
    ASSERT_EQ(cluster.host_count(), 3u);

    // Probe a key the new host masters (post-flip map).
    const std::string new_endpoint = ShardMap::EndpointForHost(added.value());
    std::string key;
    for (int i = 0; i < 100000 && key.empty(); ++i) {
      std::string probe = "probe-" + std::to_string(i);
      if (cluster.shard_map().MasterFor(probe) == new_endpoint) {
        key = std::move(probe);
      }
    }
    ASSERT_FALSE(key.empty());
    ASSERT_TRUE(cluster.kvs().Set(key, Bytes(8, 0)).ok());

    FunctionOptions options;
    options.state_affinity_key = key;
    ASSERT_TRUE(cluster.registry()
                    .RegisterNative(
                        "affine-late",
                        [key](InvocationContext& ctx) {
                          auto kv = ctx.state().Lookup(key);
                          return kv->Pull().ok() && kv->master_local() ? 0 : 1;
                        },
                        options)
                    .ok());
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(frontend.Invoke("affine-late", {}).value(), 0);
    }
    for (const CallRecord& record : cluster.calls().FinishedRecords()) {
      EXPECT_EQ(record.executed_on, added.value());
    }
  });
}

TEST(ClusterTest, AddedHostGetsTheClusterHostTemplate) {
  // Every host is built from ClusterConfig::host, the initial ones and a
  // host added at runtime alike: non-default settings carry over whole.
  ClusterConfig config = SmallCluster(2);
  config.host.read_cache = true;
  config.host.memory_bytes = size_t{64} * 1024 * 1024;
  config.replication_factor = 2;
  FaasmCluster cluster(config);
  cluster.Run([&](Frontend&) {
    auto added = cluster.AddHost();
    ASSERT_TRUE(added.ok());
    ASSERT_EQ(cluster.host_count(), 3u);
    for (size_t i = 0; i < cluster.host_count(); ++i) {
      FaasmInstance& host = cluster.host(i);
      SCOPED_TRACE(host.name());
      EXPECT_TRUE(host.kvs().read_cache().enabled());
      EXPECT_TRUE(host.kvs().replica_reads_enabled());
      EXPECT_EQ(host.memory_accountant().capacity_bytes(), config.host.memory_bytes);
    }
    EXPECT_EQ(cluster.host(2).name(), added.value());
  });
}

TEST(ClusterTest, AddHostNeverReusesAName) {
  // A replica mirror attaches once per host name and a crash fence on it is
  // final (ReplicationManager::AttachHost): that holds because a name, once
  // used, never comes back — after a graceful removal, an oracle kill and
  // an unannounced crash alike.
  ClusterConfig config = SmallCluster(4);
  config.replication_factor = 2;
  config.failure_detection = true;
  FaasmCluster cluster(config);
  cluster.Run([&](Frontend&) {
    std::set<std::string> used;
    for (size_t i = 0; i < cluster.host_count(); ++i) {
      used.insert(cluster.host(i).name());
    }
    auto add_fresh = [&] {
      auto added = cluster.AddHost();
      ASSERT_TRUE(added.ok()) << added.status().ToString();
      EXPECT_TRUE(used.insert(added.value()).second) << added.value() << " was used before";
    };
    ASSERT_TRUE(cluster.RemoveHost("host-3").ok());
    add_fresh();
    ASSERT_TRUE(cluster.KillHost("host-2").ok());
    add_fresh();
    const TimeNs crashed_at = cluster.clock().Now();
    ASSERT_TRUE(cluster.CrashHost("host-1").ok());
    const FailureDetector* detector = cluster.failure_detector();
    ASSERT_TRUE(cluster.clock().WaitFor([&] { return detector->death_count() >= 1; },
                                        100 * kMicrosecond, crashed_at + kSecond));
    add_fresh();
    EXPECT_EQ(cluster.host_count(), 4u);
  });
}

TEST(ClusterTest, MalformedWasmRejectedAtUpload) {
  FaasmCluster cluster(SmallCluster(1));
  EXPECT_FALSE(cluster.registry().UploadWasm("bad", Bytes{1, 2, 3}).ok());
  wasm::ModuleBuilder b;
  auto& f = b.AddFunction("main", {}, {wasm::ValType::kI32});
  f.End();  // missing result: validation must reject
  EXPECT_FALSE(cluster.registry().UploadWasm("illtyped", b.Build()).ok());
}

}  // namespace
}  // namespace faasm
