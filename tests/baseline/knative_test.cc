// Container-baseline tests: the same workload API with container semantics —
// private state tiers, slow cold starts, HTTP-chained calls.
#include "baseline/knative.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "state/ddo.h"

namespace faasm {
namespace {

ClusterConfig SmallCluster(int hosts = 2) {
  ClusterConfig config;
  config.hosts = hosts;
  config.host.cores = 2;
  return config;
}

ContainerModel FastModel() {
  // Shrink latencies so tests stay fast; mechanisms unchanged.
  ContainerModel model;
  model.cold_start_ns = 20 * kMillisecond;
  model.python_cold_start_ns = 30 * kMillisecond;
  model.await_poll_interval_ns = kMillisecond;
  return model;
}

TEST(KnativeTest, InvokeNativeFunction) {
  KnativeCluster cluster(SmallCluster(), FastModel());
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("echo",
                                  [](InvocationContext& ctx) {
                                    ctx.WriteOutput(ctx.Input());
                                    return 0;
                                  })
                  .ok());
  cluster.Run([&](KnativeCluster::Client& client) {
    auto id = client.Submit("echo", Bytes{5, 5});
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(client.Await(id.value()).value(), 0);
    EXPECT_EQ(client.Output(id.value()).value(), (Bytes{5, 5}));
  });
}

TEST(KnativeTest, ColdStartTakesContainerTime) {
  KnativeCluster cluster(SmallCluster(1), FastModel());
  ASSERT_TRUE(
      cluster.registry().RegisterNative("fn", [](InvocationContext&) { return 0; }).ok());
  cluster.Run([&](KnativeCluster::Client& client) {
    ASSERT_EQ(client.Invoke("fn", {}).value(), 0);
  });
  auto records = cluster.calls().FinishedRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].cold_start);
  // Start delayed by at least the container boot.
  EXPECT_GE(records[0].started_at - records[0].submitted_at, 20 * kMillisecond);
  EXPECT_EQ(cluster.cold_start_count(), 1u);
}

TEST(KnativeTest, WarmContainerReused) {
  KnativeCluster cluster(SmallCluster(1), FastModel());
  ASSERT_TRUE(
      cluster.registry().RegisterNative("fn", [](InvocationContext&) { return 0; }).ok());
  cluster.Run([&](KnativeCluster::Client& client) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(client.Invoke("fn", {}).value(), 0);
    }
  });
  EXPECT_EQ(cluster.cold_start_count(), 1u);  // single host: container reused
}

TEST(KnativeTest, AutoscalerScalesOutUnderConcurrency) {
  // Sequential (closed-loop) calls reuse the single pod; concurrent calls
  // push the per-pod concurrency above target and scale out to more hosts,
  // each paying a cold start.
  KnativeCluster cluster(SmallCluster(3), FastModel());
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("fn",
                                  [](InvocationContext& ctx) {
                                    ctx.ChargeCompute(30 * kMillisecond);
                                    return 0;
                                  })
                  .ok());
  cluster.Run([&](KnativeCluster::Client& client) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(client.Invoke("fn", {}).value(), 0);
    }
  });
  EXPECT_EQ(cluster.cold_start_count(), 1u);  // closed loop: one pod suffices

  cluster.Run([&](KnativeCluster::Client& client) {
    std::vector<uint64_t> ids;
    for (int i = 0; i < 6; ++i) {
      auto id = client.Submit("fn", {});
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
    }
    for (uint64_t id : ids) {
      ASSERT_EQ(client.Await(id).value(), 0);
    }
  });
  // Scaled out to all three hosts; hosts may also add containers for their
  // own queued calls (per-pod concurrency target of 1).
  EXPECT_GE(cluster.cold_start_count(), 3u);
  EXPECT_LE(cluster.cold_start_count(), 6u);
}

TEST(KnativeTest, ContainersDoNotShareState) {
  // Two containers for the same function pull independent copies: a local
  // write in one is invisible to the other until pushed globally.
  KnativeCluster cluster(SmallCluster(2), FastModel());
  cluster.kvs().Set("value", Bytes(8, 0));
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("bump_local",
                                  [](InvocationContext& ctx) {
                                    SharedArray<uint64_t> value(&ctx.state(), "value");
                                    if (!value.Attach().ok()) {
                                      return 1;
                                    }
                                    value[0] += 1;  // local only, never pushed
                                    ctx.ChargeCompute(20 * kMillisecond);
                                    Bytes out;
                                    ByteWriter writer(out);
                                    writer.Put<uint64_t>(value[0]);
                                    ctx.WriteOutput(std::move(out));
                                    return 0;
                                  })
                  .ok());
  std::vector<uint64_t> observed;
  cluster.Run([&](KnativeCluster::Client& client) {
    // Two rounds of two concurrent calls: the autoscaler spreads each round
    // over two containers (per-pod target concurrency is 1).
    for (int round = 0; round < 2; ++round) {
      std::vector<uint64_t> ids;
      for (int i = 0; i < 2; ++i) {
        auto id = client.Submit("bump_local", {});
        ASSERT_TRUE(id.ok());
        ids.push_back(id.value());
      }
      for (uint64_t id : ids) {
        ASSERT_EQ(client.Await(id).value(), 0);
        const Bytes output = client.Output(id).value();
        ByteReader reader(output);
        observed.push_back(reader.Get<uint64_t>().value());
      }
    }
  });
  // Each container counts only its own private copy: 1 in round one, 2 in
  // round two, never 3 or 4 — no cross-container memory sharing.
  std::sort(observed.begin(), observed.end());
  EXPECT_EQ(observed, (std::vector<uint64_t>{1, 1, 2, 2}));
}

TEST(KnativeTest, ChainingGoesThroughIngress) {
  KnativeCluster cluster(SmallCluster(1), FastModel());
  ASSERT_TRUE(
      cluster.registry().RegisterNative("leaf", [](InvocationContext&) { return 0; }).ok());
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("parent",
                                  [](InvocationContext& ctx) {
                                    auto id = ctx.ChainCall("leaf", Bytes(100));
                                    if (!id.ok()) {
                                      return 1;
                                    }
                                    auto code = ctx.AwaitCall(id.value());
                                    return code.ok() ? code.value() : 2;
                                  })
                  .ok());
  cluster.Run([&](KnativeCluster::Client& client) {
    const uint64_t before = cluster.network_bytes();
    ASSERT_EQ(client.Invoke("parent", {}).value(), 0);
    // Chained call + result polling all travelled over HTTP.
    EXPECT_GT(cluster.network_bytes() - before,
              100 + cluster.model().http_envelope_bytes);
  });
}

TEST(KnativeTest, HostMemoryExhaustionFailsColdStarts) {
  ClusterConfig config = SmallCluster(1);
  config.host.memory_bytes = 20 * 1024 * 1024;  // fits two 8 MB containers
  ContainerModel model = FastModel();
  KnativeCluster cluster(config, model);
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("fn",
                                  [](InvocationContext& ctx) {
                                    ctx.ChargeCompute(50 * kMillisecond);
                                    return 0;
                                  })
                  .ok());
  cluster.Run([&](KnativeCluster::Client& client) {
    // Submit 4 concurrent calls: each wants its own container; the third+
    // allocation exceeds host memory and fails (the Fig. 6 OOM behaviour).
    std::vector<uint64_t> ids;
    for (int i = 0; i < 4; ++i) {
      auto id = client.Submit("fn", {});
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
    }
    int failures = 0;
    for (uint64_t id : ids) {
      auto code = client.Await(id);
      failures += code.ok() ? 0 : 1;
    }
    EXPECT_GE(failures, 1);
  });
  EXPECT_GE(cluster.failed_call_count(), 1u);
}

TEST(KnativeTest, ElasticMembershipDrainsAndNeverTouchesTier) {
  // Baseline parity for AddHost/RemoveHost: hosts come and go, calls drain
  // gracefully, and the central tier is untouched throughout (the baseline
  // has no shards to migrate — its tier "membership" never changes).
  KnativeCluster cluster(SmallCluster(2), FastModel());
  ASSERT_TRUE(cluster.kvs().Set("seeded", Bytes{9}).ok());
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("fn",
                                  [](InvocationContext& ctx) {
                                    ctx.ChargeCompute(5 * kMillisecond);
                                    auto kv = ctx.state().Lookup("seeded");
                                    return kv->Pull().ok() ? 0 : 1;
                                  })
                  .ok());
  cluster.Run([&](KnativeCluster::Client& client) {
    auto added = cluster.AddHost();
    ASSERT_TRUE(added.ok());
    // Concurrent calls scale out over the (now three) hosts.
    std::vector<uint64_t> ids;
    for (int i = 0; i < 6; ++i) {
      auto id = client.Submit("fn", {});
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
    }
    // Remove a host while calls are in flight: it drains, nothing is lost.
    ASSERT_TRUE(cluster.RemoveHost(added.value()).ok());
    EXPECT_EQ(cluster.RemoveHost(added.value()).code(), StatusCode::kNotFound);
    for (uint64_t id : ids) {
      auto code = client.Await(id);
      ASSERT_TRUE(code.ok()) << code.status().ToString();
      EXPECT_EQ(code.value(), 0);
    }
    // New work routes around the removed host.
    EXPECT_EQ(client.Invoke("fn", {}).value(), 0);
  });
  // The tier was never sharded or migrated: the value sits where it always
  // was, in the one central store.
  EXPECT_EQ(cluster.kvs().Get("seeded").value(), (Bytes{9}));
}

}  // namespace
}  // namespace faasm
