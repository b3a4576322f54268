// Virtual time carries no simulator artefacts on the call path: an awaiter
// wakes at the instant its call finishes, a wedged batch wait gives up at
// exactly its deadline, and compute is charged as the calling thread's own
// CPU time, not as wall time shared with other simulated activities.
#include <gtest/gtest.h>

#include <atomic>

#include "kvs/kvs_client.h"
#include "runtime/cluster.h"

namespace faasm {
namespace {

ClusterConfig OneHost() {
  ClusterConfig config;
  config.hosts = 1;
  config.host.cores = 4;
  return config;
}

Bytes EncodeTimes(TimeNs a, TimeNs b) {
  Bytes out;
  ByteWriter writer(out);
  writer.Put<int64_t>(a);
  writer.Put<int64_t>(b);
  return out;
}

TEST(ExactWakeupTest, ChainedAwaitReturnsAtFinishedAt) {
  ClusterConfig config = OneHost();
  config.hosts = 2;
  FaasmCluster cluster(config);
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("leaf",
                                  [](InvocationContext& ctx) {
                                    // Off any polling grid.
                                    ctx.clock().SleepFor(333 * kMicrosecond + 17);
                                    return 0;
                                  })
                  .ok());
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("parent",
                                  [](InvocationContext& ctx) {
                                    auto id = ctx.ChainCall("leaf", {});
                                    if (!id.ok()) {
                                      return 2;
                                    }
                                    auto code = ctx.AwaitCall(id.value());
                                    if (!code.ok() || code.value() != 0) {
                                      return 3;
                                    }
                                    ctx.WriteOutput(EncodeTimes(
                                        static_cast<TimeNs>(id.value()), ctx.clock().Now()));
                                    return 0;
                                  })
                  .ok());

  for (int round = 0; round < 4; ++round) {
    Bytes output;
    cluster.Run([&](Frontend& frontend) {
      auto id = frontend.Submit("parent", {});
      ASSERT_TRUE(id.ok());
      ASSERT_EQ(frontend.Await(id.value()).value(), 0);
      // The frontend's own await has zero lag too.
      EXPECT_EQ(cluster.clock().Now(), cluster.calls().Get(id.value()).value().finished_at);
      output = frontend.Output(id.value()).value();
    });
    ByteReader reader(output);
    const auto child_id = static_cast<uint64_t>(reader.Get<int64_t>().value());
    const TimeNs awaited_at = reader.Get<int64_t>().value();
    const CallRecord child = cluster.calls().Get(child_id).value();
    EXPECT_EQ(child.state, CallState::kDone);
    EXPECT_EQ(awaited_at, child.finished_at) << "round " << round;
  }
}

TEST(ExactWakeupTest, WedgedBatchWaitReturnsDeadlineExceededAtItsDeadline) {
  // A spawner that drops its closures wedges both remote groups: only the
  // wait's deadline can end it, and it must end exactly there.
  SimExecutor executor;
  NetworkConfig netcfg;
  netcfg.charge_latency = false;
  InProcNetwork network(&executor.clock(), netcfg);
  ShardMap map;
  map.AddShard(ShardMap::EndpointForHost("host-1"));
  map.AddShard(ShardMap::EndpointForHost("host-2"));
  KvsClient client(&network, "host-0", &map, nullptr);
  client.SetSpawner([](std::function<void()>) {});

  std::string key_1;
  std::string key_2;
  for (int i = 0; i < 100000 && (key_1.empty() || key_2.empty()); ++i) {
    std::string probe = "wedge-" + std::to_string(i);
    if (map.MasterFor(probe) == ShardMap::EndpointForHost("host-1")) {
      if (key_1.empty()) key_1 = std::move(probe);
    } else if (key_2.empty()) {
      key_2 = std::move(probe);
    }
  }
  ASSERT_FALSE(key_1.empty());
  ASSERT_FALSE(key_2.empty());

  constexpr TimeNs kStart = 7 * kMillisecond + 11;
  constexpr TimeNs kDeadline = 10 * kMillisecond;
  Status status = OkStatus();
  TimeNs returned_at = -1;
  executor.Spawn([&] {
    executor.clock().SleepFor(kStart);
    OpBatch batch;
    batch.SetRanges(key_1, {ValueRange{0, Bytes{1}}});
    batch.SetRanges(key_2, {ValueRange{0, Bytes{2}}});
    BatchHandle handle = client.DispatchBatch(std::move(batch));
    status = handle.Wait(kDeadline);
    returned_at = executor.clock().Now();
  });
  executor.JoinAll();

  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(returned_at, kStart + kDeadline);
}

TEST(ExactWakeupTest, ComputeIsChargedAsOwnCpuTimeNotSiblingsWork) {
  // The function burns a little CPU, sleeps 1 ms of virtual time, burns a
  // little more, then charges its CPU stopwatch. Meanwhile a sibling
  // activity spins on real CPU for tens of milliseconds; while it runs, the
  // clock cannot advance, so the function's slice spans the spin in wall
  // time. A wall-clock charge would bill the spin; a CPU-time charge bills
  // only the function's own work.
  FaasmCluster cluster(OneHost());
  std::atomic<bool> sleeping{false};
  auto burn = [](TimeNs cpu_ns) {
    CpuStopwatch cpu;
    volatile uint64_t sink = 0;
    while (cpu.ElapsedNs() < cpu_ns) {
      sink = sink + 1;
    }
  };
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("timed",
                                  [&](InvocationContext& ctx) {
                                    const TimeNs start = ctx.clock().Now();
                                    CpuStopwatch cpu;
                                    burn(kMillisecond);
                                    sleeping = true;
                                    ctx.clock().SleepFor(kMillisecond);
                                    burn(kMillisecond);
                                    const TimeNs own_cpu = cpu.ElapsedNs();
                                    ctx.ChargeCompute(own_cpu);
                                    ctx.WriteOutput(
                                        EncodeTimes(ctx.clock().Now() - start, own_cpu));
                                    return 0;
                                  })
                  .ok());

  Bytes output;
  std::atomic<TimeNs> sibling_wall_ns{0};
  cluster.Run([&](Frontend& frontend) {
    auto id = frontend.Submit("timed", {});
    ASSERT_TRUE(id.ok());
    cluster.executor().Spawn([&] {
      // Wait in virtual time (the call's cold start must progress), then
      // spin while the function sleeps.
      while (!sleeping.load()) {
        cluster.clock().SleepFor(10 * kMicrosecond);
      }
      Stopwatch wall;
      while (wall.ElapsedNs() < 40 * kMillisecond) {
      }
      sibling_wall_ns = wall.ElapsedNs();
    });
    ASSERT_EQ(frontend.Await(id.value()).value(), 0);
    output = frontend.Output(id.value()).value();
  });
  ByteReader reader(output);
  const TimeNs slice = reader.Get<int64_t>().value();
  const TimeNs own_cpu = reader.Get<int64_t>().value();
  ASSERT_GE(sibling_wall_ns.load(), 40 * kMillisecond);
  EXPECT_GE(own_cpu, 2 * kMillisecond);
  // One runner on four cores: the charge is the CPU time itself. A wall
  // clock charge would exceed this by the sibling's 40 ms spin.
  EXPECT_GE(slice, kMillisecond + own_cpu);
  EXPECT_LE(slice, kMillisecond + own_cpu + 100 * kMicrosecond);
}

}  // namespace
}  // namespace faasm
