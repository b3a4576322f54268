#include "net/network.h"

#include <gtest/gtest.h>

#include "sim/sim_clock.h"

namespace faasm {
namespace {

TEST(NetworkTest, RpcDeliversAndAccounts) {
  RealClock clock;
  NetworkConfig config;
  config.charge_latency = false;
  InProcNetwork net(&clock, config);
  net.RegisterEndpoint("kvs", [](const Bytes& request) {
    Bytes response = request;
    response.push_back(0xFF);
    return response;
  });
  auto out = net.Call("host-0", "kvs", Bytes{1, 2, 3});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), (Bytes{1, 2, 3, 0xFF}));
  // Each direction pays payload + the fixed per-message envelope.
  const uint64_t overhead = kMessageOverheadBytes;
  EXPECT_EQ(net.total_bytes(), 7u + 2 * overhead);  // 3 request + 4 response
  EXPECT_EQ(net.StatsFor("host-0").tx_bytes, 3u + overhead);
  EXPECT_EQ(net.StatsFor("host-0").rx_bytes, 4u + overhead);
  EXPECT_EQ(net.StatsFor("kvs").rx_bytes, 3u + overhead);
}

TEST(NetworkTest, UnknownEndpointFails) {
  RealClock clock;
  NetworkConfig config;
  config.charge_latency = false;
  InProcNetwork net(&clock, config);
  EXPECT_EQ(net.Call("a", "nowhere", {}).status().code(), StatusCode::kUnavailable);
}

TEST(NetworkTest, MailboxSendPoll) {
  RealClock clock;
  NetworkConfig config;
  config.charge_latency = false;
  InProcNetwork net(&clock, config);
  // A mailbox only exists behind a registered endpoint: sends to a missing
  // (or already-removed) receiver fail fast instead of queueing forever.
  EXPECT_EQ(net.Send("host-0", "host-1", Bytes{7}).code(), StatusCode::kUnavailable);
  net.RegisterEndpoint("host-1", [](const Bytes&) { return Bytes{}; });
  EXPECT_FALSE(net.Poll("host-1").has_value());
  EXPECT_EQ(net.PendingCount("host-1"), 0u);
  ASSERT_TRUE(net.Send("host-0", "host-1", Bytes{9}).ok());
  ASSERT_TRUE(net.Send("host-0", "host-1", Bytes{8}).ok());
  EXPECT_EQ(net.PendingCount("host-1"), 2u);
  auto first = net.Poll("host-1");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ((*first)[0], 9);  // FIFO order
  auto second = net.Poll("host-1");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((*second)[0], 8);
  EXPECT_FALSE(net.Poll("host-1").has_value());
}

TEST(NetworkTest, LatencyChargedToVirtualClock) {
  SimExecutor executor;
  InProcNetwork net(&executor.clock());
  net.RegisterEndpoint("svc", [](const Bytes&) { return Bytes(1000); });

  TimeNs elapsed = 0;
  executor.Spawn([&] {
    const TimeNs start = executor.clock().Now();
    auto out = net.Call("host", "svc", Bytes(1000));
    ASSERT_TRUE(out.ok());
    elapsed = executor.clock().Now() - start;
  });
  executor.JoinAll();
  // Two directions, each the 100 us base latency plus 1000 B and the 64 B
  // envelope at 1 Gbps (8512 ns).
  EXPECT_EQ(elapsed, 2 * (100 * kMicrosecond + 8512));
}

TEST(NetworkTest, ResetStatsClears) {
  RealClock clock;
  NetworkConfig config;
  config.charge_latency = false;
  InProcNetwork net(&clock, config);
  net.RegisterEndpoint("svc", [](const Bytes&) { return Bytes{}; });
  ASSERT_TRUE(net.Call("a", "svc", Bytes(10)).ok());
  EXPECT_GT(net.total_bytes(), 0u);
  net.ResetStats();
  EXPECT_EQ(net.total_bytes(), 0u);
}

}  // namespace
}  // namespace faasm
