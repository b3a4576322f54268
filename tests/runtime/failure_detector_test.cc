// FailureDetector unit tests (ISSUE 9): the three-state machine in
// isolation — a bare InProcNetwork plus the virtual clock, heartbeats sent
// by hand, sweeps driven explicitly. The cluster-level end-to-end story
// (CrashHost + autonomous recovery) lives in crash_detection_test.cc.
#include "runtime/failure_detector.h"

#include <gtest/gtest.h>

#include "kvs/router.h"
#include "sim/sim_clock.h"

namespace faasm {
namespace {

NetworkConfig NoLatency() {
  NetworkConfig config;
  config.charge_latency = false;
  return config;
}

TEST(FailureDetectorTest, HeartbeatWireFormatRoundTrips) {
  EXPECT_EQ(DecodeHeartbeat(EncodeHeartbeat("host-7")), "host-7");
  EXPECT_EQ(DecodeHeartbeat(Bytes{}), "");
  EXPECT_EQ(DecodeHeartbeat(BytesFromString("hb ")), "");  // tag, no host
  EXPECT_EQ(DecodeHeartbeat(BytesFromString("xx host-1")), "");
}

TEST(FailureDetectorTest, MutatedHeartbeatsDecodeToNothingOrAHostInsideTheInput) {
  // Heartbeats arrive off the network: every truncation, single-bit flip
  // and splice of two frames must decode to "" or to a host name lying
  // inside the input (the ASan lane checks no decode reads past the buffer).
  auto check = [](const Bytes& input) {
    const std::string host = DecodeHeartbeat(input);
    if (host.empty()) {
      return;
    }
    const std::string text(input.begin(), input.end());
    ASSERT_LT(host.size(), text.size());
    EXPECT_EQ(text.substr(text.size() - host.size()), host);
  };
  const Bytes first = EncodeHeartbeat("host-3");
  const Bytes second = EncodeHeartbeat("host-12");
  for (const Bytes& frame : {first, second}) {
    for (size_t cut = 0; cut <= frame.size(); ++cut) {
      check(Bytes(frame.begin(), frame.begin() + cut));
    }
    for (size_t i = 0; i < frame.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes flipped = frame;
        flipped[i] ^= static_cast<uint8_t>(1u << bit);
        check(flipped);
      }
    }
  }
  const std::string head_frame(first.begin(), first.end());
  const std::string tail_frame(second.begin(), second.end());
  for (size_t head = 0; head <= head_frame.size(); ++head) {
    for (size_t tail = 0; tail <= tail_frame.size(); ++tail) {
      check(BytesFromString(head_frame.substr(0, head) + tail_frame.substr(tail)));
    }
  }
}

TEST(FailureDetectorTest, SteadyHeartbeatsKeepHostAliveIndefinitely) {
  SimExecutor executor;
  InProcNetwork network(&executor.clock(), NoLatency());
  int deaths = 0;
  FailureDetector detector(&network, &executor.clock(), [&](const std::string&) { ++deaths; });
  network.RegisterEndpoint("host-0", [](const Bytes&) { return Bytes{}; });

  executor.Spawn([&] {
    detector.Track("host-0");
    // Run well past several suspicion windows; each beat refreshes last-seen.
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(network.Send("host-0", kFailureDetectorEndpoint, EncodeHeartbeat("host-0")).ok());
      executor.clock().SleepFor(kHeartbeatIntervalNs);
      detector.Sweep();
    }
    EXPECT_EQ(detector.HealthOf("host-0"), HostHealth::kAlive);
    EXPECT_GE(detector.heartbeats_seen(), 10u);
    EXPECT_EQ(detector.suspicions(), 0u);
  });
  executor.JoinAll();
  EXPECT_EQ(deaths, 0);
  EXPECT_EQ(detector.death_count(), 0u);
}

TEST(FailureDetectorTest, CrashIsSuspectedProbedAndConfirmedExactlyOnce) {
  SimExecutor executor;
  InProcNetwork network(&executor.clock(), NoLatency());
  std::vector<std::string> handled;
  FailureDetector detector(&network, &executor.clock(),
                           [&](const std::string& host) { handled.push_back(host); });
  // The host's endpoint is NEVER registered: to the detector that is a
  // crash — the probe has nothing to answer it.

  executor.Spawn([&] {
    detector.Track("host-0");
    const TimeNs tracked_at = executor.clock().Now();

    // Inside the suspicion window, silence is tolerated.
    executor.clock().SleepFor(kSuspicionTimeoutNs / 2);
    detector.Sweep();
    EXPECT_EQ(detector.HealthOf("host-0"), HostHealth::kAlive);
    EXPECT_EQ(detector.death_count(), 0u);

    // Past it, one sweep suspects, probes, and confirms.
    executor.clock().SleepFor(kSuspicionTimeoutNs);
    detector.Sweep();
    EXPECT_EQ(detector.HealthOf("host-0"), HostHealth::kDead);
    EXPECT_EQ(detector.suspicions(), 1u);
    ASSERT_EQ(detector.death_count(), 1u);
    const std::vector<DeathRecord> deaths = detector.deaths();
    ASSERT_EQ(deaths.size(), 1u);
    EXPECT_EQ(deaths[0].host, "host-0");
    EXPECT_FALSE(deaths[0].hinted);
    EXPECT_GE(deaths[0].confirmed_at_ns, tracked_at + kSuspicionTimeoutNs);

    // Dead is terminal: a zombie's late heartbeat resurrects nothing and
    // the handler never fires twice.
    network.RegisterEndpoint("host-0", [](const Bytes&) { return Bytes{}; });
    ASSERT_TRUE(network.Send("host-0", kFailureDetectorEndpoint, EncodeHeartbeat("host-0")).ok());
    executor.clock().SleepFor(kSuspicionTimeoutNs);
    detector.Sweep();
    EXPECT_EQ(detector.HealthOf("host-0"), HostHealth::kDead);
    EXPECT_EQ(detector.death_count(), 1u);
  });
  executor.JoinAll();
  EXPECT_EQ(handled, std::vector<std::string>{"host-0"});
}

TEST(FailureDetectorTest, SlowHostClearsSuspicionWithoutFailover) {
  // The false-positive case the probe exists for: heartbeats stop (a stalled
  // publisher) but the host still answers RPCs — suspicion must clear, and
  // the death handler must never run.
  SimExecutor executor;
  InProcNetwork network(&executor.clock(), NoLatency());
  int deaths = 0;
  FailureDetector detector(&network, &executor.clock(), [&](const std::string&) { ++deaths; });
  network.RegisterEndpoint("host-0", [](const Bytes&) { return Bytes{}; });

  executor.Spawn([&] {
    detector.Track("host-0");
    executor.clock().SleepFor(2 * kSuspicionTimeoutNs);
    detector.Sweep();  // suspects AND probes in the same sweep
    EXPECT_EQ(detector.HealthOf("host-0"), HostHealth::kAlive);
    EXPECT_EQ(detector.suspicions(), 1u);
    EXPECT_EQ(detector.false_suspicions(), 1u);
    EXPECT_EQ(detector.death_count(), 0u);

    // The probe restarted the silence window: the next sweep inside the new
    // window does not re-suspect.
    executor.clock().SleepFor(kSuspicionTimeoutNs / 2);
    detector.Sweep();
    EXPECT_EQ(detector.suspicions(), 1u);
  });
  executor.JoinAll();
  EXPECT_EQ(deaths, 0);
}

TEST(FailureDetectorTest, ClientHintTriggersProbeBeforeTheTimeout) {
  // Client evidence (a kUnavailable bounce) schedules the corroborating
  // probe on the NEXT sweep: a hinted crash is confirmed long before the
  // heartbeat timeout would have noticed the silence.
  SimExecutor executor;
  InProcNetwork network(&executor.clock(), NoLatency());
  FailureDetector detector(&network, &executor.clock(), nullptr);

  executor.Spawn([&] {
    detector.Track("host-0");  // endpoint never registered: crashed
    const TimeNs crashed_at = executor.clock().Now();
    // Both endpoint spellings a client would report resolve to the host.
    detector.ReportSuspicion(ShardMap::EndpointForHost("host-0"));
    detector.ReportSuspicion("rep:host-0");
    EXPECT_EQ(detector.hints(), 1u);  // one host, hinted once

    executor.clock().SleepFor(kMillisecond);  // far inside the timeout
    detector.Sweep();
    ASSERT_EQ(detector.death_count(), 1u);
    const std::vector<DeathRecord> deaths = detector.deaths();
    EXPECT_TRUE(deaths[0].hinted);
    EXPECT_LT(deaths[0].confirmed_at_ns - crashed_at, kSuspicionTimeoutNs);
  });
  executor.JoinAll();
}

TEST(FailureDetectorTest, ForgetDisarmsMonitoring) {
  // Graceful removal calls Forget BEFORE the host stops heartbeating;
  // afterwards unbounded silence must not read as a crash.
  SimExecutor executor;
  InProcNetwork network(&executor.clock(), NoLatency());
  int deaths = 0;
  FailureDetector detector(&network, &executor.clock(), [&](const std::string&) { ++deaths; });

  executor.Spawn([&] {
    detector.Track("host-0");
    detector.Forget("host-0");
    executor.clock().SleepFor(4 * kSuspicionTimeoutNs);
    detector.Sweep();
    EXPECT_EQ(detector.death_count(), 0u);
    // Hints for untracked hosts are dropped, not resurrected into state.
    detector.ReportSuspicion("kvs:host-0");
    EXPECT_EQ(detector.hints(), 0u);
    detector.Sweep();
    EXPECT_EQ(detector.death_count(), 0u);
  });
  executor.JoinAll();
  EXPECT_EQ(deaths, 0);
}

}  // namespace
}  // namespace faasm
